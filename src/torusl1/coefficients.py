"""Convex positive coefficient sequences and their difference calculus.

A sequence is a short explicit head plus a closed-form tail rule.  The two
canonical families are a_n = 1/log n and a_n = 1/log^2 n for n >= 2, with
the undefined entries a_0, a_1 filled by linear extension (which forces
the first two second differences to vanish and keeps convexity).  A
"constant" tail rule freezes the last head value, which turns the
underlying cosine series into a trigonometric polynomial plus a constant;
those sequences are the cheap exact test cases.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvexSequence",
    "ConvexityReport",
    "GrowthReport",
    "verify_convex",
    "growth_classification",
]

_TAIL_RULES = ("log_reciprocal", "log_squared_reciprocal", "constant")
# subnormal heads lose relative precision that no error bar accounts for
_SMALLEST_NORMAL = 2.0 ** -1022
# 1/(8 eps): a file's sequence may rise or bend by 8 eps a_j, for rounding
_INV_SLACK = 2.0 ** 49
_DIFF_CHUNK = 2 ** 20  # second differences per chunk of _second_difference_chunks


@dataclass(frozen=True)
class ConvexSequence:
    """Coefficients a_0, a_1, ... given by an explicit head then a tail rule.

    head: the leading values (positive reals), any iterable; stored as a
        tuple of floats.
    tail_rule: one of "log_reciprocal" (a_n = 1/ln n), "log_squared_reciprocal"
        (a_n = 1/ln^2 n), or "constant" (a_n = head[-1]) for n >= len(head).
    """

    head: tuple
    tail_rule: str = "constant"
    label: str = ""

    def __post_init__(self):
        if self.tail_rule not in _TAIL_RULES:
            raise ValueError(f"unknown tail rule {self.tail_rule!r}")
        head = tuple(float(v) for v in self.head)
        if not head:
            raise ValueError("head must contain at least one value")
        if any(not math.isfinite(v) or v < _SMALLEST_NORMAL for v in head):
            raise ValueError("head values must be finite and at least "
                             "2^-1022, the smallest normal float64")
        if self.tail_rule != "constant" and len(head) < 2:
            raise ValueError("log tail rules need the two undefined leading values in the head")
        object.__setattr__(self, "head", head)

    # -- constructors -------------------------------------------------

    @classmethod
    def log_reciprocal(cls):
        """a_n = 1/ln n for n >= 2; a_1, a_0 by linear extension."""
        a2 = 1.0 / math.log(2.0)
        a3 = 1.0 / math.log(3.0)
        a1 = 2.0 * a2 - a3
        a0 = 2.0 * a1 - a2
        return cls(head=(a0, a1), tail_rule="log_reciprocal", label="log")

    @classmethod
    def log_squared_reciprocal(cls):
        """a_n = 1/ln^2 n for n >= 2; a_1, a_0 by linear extension."""
        a2 = 1.0 / math.log(2.0) ** 2
        a3 = 1.0 / math.log(3.0) ** 2
        a1 = 2.0 * a2 - a3
        a0 = 2.0 * a1 - a2
        return cls(head=(a0, a1), tail_rule="log_squared_reciprocal", label="log2")

    @classmethod
    def from_file(cls, path):
        """Load a sequence from a text file.

        One positive real per line (the head, in order).  A line holding one
        of the tail rule keywords declares the tail; absent that, the last
        head value continues forever.  '#' starts a comment.  Through the
        first two tail terms the sequence must be nonincreasing and convex
        up to rounding, else ValueError: with d_j = a_j - a_{j+1}, neither
        the rise -d_j nor the bend d_{j+1} - d_j (_bends) may exceed
        8 eps a_j.  The test multiplies them by 2^49 = 1/(8 eps), which
        rounds nothing, so scaling a file by 2^k never changes its verdict;
        a rise or bend that overflows is one that fails.
        """
        head = []
        rule = "constant"
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if line in _TAIL_RULES:
                    rule = line
                    continue
                head.append(float(line))
        seq = cls(head=tuple(head), tail_rule=rule,
                  label=os.path.basename(str(path)))
        a = seq.values(len(seq.head) + 2)
        with np.errstate(over="ignore"):
            rises = (a[1:] - a[:-1]) * _INV_SLACK > a[:-1]
        rises[:-1] |= _bends(a)
        bad = np.flatnonzero(rises)
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"sequence file {path}: a_{j}, a_{j + 1}, "
                             f"a_{j + 2} are not nonincreasing and convex")
        return seq

    # -- values and differences ---------------------------------------

    def _tail(self, lo, out):
        """The tail rule at the indices lo, lo + 1, ..., written into out.

        It runs in place, so its only temporary is the index array."""
        if self.tail_rule == "constant":
            out.fill(self.head[-1])
            return
        out[:] = np.arange(lo, lo + out.size, dtype=float)
        np.log(out, out=out)
        if self.tail_rule == "log_squared_reciprocal":
            np.square(out, out=out)
        np.divide(1.0, out, out=out)

    def value(self, n):
        """a_n for n >= 0, equal to values(n + 1)[n] bit for bit."""
        if n != int(n) or n < 0:
            raise ValueError("index must be a nonnegative integer")
        n = int(n)
        if n < len(self.head):
            return self.head[n]
        out = np.empty(1)
        self._tail(n, out)
        return float(out[0])

    def values(self, count):
        """Array of a_0 .. a_{count-1}."""
        return self._window(0, int(count))

    def _window(self, lo, hi):
        """Array of a_lo .. a_{hi-1}, equal to values(hi)[lo:] bit for bit."""
        k = min(max(len(self.head), lo), max(hi, lo))  # where the tail starts
        out = np.empty(max(hi - lo, 0))
        out[:k - lo] = self.head[lo:k]
        if hi > k:
            self._tail(k, out[k - lo:])
        return out

    def tail_limit(self):
        """lim_n a_n: 0 for the log rules, the frozen value for constant tails."""
        if self.tail_rule == "constant":
            return self.head[-1]
        return 0.0

    def first_difference(self, j):
        """a_j - a_{j+1}."""
        return self.value(j) - self.value(j + 1)

    def second_difference(self, j):
        """a_j + a_{j+2} - 2 a_{j+1}."""
        return self.value(j) + self.value(j + 2) - 2.0 * self.value(j + 1)

    def second_differences(self, count):
        """Array of second differences for j = 0 .. count-1.

        Filled a chunk at a time, so it peaks at its output plus one chunk's
        arrays."""
        out = np.empty(int(count))
        for lo, d2 in self._second_difference_chunks(count):
            out[lo:lo + d2.size] = d2
            del d2
        return out

    def _second_difference_chunks(self, count):
        """The second differences j = 0 .. count-1, _DIFF_CHUNK at a time.

        Yields (lo, d2), d2 holding j = lo .. lo + d2.size - 1 bit for bit as
        second_differences(count) does.  Each chunk is built from a window
        of the values (_window) that is freed before the chunk is yielded,
        so a caller that drops d2 before the next chunk holds about three
        chunks of arrays at most, whatever count.
        """
        count = int(count)
        for lo in range(0, count, _DIFF_CHUNK):
            a = self._window(lo, min(lo + _DIFF_CHUNK, count) + 2)
            d2 = a[:-2] + a[2:]
            d2 -= 2.0 * a[1:-1]
            del a
            yield lo, d2
            del d2

    def weighted_tail_beyond(self, J):
        """sum_{j>J} (j+1) * second_difference(j), in closed telescoped form.

        Equals a_{J+1} + (J+1)(a_{J+1} - a_{J+2}) - lim a_n; valid because the
        tails here are convex with n*(a_n - a_{n+1}) -> 0.
        """
        J = int(J)
        return (self.value(J + 1) + (J + 1) * self.first_difference(J + 1)
                - self.tail_limit())

    def squared_weighted_tail_beyond(self, J):
        """sum_{j>J} (j+1)^2 * second_difference(j), or +inf when divergent.

        For both log-rule families the summand behaves like a power of
        1/log j, so the series diverges and +inf is returned; for constant
        tails only finitely many terms are nonzero and the sum is exact.
        """
        J = int(J)
        if self.tail_rule != "constant":
            return math.inf
        end = len(self.head)  # second differences vanish for j >= end - 1
        if J + 1 >= end:
            return 0.0
        j = np.arange(J + 1, end, dtype=float)
        d2 = self.second_differences(end)[J + 1:end]
        return float(np.sum((j + 1) ** 2 * d2))


def _bends(a):
    """Where a_j, a_{j+1}, a_{j+2} bend concave beyond rounding: with
    d_j = a_j - a_{j+1}, d_{j+1} - d_j > 8 eps a_j.  The bend is multiplied
    by 2^49 = 1/(8 eps), which rounds nothing, so scaling a by 2^k never
    changes the verdict; a bend that overflows is one that fails."""
    d = a[:-1] - a[1:]
    with np.errstate(over="ignore"):
        return (d[1:] - d[:-1]) * _INV_SLACK > a[:-2]


@dataclass(frozen=True)
class ConvexityReport:
    min_second_difference: float
    argmin: int
    min_value: float
    horizon: int
    passed: bool


@dataclass(frozen=True)
class GrowthReport:
    sup_product: float
    sup_at: int
    start_product: float
    end_product: float
    ratio: float
    label: str
    horizon: int


def verify_convex(seq, horizon):
    """Scan a_n > 0 and convexity for 0 <= j <= horizon.

    Convexity is from_file's rule (_bends): a_j, a_{j+1}, a_{j+2} may bend
    concave by at most 8 eps a_j, relative to the sequence, so a head and
    its scalings by 2^k get one verdict.  The report also gives the
    smallest second difference a_j + a_{j+2} - 2 a_{j+1} and its j.
    """
    horizon = int(horizon)
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    a = seq.values(horizon + 3)
    d2 = a[:-2] + a[2:] - 2.0 * a[1:-1]
    d2 = d2[: horizon + 1]
    argmin = int(np.argmin(d2))
    min_d2 = float(d2[argmin])
    min_a = float(np.min(a))
    passed = not _bends(a)[:horizon + 1].any() and min_a > 0.0
    return ConvexityReport(min_d2, argmin, min_a, horizon, passed)


def growth_classification(seq, horizon):
    """Heuristic class of a_n * ln n over 2 <= n <= horizon.

    Labels: "unbounded" when the product grows by at least 2x from n=2 to the
    horizon, "o(1)" when it shrinks to at most half, "O(1)-not-o(1)"
    otherwise.  A finite-horizon heuristic, not a proof.
    """
    horizon = int(horizon)
    if horizon < 16:
        raise ValueError("horizon must be >= 16")
    n = np.arange(2, horizon + 1, dtype=float)
    p = seq.values(horizon + 1)[2:] * np.log(n)
    sup_at = int(np.argmax(p))
    start, end = float(p[0]), float(p[-1])
    ratio = end / start
    if ratio >= 2.0:
        label = "unbounded"
    elif ratio <= 0.5:
        label = "o(1)"
    else:
        label = "O(1)-not-o(1)"
    return GrowthReport(float(p[sup_at]), sup_at + 2, start, end, ratio,
                        label, horizon)
