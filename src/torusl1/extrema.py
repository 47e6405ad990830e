"""Extrema of the Dirichlet kernel on [0, 1/2] and their growth data.

D_N has N+1 extrema on [0, 1/2]: the central peak at 0 (height 2N+1), one
interior extremum strictly inside each zero bracket [k/(2N+1), (k+1)/(2N+1)]
for k = 1..N-1 with sign (-1)^k, and the endpoint t = 1/2 with height
(-1)^N.  Normalized heights c_i = |D_N(t_i)| / N are positive; their sum
grows like log N.  Between consecutive extrema sit the envelope points
t = (2i-1)/(4N+2), where |D_N| equals 1/sin(pi t) exactly under this
normalization (some sources carry an extra factor 2 from a different
kernel convention; the product check below pins the factor at 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import dirichlet_eval

__all__ = [
    "ExtremaRow",
    "ExtremaTable",
    "CrossingReport",
    "find_extrema",
    "crossing_check",
    "coefficient_sum",
]


@dataclass(frozen=True)
class ExtremaRow:
    i: int
    t: float
    height: float
    c: float


@dataclass(frozen=True)
class ExtremaTable:
    N: int
    rows: tuple
    crossings: tuple

    def locations(self):
        return np.array([r.t for r in self.rows])

    def heights(self):
        return np.array([r.height for r in self.rows])

    def normalized_heights(self):
        return np.array([r.c for r in self.rows])

    def coefficient_sum(self):
        return float(sum(r.c for r in self.rows))


@dataclass(frozen=True)
class CrossingReport:
    N: int
    max_product_error: float
    sandwich_ok: bool
    violations: tuple


def _golden_max(fn, lo, hi, tol):
    """Lockstep golden-section maximization on a batch of brackets.

    fn must accept a vector of points; all brackets shrink together until
    every width is below tol.  Returns bracket midpoints.
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    if lo.size == 0:
        return lo
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    width = float(np.max(hi - lo))
    iters = max(1, int(math.ceil(math.log(max(width, tol) / tol)
                                 / -math.log(r))) + 1)
    for _ in range(iters):
        d = r * (hi - lo)
        x1 = hi - d
        x2 = lo + d
        f1 = fn(x1)
        f2 = fn(x2)
        take_left = f1 >= f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
    return 0.5 * (lo + hi)


def find_extrema(N, tol=1e-12):
    """Locate the N+1 extrema of D_N on [0, 1/2] plus the envelope points.

    Interior extrema are found by golden-section search inside the zero
    brackets, to a location tolerance tol; the endpoint rows at t = 0 and
    t = 1/2 are exact.
    """
    if N != int(N) or N < 1:
        raise ValueError("N must be a positive integer")
    if not 0.0 < tol <= 1e-6:
        raise ValueError("tol must lie in (0, 1e-6]")
    N = int(N)
    L = 2 * N + 1
    rows = [ExtremaRow(1, 0.0, float(L), float(L) / N)]
    if N >= 2:
        k = np.arange(1, N)
        signs = np.where(k % 2 == 0, 1.0, -1.0)

        def height(ts):
            return signs * dirichlet_eval(N, ts)

        locs = _golden_max(height, k / L, (k + 1) / L, tol)
        heights = dirichlet_eval(N, locs)
        for j, (t, h) in enumerate(zip(locs, heights)):
            rows.append(ExtremaRow(j + 2, float(t), float(h), abs(float(h)) / N))
    rows.append(ExtremaRow(N + 1, 0.5, float((-1) ** N), 1.0 / N))
    crossings = tuple((2 * i - 1) / (2.0 * L) for i in range(1, N + 2))
    return ExtremaTable(N=N, rows=tuple(rows), crossings=crossings)


def crossing_check(table):
    """Verify the envelope identity and the interleaved height sandwich.

    Takes the ExtremaTable of order N = table.N (from find_extrema).
    Checks |D_N(t_i)| * sin(pi t_i) = 1 at every envelope point, and
    |D_N(t_{i+1}^2)| < |D_N(t_i^1)| < |D_N(t_i^2)| with extrema t^2 and
    envelope points t^1 interleaved.
    """
    N = table.N
    t1 = np.array(table.crossings)
    vals = np.abs(dirichlet_eval(N, t1))
    products = vals * np.sin(np.pi * t1)
    max_err = float(np.max(np.abs(products - 1.0)))
    h = np.abs(table.heights())
    violations = []
    for i in range(N):
        if not (h[i + 1] < vals[i] < h[i]):
            violations.append(i + 1)
    return CrossingReport(N=int(N), max_product_error=max_err,
                          sandwich_ok=not violations,
                          violations=tuple(violations))


def coefficient_sum(Ns, tol=1e-12):
    """Rows (N, sum of c_i, sum / ln N) for a sweep of orders."""
    out = []
    for N in Ns:
        table = find_extrema(int(N), tol)
        s = table.coefficient_sum()
        ratio = s / math.log(N) if N > 1 else math.inf
        out.append((int(N), s, ratio))
    return out
