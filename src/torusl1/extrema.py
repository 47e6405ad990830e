"""Extrema of the Dirichlet kernel on [0, 1/2] and their growth data.

D_N has N+1 extrema on [0, 1/2]: the central peak at 0 (height 2N+1), one
interior extremum strictly inside each zero bracket [k/(2N+1), (k+1)/(2N+1)]
for k = 1..N-1 with sign (-1)^k, and the endpoint t = 1/2 with height
(-1)^N.  Normalized heights c_i = |D_N(t_i)| / N are positive; their sum
grows like log N.  Between consecutive extrema sit the envelope points
t = (2i-1)/(4N+2), where |D_N| equals 1/sin(pi t) exactly under this
normalization (some sources carry an extra factor 2 from a different
kernel convention; the product check below pins the factor at 1).

Interior locations are solved to rounding by safeguarded Newton on the
closed form of D_N'(t) = 0.
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

    def coefficient_sum(self):
        return float(sum(r.c for r in self.rows))


@dataclass(frozen=True)
class CrossingReport:
    N: int
    max_product_error: float
    sandwich_ok: bool
    violations: tuple


def _interior(N):
    """Validated order N with the locations and heights of D_N's interior extrema.

    Extremum k (1 <= k <= N-1) sits at t = (k + s)/L, L = 2N+1, where s in
    (0, 1) solves phi(s) = L cos(pi s) sin(pi t) - sin(pi s) cos(pi t) = 0;
    this is D_N'(t) = 0 times sin^2(pi t) (-1)^k / pi.  phi falls strictly
    from phi(0) > 0 to phi(1) < 0, with
    phi'(s) = -pi (L - 1/L) sin(pi s) sin(pi t), so each bracket holds one
    root.  All roots are solved at once by Newton from s = 1/2, bisecting
    whenever a step leaves the bracket known so far; a step onto a bracket
    end counts as inside.  The loop ends once every step repeats the
    current or the previous iterate, which leaves each s within rounding of
    its root.  Bisection alone reaches one ulp of (0, 1) within the
    64-step cap.
    """
    if N != int(N) or N < 1:
        raise ValueError("N must be a positive integer")
    N = int(N)
    L = 2 * N + 1
    k = np.arange(1, N, dtype=float)
    s = prev = np.full(k.shape, 0.5)
    lo, hi = np.zeros(k.shape), np.ones(k.shape)
    for _ in range(64):
        ps, pt = np.pi * s, np.pi * ((k + s) / L)
        sin_t = np.sin(pt)
        phi = L * np.cos(ps) * sin_t - np.sin(ps) * np.cos(pt)
        lo = np.where(phi > 0.0, s, lo)
        hi = np.where(phi < 0.0, s, hi)
        step = s + phi / (np.pi * (L - 1.0 / L) * np.sin(ps) * sin_t)
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        settled = np.all((step == s) | (step == prev))
        prev, s = s, step
        if settled:
            break
    t = (k + s) / L
    return N, t, dirichlet_eval(N, t)


def find_extrema(N):
    """Locate the N+1 extrema of D_N on [0, 1/2] plus the envelope points.

    Interior extrema are solved to rounding from the closed form of
    D_N'(t) = 0 inside their zero brackets (_interior).  The endpoint rows
    at t = 0 and t = 1/2 are exact.
    """
    N, locs, heights = _interior(N)
    L = 2 * N + 1
    rows = [ExtremaRow(1, 0.0, float(L), float(L) / N)]
    rows += [ExtremaRow(i, t, h, abs(h) / N) for i, t, h
             in zip(range(2, N + 1), locs.tolist(), heights.tolist())]
    rows.append(ExtremaRow(N + 1, 0.5, float((-1) ** N), 1.0 / N))
    crossings = tuple(_envelope_points(N).tolist())
    return ExtremaTable(N=N, rows=tuple(rows), crossings=crossings)


def _envelope_points(N):
    """t_i = (2i - 1)/(4N + 2) for i = 1..N+1, where |D_N| sin(pi t) = 1."""
    return (2 * np.arange(1, N + 2) - 1) / (2.0 * (2 * N + 1))


def _envelope(N, heights):
    """(max |D_N(t) sin(pi t) - 1| over the envelope points t1, the rows
    i whose sandwich |h_{i+1}| < |D_N(t1_i)| < |h_i| fails), for the N+1
    extremum heights of D_N in row order."""
    t1 = _envelope_points(N)
    vals = np.abs(dirichlet_eval(N, t1))
    max_err = float(np.max(np.abs(vals * np.sin(np.pi * t1) - 1.0)))
    h = np.abs(heights)
    inside = (h[1:] < vals[:N]) & (vals[:N] < h[:N])
    return max_err, tuple((np.flatnonzero(~inside) + 1).tolist())


def crossing_check(table):
    """Verify the envelope identity and the interleaved height sandwich.

    Takes the ExtremaTable of order N = table.N (from find_extrema).
    Checks |D_N(t_i)| * sin(pi t_i) = 1 at every envelope point, and
    |D_N(t_{i+1}^2)| < |D_N(t_i^1)| < |D_N(t_i^2)| with extrema t^2 and
    envelope points t^1 interleaved.
    """
    max_err, violations = _envelope(table.N, table.heights())
    return CrossingReport(N=int(table.N), max_product_error=max_err,
                          sandwich_ok=not violations,
                          violations=violations)


def coefficient_sum(Ns):
    """Rows (N, sum of c_i, sum / ln N) for a sweep of orders.

    Each sum adds the c_i of find_extrema(N) in row order, so it
    equals that table's coefficient_sum() bit for bit; no table is built.
    """
    return growth_sweep(Ns)[0]


def growth_sweep(Ns):
    """coefficient_sum's rows and what crossing_check finds over them.

    Returns (rows, facts).  facts holds the band factor max/min of the
    finite sum / ln N (only when some N > 1), the worst envelope error
    and whether every order's sandwich holds, each as crossing_check
    reports it for find_extrema(N); all come from _interior's arrays, and
    no table is built.
    """
    rows, worst, ok = [], 0.0, True
    for N in Ns:
        N, _, heights = _interior(N)
        h = np.concatenate(([float(2 * N + 1)], heights, [float((-1) ** N)]))
        s = sum((np.abs(h) / N).tolist())
        rows.append((N, s, s / math.log(N) if N > 1 else math.inf))
        err, violations = _envelope(N, h)
        worst = max(worst, err)
        ok = ok and not violations
    ratios = [r for _, _, r in rows if math.isfinite(r)]
    facts = {"band_factor": max(ratios) / min(ratios)} if ratios else {}
    facts.update(envelope_max_error=worst, sandwich_ok=ok)
    return rows, facts
