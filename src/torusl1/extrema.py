"""Extrema of the Dirichlet kernel on [0, 1/2] and their growth data.

D_N has N+1 extrema on [0, 1/2]: the central peak at 0 (height 2N+1), one
interior extremum strictly inside each zero bracket [k/(2N+1), (k+1)/(2N+1)]
for k = 1..N-1 with sign (-1)^k, and the endpoint t = 1/2 with height
(-1)^N.  Normalized heights c_i = |D_N(t_i)| / N are positive; their sum
grows like log N.  Between consecutive extrema sit the envelope points
t = (2i-1)/(4N+2), where |D_N| equals 1/sin(pi t) exactly under this
normalization (some sources carry an extra factor 2 from a different
kernel convention; the product check below pins the factor at 1).

Interior locations are solved to rounding by bracketed Newton on the
closed form of D_N'(t) = 0.
"""

import math
from dataclasses import dataclass

import numpy as np

from .kernels import dirichlet_eval
from .quadrature import _newton

__all__ = [
    "ExtremaTable",
    "CrossingReport",
    "find_extrema",
    "crossing_check",
    "growth_sweep",
]


@dataclass(frozen=True, eq=False)
class ExtremaTable:
    """The extrema of D_N on [0, 1/2], one read-only array per column.

    Row i - 1 of t, height and c is extremum i = 1..N+1; crossings holds
    the N+1 envelope points.
    """
    N: int
    t: np.ndarray
    height: np.ndarray
    c: np.ndarray
    crossings: np.ndarray


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
    root.  All roots are solved at once by the bracketed Newton of the
    |.| engine's root step (quadrature._newton) from s = 1/2, with the
    brackets [0, 1]; it stops once every step repeats the current or the
    previous iterate, which leaves each s within rounding of its root.
    """
    if N != int(N) or N < 1:
        raise ValueError("N must be a positive integer")
    N = int(N)
    L = 2 * N + 1
    k = np.arange(1, N, dtype=float)

    def phi(s):
        ps, pt = np.pi * s, np.pi * ((k + s) / L)
        sin_t = np.sin(pt)
        return (L * np.cos(ps) * sin_t - np.sin(ps) * np.cos(pt),
                -(np.pi * (L - 1.0 / L) * np.sin(ps) * sin_t))

    s = _newton(phi, np.zeros(k.shape), np.ones(k.shape),
                np.full(k.shape, 0.5))
    t = (k + s) / L
    return N, t, dirichlet_eval(N, t)


def find_extrema(N):
    """Locate the N+1 extrema of D_N on [0, 1/2] plus the envelope points.

    Interior extrema are solved to rounding from the closed form of
    D_N'(t) = 0 inside their zero brackets (_interior).  The endpoint rows
    at t = 0 and t = 1/2 are exact.  c is |height| / N.
    """
    N, locs, heights = _interior(N)
    t = np.concatenate(([0.0], locs, [0.5]))
    height = np.concatenate(([float(2 * N + 1)], heights, [float((-1) ** N)]))
    crossings = (2 * np.arange(1, N + 2) - 1) / (2.0 * (2 * N + 1))
    columns = (t, height, np.abs(height) / N, crossings)
    for col in columns:
        col.setflags(write=False)
    return ExtremaTable(N, *columns)


def crossing_check(table):
    """Verify the envelope identity and the interleaved height sandwich.

    Takes an ExtremaTable of order N (from find_extrema), whose crossings
    are the envelope points t1_i = (2i - 1)/(4N + 2), i = 1..N+1.  Checks
    |D_N(t1_i)| * sin(pi t1_i) = 1 at every one, and
    |h_{i+1}| < |D_N(t1_i)| < |h_i| for the extremum heights h in row
    order; violations names the rows i where the sandwich fails.
    """
    N, t1 = int(table.N), table.crossings
    vals = np.abs(dirichlet_eval(N, t1))
    max_err = float(np.max(np.abs(vals * np.sin(np.pi * t1) - 1.0)))
    h = np.abs(table.height)
    inside = (h[1:] < vals[:N]) & (vals[:N] < h[:N])
    violations = tuple((np.flatnonzero(~inside) + 1).tolist())
    return CrossingReport(N=N, max_product_error=max_err,
                          sandwich_ok=not violations, violations=violations)


def growth_sweep(Ns):
    """Rows (N, sum of c, sum / ln N) for a sweep of orders, and the facts
    crossing_check finds over them.

    Each sum adds the c column of find_extrema(N) in row order; sum / ln N
    is inf at N = 1.  facts holds the band factor max/min of the finite
    sum / ln N (only when some N > 1), the worst envelope error and
    whether every order's sandwich holds.
    """
    rows, worst, ok = [], 0.0, True
    for N in Ns:
        table = find_extrema(N)
        report = crossing_check(table)
        n, s = table.N, sum(table.c.tolist())
        rows.append((n, s, s / math.log(n) if n > 1 else math.inf))
        worst = max(worst, report.max_product_error)
        ok = ok and report.sandwich_ok
    ratios = [r for _, _, r in rows if math.isfinite(r)]
    facts = {"band_factor": max(ratios) / min(ratios)} if ratios else {}
    facts.update(envelope_max_error=worst, sandwich_ok=ok)
    return rows, facts
