"""Witness sets for non-uniform integrability, and interval limit demos.

The witness construction fixes a target measure 2/(2 N0 + 1), then walks
the nonnegative sign cells of D_n outward from the origin (ordered by
d_i = sup_{t in J_i} |t|, which their alternating signs give without a
sort), keeping whole cells until the running measure
would overshoot and trimming the last cell on its near-origin side so the
target is hit exactly.  Over a sweep N0 -> infinity with n ~ N0^2 the
measures shrink to 0 while the signed integrals of S_n over the witness
stay bounded away from 0 for slowly decaying coefficients; that
contrast is the certificate.  The signed integrals are exact up to
rounding (quadrature.integrate_signed).

Note the walk may keep more than b cells: the b-1 nearest cells alone have
total measure below b/(2 b N0 + 1) < 2/(2 N0 + 1), so stopping at b-1, as
a literal reading of the recipe suggests, can never reach the target.
"""

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import analyze_trace
from .kernels import dirichlet_eval
from .intervals import IntervalUnion
from .quadrature import integrate_signed, norm_trace

__all__ = [
    "WitnessSet",
    "CertificateReport",
    "IntervalLimitDemo",
    "nonnegative_cells",
    "build_witness",
    "uniform_integrability_certificate",
    "interval_limit_demo",
    "default_witness_order",
]


def nonnegative_cells(n):
    """Sign cells of the 2n+2 piece torus partition where D_n >= 0.

    The partition is the 2n interior cells [k/(2n+1), (k+1)/(2n+1)) plus
    the two boundary pieces reaching +-1/2.  D_n has constant sign inside
    each piece; the sign is taken at the midpoint.  Cells are returned in
    torus order.
    """
    if n != int(n) or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    L = 2 * n + 1
    pieces = [(-0.5, -n / L)]
    pieces += [(k / L, (k + 1) / L) for k in range(-n, n)]
    pieces.append((n / L, 0.5))
    mids = np.array([0.5 * (lo + hi) for lo, hi in pieces])
    keep = dirichlet_eval(n, mids) >= 0.0
    return [p for p, good in zip(pieces, keep) if good]


def default_witness_order(n):
    """Nonnegative cells of D_n by d_i = sup |t|, then lo, as a generator.

    D_n >= 0 on the cells k = -1, -3, ... and k = 0, 2, ..., so no sort is
    needed: for odd j the pair at d = j/L, then, for even n, the two wrap
    pieces at d = 1/2.
    """
    if n != int(n) or n < 1:
        raise ValueError("n must be a positive integer")
    n = int(n)
    L = 2 * n + 1
    for j in range(1, n + 1, 2):
        yield (-j / L, (-j + 1) / L)
        yield ((j - 1) / L, j / L)
    if n % 2 == 0:
        yield (-0.5, -n / L)
        yield (n / L, 0.5)


@dataclass(frozen=True)
class WitnessSet:
    N0: int
    b: int
    n: int
    selected: tuple
    trim: tuple
    Q: IntervalUnion
    measure: float
    integral: float
    integral_error: float
    feasible: bool


def default_n(N0, b):
    """Deterministic choice of n inside (b N0, (b+1) N0]."""
    return b * N0 + (N0 + 1) // 2


def build_witness(seq, N0, b, n=None):
    """Assemble the witness set Q for D_n with measure exactly 2/(2 N0 + 1).

    Keeps nonnegative cells nearest the origin, whole, until the next cell
    would overshoot the target; that cell is trimmed on its near-origin
    side by the exact deficit, and the walk stops there.  The signed
    integral of S_n over Q is integrate_signed's: one chirp-z run over the
    cells near the origin for the whole cells, one direct sum for the
    trimmed one.
    """
    N0 = int(N0)
    b = int(b)
    if N0 < 1 or b < 1:
        raise ValueError("N0 and b must be positive integers")
    n = default_n(N0, b) if n is None else int(n)
    if not (b * N0 < n <= (b + 1) * N0):
        raise ValueError(f"n must lie in (b*N0, (b+1)*N0], got n={n}")
    target = 2.0 / (2 * N0 + 1)
    selected = []
    trim = ()
    acc = 0.0
    for lo, hi in default_witness_order(n):
        if acc + (hi - lo) < target:
            selected.append((lo, hi))
            acc += hi - lo
            continue
        deficit = target - acc
        trim = (lo, lo + deficit) if lo >= 0.0 else (hi - deficit, hi)
        break
    Q = IntervalUnion(tuple(sorted(selected + ([trim] if trim else []))))
    q = integrate_signed(seq, n, Q)
    return WitnessSet(N0=N0, b=b, n=n, selected=tuple(selected), trim=trim,
                      Q=Q, measure=float(Q.measure()),
                      integral=float(q.value),
                      integral_error=float(q.error_estimate),
                      feasible=bool(trim))


# the certificate's least ratio of the smallest to the largest integral
_KAPPA = 0.2


@dataclass(frozen=True)
class CertificateReport:
    N0s: tuple
    witnesses: tuple
    measures: tuple
    integrals: tuple
    kappa: float
    min_integral: float
    max_integral: float
    passed: bool


def uniform_integrability_certificate(seq, N0s):
    """Witness sweep with b = N0: small measures, non-small integrals.

    Passes when the smallest signed integral over the sweep stays above
    kappa = 0.2 times the largest and above 0, while the witness measures
    2/(2 N0 + 1) decrease.  A family whose partial sums converge in L1
    fails this by construction (its integrals shrink with the measures).
    """
    N0s = [int(v) for v in N0s]
    if any(v < 4 for v in N0s):
        raise ValueError("each N0 must be >= 4")
    if any(b <= a for a, b in zip(N0s, N0s[1:])):
        raise ValueError("N0s must be strictly increasing")
    witnesses = tuple(build_witness(seq, N0, N0) for N0 in N0s)
    integrals = tuple(w.integral for w in witnesses)
    measures = tuple(w.measure for w in witnesses)
    lo, hi = min(integrals), max(integrals)
    passed = bool(lo > 0.0 and lo >= _KAPPA * hi
                  and all(w.feasible for w in witnesses))
    return CertificateReport(N0s=tuple(N0s), witnesses=witnesses,
                             measures=measures, integrals=integrals,
                             kappa=_KAPPA, min_integral=float(lo),
                             max_integral=float(hi), passed=passed)


@dataclass(frozen=True)
class IntervalLimitDemo:
    trace: object
    verdict: object
    case: str


def interval_limit_demo(seq, E, Ns):
    """Trace of integral over E of |S_N| with a convergence verdict.

    The trace and the verdict use norm_trace's and analyze_trace's default
    settings.  case "origin-interior" when E meets the origin,
    "origin-separated" when 0 lies strictly inside the complement; the
    limit is expected to exist either way.
    """
    if E.is_empty:
        raise ValueError("E must be nonempty")
    case = "origin-interior" if E.distance_from_zero() == 0.0 else "origin-separated"
    trace = norm_trace(seq, Ns, E, kind="abs")
    verdict = analyze_trace(trace)
    return IntervalLimitDemo(trace=trace, verdict=verdict, case=case)
