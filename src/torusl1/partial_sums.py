"""Partial sums S_N, the reference function, and the residual identity.

The reference function f attached to a coefficient sequence is the
nonnegative-kernel representation

    f(t) = sum_{j>=0} (j+1) (a_j + a_{j+2} - 2 a_{j+1}) F_j(t),

truncated at a caller-chosen order with a rigorous per-point tail bound
(min of a global weighted-tail sum and the off-origin envelope
d a_{J+1} / sin^2(pi t)).  f is never obtained as a limit of S_M, which
need not converge in L1.

residual_identity_check probes the twice-summed-by-parts form of
f - S_N in two index variants ("derived" and "alternate"); which variant
closes numerically is data reported to the caller, not an assumption.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import canonical, dirichlet_eval, fejer_eval
from .trigsum import cosine_poly_grid, cosine_poly_points

__all__ = [
    "partial_sum",
    "partial_sum_grid",
    "fejer_representation",
    "reference_function_grid",
    "IdentityCheck",
    "residual_identity_check",
    "UniformConvergenceReport",
    "uniform_convergence_check",
]


def partial_sum(seq, N, t):
    """S_N(t) = a_0 + 2 sum_{n<=N} a_n cos(2 pi n t)."""
    if N != int(N) or N < 0:
        raise ValueError("N must be a nonnegative integer")
    return cosine_poly_points(seq.values(int(N) + 1), canonical(t))


def partial_sum_grid(seq, N, grid_size):
    """S_N at the uniform grid t_k = -1/2 + k/grid_size, k = 0..grid_size-1."""
    if N != int(N) or N < 0:
        raise ValueError("N must be a nonnegative integer")
    return cosine_poly_grid(seq.values(int(N) + 1), grid_size)


def _sinc_ratio_sq_sum(d2, j_lo, j_hi, u, chunk=4096):
    """sum_{j=j_lo}^{j_hi} d2[j] * ((j+1) sinc((j+1)u) / sinc(u))^2.

    Each term equals (j+1) * d2[j] * F_j(u); the sinc form is finite and
    cancellation-free at every point including u = 0.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    denom = np.sinc(u)
    acc = np.zeros_like(u)
    for lo in range(j_lo, j_hi + 1, chunk):
        j = np.arange(lo, min(lo + chunk, j_hi + 1), dtype=float)
        s = (j[:, None] + 1.0) * np.sinc((j[:, None] + 1.0) * u[None, :])
        acc += d2[lo: lo + j.size] @ (s * s)
    return acc / (denom * denom)


def _sin2(u):
    return np.sin(np.pi * u) ** 2


def _tail_bounds(seq, j_max, sin2):
    """Per-point rigorous bound on the dropped tail beyond j_max, given
    sin^2(pi u) at the points."""
    global_bound = seq.squared_weighted_tail_beyond(j_max)
    with np.errstate(divide="ignore"):
        off = np.where(sin2 > 0.0,
                       seq.first_difference(j_max + 1) / np.where(sin2 > 0.0, sin2, 1.0),
                       np.inf)
    return np.minimum(global_bound, off)


def fejer_representation(seq, j_max, t):
    """Truncated kernel representation of f with a rigorous tail bound.

    Returns (value, tail_bound); arrays in, arrays out.  tail_bound is +inf
    where neither the global nor the off-origin bound is finite (only at
    t = 0 for sequences whose weighted tail diverges).
    """
    j_max = int(j_max)
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    u = canonical(t)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    d2 = seq.second_differences(j_max + 1)
    value = _sinc_ratio_sq_sum(d2, 0, j_max, u_arr)
    tail = _tail_bounds(seq, j_max, _sin2(u_arr))
    if np.ndim(t) == 0:
        return float(value[0]), float(tail[0])
    return value.reshape(np.shape(t)), tail.reshape(np.shape(t))


def reference_function_grid(seq, grid_size, j_max):
    """f (truncated at j_max) and tail bounds on the uniform grid.

    Off the origin the truncated sum collapses to
    (W - C(t)) / (2 sin^2(pi t)) with W = sum d2 and C a cosine polynomial,
    which cosine_poly_grid evaluates on the whole grid; the exact origin
    point, if the grid hits it, is summed directly (F_j(0) = j+1).  The
    term index goes through product_frac, so j_max + 2 <= 2^25.
    """
    G = int(grid_size)
    if G < 2:
        raise ValueError("grid_size must be >= 2")
    j_max = int(j_max)
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    if j_max + 2 > 2 ** 25:  # product_frac's exact range for the term index
        raise ValueError(f"j_max {j_max} is too large: the grid evaluation "
                         "needs j_max + 2 <= 2^25")
    d2 = seq.second_differences(j_max + 1)
    coeffs = np.zeros(j_max + 2)
    coeffs[1:] = d2
    cos_part = 0.5 * cosine_poly_grid(coeffs, G)  # sum_j d2_j cos(2 pi (j+1) t)
    W = float(np.sum(d2))
    u = -0.5 + np.arange(G) / G
    sin2 = _sin2(u)
    at_zero = u == 0.0
    safe = np.where(at_zero, 1.0, 2.0 * sin2)
    values = (W - cos_part) / safe
    if np.any(at_zero):
        j = np.arange(j_max + 1, dtype=float)
        values = np.where(at_zero, float(np.sum((j + 1.0) ** 2 * d2)), values)
    tails = _tail_bounds(seq, j_max, sin2)
    return values, tails


@lru_cache(maxsize=4)
def _cached_second_differences(seq, j_max):
    """seq.second_differences(j_max + 1), shared read-only."""
    d2 = seq.second_differences(j_max + 1)
    d2.setflags(write=False)
    return d2


@dataclass(frozen=True)
class IdentityCheck:
    N: int
    t: float
    lhs: float
    rhs: dict
    diff: dict
    tolerance: float
    matched: tuple
    f_tail_bound: float

    @property
    def matched_variant(self):
        return self.matched[0] if self.matched else None


def residual_identity_check(seq, N, t, j_max=100000):
    """Compare f(t) - S_N(t) against the two summed-by-parts candidates.

    "derived": sum_{j>=N-1} (j+1) d2_j F_j - N (a_{N-1} - a_N) F_{N-1} - a_N D_N
    "alternate": same sum - N F_{N-1} (a_{N-1} - a_{N-2}) + a_N D_N

    Both use the tail sum truncated at j_max.  Mismatch is data: the result
    records per-variant differences and which variants close within the
    combined tail tolerance.
    """
    if N != int(N) or N < 2:
        raise ValueError("N must be an integer >= 2")
    N = int(N)
    j_max = int(j_max)
    if j_max < N + 2:
        raise ValueError("j_max must exceed N")
    u = canonical(t)
    if u == 0.0:
        raise ValueError("t = 0 is excluded (f may diverge there)")

    d2 = _cached_second_differences(seq, j_max)
    u_arr = np.atleast_1d(u)
    head = _sinc_ratio_sq_sum(d2, 0, N - 2, u_arr) if N >= 2 else 0.0
    tail_sum = _sinc_ratio_sq_sum(d2, N - 1, j_max, u_arr)
    f_val = float(head[0] + tail_sum[0])
    f_tail = float(_tail_bounds(seq, j_max, _sin2(u_arr))[0])

    s_val = partial_sum(seq, N, u)
    lhs = f_val - s_val

    a_n = seq.value(N)
    a_nm1 = seq.value(N - 1)
    a_nm2 = seq.value(N - 2)
    f_kernel = fejer_eval(N - 1, u)
    d_kernel = dirichlet_eval(N, u)
    ts = float(tail_sum[0])
    rhs = {
        "derived": ts - N * (a_nm1 - a_n) * f_kernel - a_n * d_kernel,
        "alternate": ts - N * f_kernel * (a_nm1 - a_nm2) + d_kernel * a_n,
    }
    tolerance = 2.0 * f_tail + 1e-8
    diff = {k: abs(lhs - v) for k, v in rhs.items()}
    matched = tuple(k for k in ("derived", "alternate") if diff[k] <= tolerance)
    return IdentityCheck(N=N, t=float(u), lhs=lhs, rhs=rhs, diff=diff,
                         tolerance=tolerance, matched=matched,
                         f_tail_bound=f_tail)


@dataclass(frozen=True)
class UniformConvergenceReport:
    Ns: tuple
    sup_deviations: tuple
    probe_count: int
    max_f_tail_bound: float
    trend_nonincreasing: bool


def uniform_convergence_check(seq, interval, Ns, probe_count=200,
                              j_max=100000, seed=0):
    """sup_t |S_N(t) - f(t)| over probe points in a set away from 0.

    The set must have positive distance from the origin.  Probes are drawn
    uniformly from the set with a seeded generator, so runs are
    reproducible.
    """
    if interval.is_empty:
        raise ValueError("probe set is empty")
    if interval.distance_from_zero() <= 0.0:
        raise ValueError("probe set must have positive distance from 0")
    Ns = [int(n) for n in Ns]
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be strictly increasing")
    rng = np.random.default_rng(seed)
    lengths = np.array([hi - lo for lo, hi in interval.intervals])
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    x = rng.uniform(0.0, cum[-1], int(probe_count))
    idx = np.clip(np.searchsorted(cum, x, side="right") - 1, 0, lengths.size - 1)
    lows = np.array([lo for lo, _ in interval.intervals])
    probes = lows[idx] + (x - cum[idx])

    f_vals, f_tails = fejer_representation(seq, j_max, probes)
    sups = []
    for N in Ns:
        s = cosine_poly_points(seq.values(N + 1), probes)
        sups.append(float(np.max(np.abs(s - f_vals))))
    trend = all(b <= 1.1 * a for a, b in zip(sups, sups[1:])) and sups[-1] <= sups[0]
    return UniformConvergenceReport(Ns=tuple(Ns), sup_deviations=tuple(sups),
                                    probe_count=int(probe_count),
                                    max_f_tail_bound=float(np.max(f_tails)),
                                    trend_nonincreasing=bool(trend))
