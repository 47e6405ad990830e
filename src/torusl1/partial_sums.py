"""Partial sums S_N, the reference function, and the residual identity.

The reference function f attached to a coefficient sequence is the
nonnegative-kernel representation

    f(t) = sum_{j>=0} (j+1) (a_j + a_{j+2} - 2 a_{j+1}) F_j(t),

truncated at a caller-chosen order with a rigorous per-point tail bound
(min of a global weighted-tail sum and the off-origin envelope
d a_{J+1} / sin^2(pi t)).  Its terms are nonnegative and the bounds hold
because every ConvexSequence is nonincreasing and convex: the constructor
enforces it.  f is never obtained as a limit of S_M, which need not
converge in L1.  At points, each term (j+1) F_j(t) is
sin^2(pi (j+1) t) / sin^2(pi t), and the sum over j is three matrix
products of split angle tables with a table of the d2 (_fejer_sum); on a
uniform grid it is a cosine polynomial (reference_function_grid).  f and
S_N are even, so the grid functions return only the half grid t <= 0,
k = 0..G//2, as trigsum.cosine_poly_grid does.  The reference reads the
d2 a chunk of 2^20 at a time and folds each onto the grid's G//2 + 1
bins, so its working set follows G and the lattice budget, not j_max;
the grid arithmetic then runs in place on the half grid, with the
folded vector freed first.  The term index goes through product_frac,
so j_max + 2 <= 2^25.

residual_identity_check probes the twice-summed-by-parts form of
f - S_N in two index variants ("derived" and "alternate"); which variant
closes numerically is data reported to the caller, not an assumption.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import (canonical, check_index, dirichlet_eval, fejer_eval,
                      product_frac)
from .trigsum import _fold_to_grid, cosine_poly_grid, cosine_poly_points

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

# values per work array in _fejer_sum: (Q + B) x points
_SUM_BLOCK = 2 ** 16
_EPS = float(np.finfo(float).eps)


def partial_sum(seq, N, t):
    """S_N(t) = a_0 + 2 sum_{n<=N} a_n cos(2 pi n t)."""
    N = check_index(N, "N")
    return cosine_poly_points(seq.values(N + 1), canonical(t))


def partial_sum_grid(seq, N, grid_size):
    """S_N at t_k = -1/2 + k/grid_size for k = 0..grid_size//2.

    This is the half t_k <= 0 of the uniform grid (trigsum.cosine_poly_grid);
    S_N is even, so the whole grid is g[G-k] = g[k].
    """
    N = check_index(N, "N")
    return cosine_poly_grid(seq.values(N + 1), grid_size)


def _check_term_range(j_max):
    """The top term index j_max + 1 goes through product_frac, exact below
    2^25; refuse larger orders before anything is built."""
    if j_max + 2 > 2 ** 25:
        raise ValueError(f"j_max {j_max} is too large: the term index "
                         "j_max + 1 needs j_max + 2 <= 2^25")


def _fejer_sum(d2, j_lo, j_hi, u):
    """sum_{j=j_lo}^{j_hi} d2[j] * sin^2(pi m u) / sin^2(pi u), m = j + 1.

    Each term equals (j+1) * d2[j] * F_j(u); at u = 0 the ratio is m^2.
    With m = m0 + qB + r, B = ceil(sqrt(M)) for M terms, the angle pi m |u|
    splits into a_q = pi (m0 + qB) |u| and b_r = pi r |u|, each reduced mod
    pi by product_frac (the split-table idea of trigsum._phases), and

        sin^2(a + b) = s_a^2 c_b^2 + 2 s_a c_a s_b c_b + c_a^2 s_b^2.

    So for S points the numerator is three products of S x B tables of the
    b-parts with the B x Q table of d2 (one stacked matrix product), each
    weighted by an S x Q table of a-parts and summed over q: about three
    multiply-adds per term and 2 sqrt(M) sines and cosines per point.  The
    constructor keeps every sequence convex, so d2 >= 0, and while both
    angles lie below pi/2 all three parts are nonnegative, so small u keeps
    its relative accuracy.
    Points are taken in chunks so that the work arrays hold about
    _SUM_BLOCK values, whatever M and S.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    size = j_hi - j_lo + 1
    B = math.isqrt(size - 1) + 1
    Q = -(-size // B)
    table = np.zeros(Q * B)
    table[:size] = d2[j_lo:j_hi + 1]
    table = table.reshape(Q, B).T
    r = np.arange(B, dtype=float)
    heads = j_lo + 1 + B * np.arange(Q, dtype=float)
    out = np.empty_like(u)
    step = max(1, _SUM_BLOCK // (Q + B))
    for i in range(0, u.size, step):
        # the sum is even in u; product_frac keeps relative accuracy for
        # small products only when they are nonnegative
        x = np.abs(u[i:i + step])[:, None]
        n = x.shape[0]
        b = np.pi * product_frac(r, x)
        sb, cb = np.sin(b), np.cos(b)
        parts = np.vstack((cb * cb, sb * cb, sb * sb)) @ table
        a = np.pi * product_frac(heads, x)
        sa, ca = np.sin(a), np.cos(a)
        # rows are contiguous, so the sum over q is pairwise
        out[i:i + n] = np.sum(sa * sa * parts[:n] + 2.0 * sa * ca * parts[n:2 * n]
                              + ca * ca * parts[2 * n:], axis=1)
    at_zero = u == 0.0
    if np.any(at_zero):
        m = np.arange(j_lo + 1, j_hi + 2, dtype=float)
        out[at_zero] = np.dot(m * m, d2[j_lo:j_hi + 1])
    return out / np.where(at_zero, 1.0, _sin2(u))


def _sin2(u, out=None):
    """sin^2(pi u) for an array u, into out if given (which may be u)."""
    out = np.multiply(np.pi, u, out=out)
    np.sin(out, out=out)
    return np.square(out, out=out)


def _tail_bounds(seq, j_max, sin2):
    """Per-point rigorous bound on the dropped tail beyond j_max, given
    sin^2(pi u) at the points, for the nonincreasing convex sequences the
    constructor enforces: the off-origin envelope divided into one
    inf-filled array where sin^2 > 0, then the global bound in place, so
    the points take one output array and one mask."""
    out = np.full(np.shape(sin2), np.inf)
    np.divide(seq.first_difference(j_max + 1), sin2, out=out, where=sin2 > 0.0)
    return np.minimum(out, seq.squared_weighted_tail_beyond(j_max), out=out)


def fejer_representation(seq, j_max, t):
    """Truncated kernel representation of f with a rigorous tail bound.

    Returns (value, tail_bound); arrays in, arrays out.  tail_bound is +inf
    where neither the global nor the off-origin bound is finite (only at
    t = 0 for sequences whose weighted tail diverges).  The value is
    _fejer_sum's three-product sum; j_max + 2 must not exceed 2^25.
    """
    j_max = int(j_max)
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    _check_term_range(j_max)
    u = canonical(t)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    d2 = seq.second_differences(j_max + 1)
    value = _fejer_sum(d2, 0, j_max, u_arr)
    tail = _tail_bounds(seq, j_max, _sin2(u_arr))
    if np.ndim(t) == 0:
        return float(value[0]), float(tail[0])
    return value.reshape(np.shape(t)), tail.reshape(np.shape(t))


def reference_function_grid(seq, grid_size, j_max):
    """f (truncated at j_max) and tail bounds on the half grid k = 0..G//2.

    The points are t_k = -1/2 + k/grid_size <= 0; both are even, so the
    whole grid is g[G-k] = g[k].  Off the origin the truncated sum
    collapses to (W - C(t)) / (2 sin^2(pi t)) with W = sum d2 and C the
    cosine polynomial with c_m = d2_{m-1}, which trigsum.cosine_poly_grid
    reads off the lattice.  The d2 are read a chunk at a time
    (ConvexSequence._second_difference_chunks): each chunk adds to W and,
    for an even G, to sum (j+1)^2 d2 = f(0), since F_j(0) = j+1 and an
    even G ends at t = 0; then it is folded onto the grid's bins G//2 + 1
    (trigsum._fold_to_grid) and freed.  So no array of j_max terms is
    built, and up to one chunk the values are those of the whole vector
    bit for bit.  The grid arithmetic then runs in place on the half
    grid, and sin^2(pi t_k) is built in place in one more, so with the
    tail bounds and their mask the last stage holds about 3 1/8 half-grid
    arrays.  The term index goes through product_frac, so
    j_max + 2 <= 2^25.
    """
    G = int(grid_size)
    if G < 2:
        raise ValueError("grid_size must be >= 2")
    j_max = int(j_max)
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    _check_term_range(j_max)
    sums = [0.0, 0.0]  # W = sum d2_j and, for even G, sum (j+1)^2 d2_j

    def terms():
        yield np.zeros(1)  # c_0
        for lo, d2 in seq._second_difference_chunks(j_max + 1):
            sums[0] += float(np.sum(d2))
            if G % 2 == 0:
                m2 = np.arange(lo + 1, lo + d2.size + 1, dtype=float)
                m2 *= m2
                m2 *= d2
                sums[1] += float(np.sum(m2))
                del m2
            yield d2
            del d2

    coeffs = _fold_to_grid(terms(), j_max + 2, G)
    values = cosine_poly_grid(coeffs, G)
    del coeffs
    W, at_zero = sums
    values *= 0.5  # sum_j d2_j cos(2 pi (j+1) t)
    np.subtract(W, values, out=values)
    values *= 0.5
    sin2 = np.arange(values.size, dtype=float)  # sin^2(pi t_k), in place
    sin2 /= G
    sin2 -= 0.5  # t_k
    _sin2(sin2, out=sin2)
    if G % 2:
        values /= sin2
    else:
        values[:-1] /= sin2[:-1]
        values[-1] = at_zero
    return values, _tail_bounds(seq, j_max, sin2)


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

    Both use the tail sum truncated at j_max, and f(t) is the head
    j < N - 1 plus that tail, each summed by _fejer_sum's three matrix
    products; j_max + 2 must not exceed 2^25.  Mismatch is data: the result
    records per-variant differences and which variants close within the
    tolerance: twice the tail bound plus a rounding term, 64 eps times
    the magnitudes both sides sum, at least 1e-8.  t must be finite and
    must not reduce to 0.
    """
    if N != int(N) or N < 2:
        raise ValueError("N must be an integer >= 2")
    N = int(N)
    j_max = int(j_max)
    if j_max < N + 2:
        raise ValueError("j_max must exceed N")
    _check_term_range(j_max)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t!r}")
    u = canonical(t)
    if u == 0.0:
        raise ValueError("t = 0 is excluded (f may diverge there)")

    d2 = _cached_second_differences(seq, j_max)
    u_arr = np.atleast_1d(u)
    head = _fejer_sum(d2, 0, N - 2, u_arr)
    tail_sum = _fejer_sum(d2, N - 1, j_max, u_arr)
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
    # the rounding of both sides, 64 eps times the magnitudes they sum: f
    # (nonnegative terms), S_N's weights and the kernel terms.  It scales
    # with the sequence; at unit scale it lies far below the 1e-8 floor
    w = seq.values(N + 1)
    size = (abs(f_val) + abs(ts) + 2.0 * float(np.abs(w).sum()) - abs(float(w[0]))
            + N * f_kernel * (abs(a_nm1 - a_n) + abs(a_nm1 - a_nm2))
            + abs(a_n * d_kernel))
    tolerance = 2.0 * f_tail + max(1e-8, 64.0 * _EPS * size)
    diff = {k: abs(lhs - v) for k, v in rhs.items()}
    matched = tuple(k for k in ("derived", "alternate") if diff[k] <= tolerance)
    return IdentityCheck(N=N, t=float(u), lhs=lhs, rhs=rhs, diff=diff,
                         tolerance=tolerance, matched=matched,
                         f_tail_bound=f_tail)


@dataclass(frozen=True)
class UniformConvergenceReport:
    Ns: tuple
    sup_deviations: tuple
    abel_bounds: tuple
    probe_count: int
    max_f_tail_bound: float
    trend_nonincreasing: bool


def uniform_convergence_check(seq, interval, Ns, probe_count=200,
                              j_max=100000, seed=0):
    """sup_t |S_N(t) - f(t)| over probe points in a set away from 0.

    The set must have positive distance d from the origin.  Probes are drawn
    uniformly from the set with a seeded generator, so runs are
    reproducible.  Beside each probe maximum stands the bound over the
    whole set, 2 a_{N+1} / sin(pi d): summed by parts, f - S_N is
    sum_{n>N} (a_n - a_{n+1}) D_n - a_{N+1} D_N, |D_n| <= 1 / sin(pi d) on
    the set, and the a_n are nonincreasing to a limit c >= 0 (the
    constructor enforces it).  The probes compare S_N with f truncated at
    j_max, so they may exceed it by max_f_tail_bound.
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
    sin_d = math.sin(math.pi * interval.distance_from_zero())
    sups = []
    for N in Ns:
        s = cosine_poly_points(seq.values(N + 1), probes)
        sups.append(float(np.max(np.abs(s - f_vals))))
    trend = all(b <= 1.1 * a for a, b in zip(sups, sups[1:])) and sups[-1] <= sups[0]
    return UniformConvergenceReport(Ns=tuple(Ns), sup_deviations=tuple(sups),
                                    abel_bounds=tuple(2.0 * seq.value(N + 1) / sin_d
                                                      for N in Ns),
                                    probe_count=int(probe_count),
                                    max_f_tail_bound=float(np.max(f_tails)),
                                    trend_nonincreasing=bool(trend))
