"""Dirichlet and Fejer kernels on the unit torus.

Conventions: the torus is identified with [-1/2, 1/2) carrying normalized
measure, characters are e^{2*pi*i*n*t}, and

    D_N(t) = sin((2N+1) pi t) / sin(pi t),      D_N(0) = 2N+1,
    F_j(t) = (1/(j+1)) (sin((j+1) pi t) / sin(pi t))^2,   F_j(0) = j+1,

so that both kernels integrate to 1.  Closed forms are evaluated through
numpy's sinc, which makes the removable singularities exact without a
branch.  The *_oracle functions are independent slow sums used as
cross-checks; they reduce each angle n*t mod 1 with an exact split
product so agreement stays near machine level up to N ~ 1e4.
product_frac, that split product, also serves the evaluators of trigsum
and partial_sums, and check_index the order checks of partial_sums and
quadrature; neither is exported.
"""

import numpy as np

__all__ = [
    "canonical",
    "dirichlet_eval",
    "fejer_eval",
    "dirichlet_oracle",
    "fejer_oracle",
    "dirichlet_oracle_sweep",
    "dirichlet_coefficients",
    "fejer_coefficients",
]

_SPLIT = 2.0 ** 27 + 1.0  # Dekker split constant for doubles
_N_LIMIT = 2.0 ** 25  # product_frac's n * t_hi stays exact below this


def canonical(t):
    """Reduce t mod 1 into the interval [-1/2, 1/2).

    Accepts scalars or arrays; returns a float for scalar input.
    """
    t = np.asarray(t, dtype=float)
    out = t - np.floor(t + 0.5)
    # rounding in t + 0.5 can push the result onto either edge
    out = np.where(out >= 0.5, out - 1.0, out)
    out = np.where(out < -0.5, out + 1.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def product_frac(n, t):
    """Fractional part of n*t folded into [-1/2, 1/2), with n a small integer.

    The product is formed from a hi/lo split of t so that n*t_hi is exact
    for n below 2^25; for |t| <= 1 the returned value is then within
    2^-52, one ulp of 1, of the exact fractional part, even when n*t itself
    is large.  That bound is absolute, not relative to the result: a small
    negative product is reduced through 1 - |n*t|, so n*t = -5e-7 comes
    back with a relative error near 1e-10.  A caller that needs relative
    accuracy near 0 must fold the sign first, as _fejer_sum does.
    Broadcasts over arrays, and ends in canonical, so scalars give a float.
    Raises ValueError when some |n| >= 2^25.
    """
    n = np.asarray(n, dtype=float)
    if n.size and float(np.max(np.abs(n))) >= _N_LIMIT:
        raise ValueError("product_frac is exact only for |n| < 2^25")
    t = np.asarray(t, dtype=float)
    s = t * _SPLIT
    hi = s - (s - t)
    lo = t - hi
    f = (n * hi) - np.floor(n * hi)  # exact: n*hi fits in a double
    return canonical(f + n * lo)


def check_index(n, name):
    """n as an int, or ValueError unless it is a nonnegative integer."""
    if n != int(n) or n < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
    return int(n)


def dirichlet_eval(N, t):
    """Closed-form Dirichlet kernel D_N(t); exact 2N+1 at t = 0."""
    N = check_index(N, "N")
    u = np.asarray(canonical(t))
    m = 2 * N + 1
    val = m * np.sinc(m * u) / np.sinc(u)
    if val.ndim == 0:
        return float(val)
    return val


def fejer_eval(j, t):
    """Closed-form Fejer kernel F_j(t); nonnegative, exact j+1 at t = 0."""
    j = check_index(j, "j")
    u = np.asarray(canonical(t))
    r = np.sinc((j + 1) * u) / np.sinc(u)
    val = (j + 1) * r * r
    if val.ndim == 0:
        return float(val)
    return val


def dirichlet_oracle(N, t):
    """Slow cross-check: D_N(t) = 1 + 2 sum_{n<=N} cos(2 pi n t)."""
    N = check_index(N, "N")
    u = np.asarray(canonical(t), dtype=float)
    if N == 0:
        out = np.ones_like(u)
        return float(out) if out.ndim == 0 else out
    n = np.arange(1, N + 1, dtype=float)
    fr = product_frac(n.reshape((-1,) + (1,) * u.ndim), u)
    out = 1.0 + 2.0 * np.cos(2.0 * np.pi * fr).sum(axis=0)
    if out.ndim == 0:
        return float(out)
    return out


def dirichlet_oracle_sweep(N_max, t):
    """Cosine-sum oracle for every order 0..N_max at once.

    Returns an array of shape (N_max+1,) + shape(t); row N holds D_N(t).
    Same sum as dirichlet_oracle, accumulated cumulatively.
    """
    N_max = check_index(N_max, "N_max")
    u = np.atleast_1d(np.asarray(canonical(t), dtype=float))
    n = np.arange(1, N_max + 1, dtype=float)
    fr = product_frac(n[:, None], u[None, :])
    terms = 2.0 * np.cos(2.0 * np.pi * fr)
    out = np.empty((N_max + 1, u.size))
    out[0] = 1.0
    if N_max > 0:
        out[1:] = 1.0 + np.cumsum(terms, axis=0)
    return out.reshape((N_max + 1,) + np.shape(t))


def fejer_oracle(j, t):
    """Slow cross-check: F_j = mean of D_0..D_j (standard identity)."""
    j = check_index(j, "j")
    u = np.atleast_1d(np.asarray(canonical(t), dtype=float))
    acc = np.zeros_like(u)
    for k in range(j + 1):
        acc += dirichlet_eval(k, u)
    out = acc / (j + 1)
    if np.ndim(t) == 0:
        return float(out[0])
    return out.reshape(np.shape(t))


def dirichlet_coefficients(N):
    """Cosine coefficients c of D_N: D_N(t) = c_0 + sum 2 c_m cos(2 pi m t)."""
    N = check_index(N, "N")
    return np.ones(N + 1)


def fejer_coefficients(j):
    """Cosine coefficients of F_j: triangular weights 1 - m/(j+1)."""
    j = check_index(j, "j")
    m = np.arange(j + 1, dtype=float)
    return 1.0 - m / (j + 1)
