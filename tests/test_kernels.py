import fractions
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusl1 import (
    canonical,
    dirichlet_eval,
    fejer_eval,
    dirichlet_oracle,
    dirichlet_oracle_sweep,
    fejer_oracle,
    dirichlet_coefficients,
    fejer_coefficients,
)
from torusl1.kernels import dirichlet_on_cells, product_frac
from torusl1.quadrature import _unit_composite

reals = st.floats(-1e9, 1e9, allow_nan=False, allow_infinity=False)


@given(reals)
def test_canonical_lands_in_half_open_interval(t):
    u = canonical(t)
    assert -0.5 <= u < 0.5


@given(st.floats(-0.5, 0.49999999))
def test_canonical_fixes_points_already_in_range(t):
    assert canonical(t) == t


@given(st.floats(-0.49, 0.49), st.integers(-1000, 1000))
def test_canonical_is_one_periodic(t, k):
    assert canonical(t + k) == pytest.approx(canonical(t), abs=1e-9)


def test_canonical_edges():
    assert canonical(0.5) == -0.5
    assert canonical(-0.5) == -0.5
    assert canonical(1.0) == 0.0
    arr = canonical(np.array([0.5, 1.5, -2.5]))
    assert np.all(arr == -0.5)


@given(st.integers(1, 2 ** 24), st.floats(-0.5, 0.5))
def test_product_frac_matches_exact_rational_arithmetic(n, t):
    # exact reference: n * Fraction(t) reduced mod 1 into [-1/2, 1/2).
    # distance taken on the circle since values near +-1/2 may fold to the
    # opposite representative
    f = fractions.Fraction(t) * n
    f = f - math.floor(f + fractions.Fraction(1, 2))
    got = float(product_frac(float(n), t))
    gap = abs(got - float(f))
    assert min(gap, 1.0 - gap) < 1e-15


@pytest.mark.parametrize("n", [1, 3, 1000, 12345, 2 ** 24 + 1])
def test_product_frac_bound_is_absolute(n):
    # the documented bound, 2^-52 of the exact fractional part, at
    # n * t = -5e-7: the value is reduced through 1 - |n t|, so it keeps
    # that absolute accuracy but not a relative one; +5e-7 keeps both
    for target in (-5e-7, 5e-7):
        t = target / n
        exact = fractions.Fraction(t) * n
        exact -= math.floor(exact + fractions.Fraction(1, 2))
        err = abs(fractions.Fraction(float(product_frac(float(n), t))) - exact)
        assert err <= fractions.Fraction(2) ** -52
        if target > 0:
            assert err <= abs(exact) * fractions.Fraction(2) ** -52


def test_product_frac_rejects_orders_beyond_exact_range():
    for n in (2.0 ** 25, -2.0 ** 25):
        with pytest.raises(ValueError):
            product_frac(np.array([n]), 0.1)
    assert -0.5 <= product_frac(np.array([2.0 ** 25 - 1.0]), 0.1)[0] < 0.5


def test_dirichlet_peak_and_symmetry():
    for N in (1, 2, 7, 64):
        assert dirichlet_eval(N, 0.0) == 2 * N + 1
        ts = np.linspace(0.01, 0.49, 25)
        assert np.allclose(dirichlet_eval(N, ts), dirichlet_eval(N, -ts),
                           rtol=0, atol=1e-12)


def test_fejer_peak_nonnegativity_symmetry():
    ts = np.linspace(-0.5, 0.4999, 201)
    for j in (0, 1, 2, 7, 64):
        vals = fejer_eval(j, ts)
        assert fejer_eval(j, 0.0) == pytest.approx(j + 1, rel=1e-14)
        assert np.all(vals >= -1e-12)
        assert np.allclose(vals, fejer_eval(j, -ts), rtol=0, atol=1e-12)


def test_closed_form_matches_cosine_sum_oracle():
    rng = np.random.default_rng(0)
    ts = rng.uniform(-0.5, 0.5, 10)
    for t in ts:
        sweep = dirichlet_oracle_sweep(512, t)
        direct = np.array([dirichlet_eval(N, t) for N in range(513)])
        assert np.max(np.abs(sweep - direct)) < 1e-11


def test_oracle_sweep_shape_and_row_agreement():
    ts = np.array([0.1, -0.3, 0.47])
    sweep = dirichlet_oracle_sweep(16, ts)
    assert sweep.shape == (17, 3)
    for N in (0, 3, 16):
        assert np.allclose(sweep[N], dirichlet_oracle(N, ts), atol=1e-12)
    assert np.isscalar(dirichlet_oracle(4, 0.2))
    assert dirichlet_oracle_sweep(4, 0.2).shape == (5,)


def test_fejer_is_mean_of_dirichlet():
    rng = np.random.default_rng(1)
    ts = rng.uniform(-0.5, 0.5, 300)
    for j in (1, 2, 7, 33, 64):
        gap = np.abs(fejer_eval(j, ts) - fejer_oracle(j, ts))
        assert gap.max() < 1e-10


def test_coefficient_vectors():
    assert np.all(dirichlet_coefficients(5) == np.ones(6))
    fc = fejer_coefficients(3)
    assert np.allclose(fc, [1.0, 0.75, 0.5, 0.25])
    # weights reproduce the peak: c_0 + 2 sum c_m = kernel value at 0
    assert 1 + 2 * dirichlet_coefficients(7)[1:].sum() == dirichlet_eval(7, 0.0)
    j = 9
    w = fejer_coefficients(j)
    assert w[0] + 2 * w[1:].sum() == pytest.approx(fejer_eval(j, 0.0), rel=1e-14)


@given(st.integers(1, 80), st.floats(-0.5, 0.4999))
def test_dirichlet_closed_form_equals_sum_property(N, t):
    assert dirichlet_eval(N, t) == pytest.approx(dirichlet_oracle(N, t),
                                                 abs=1e-10 * (2 * N + 1))


def test_kernel_cell_edge_zeros():
    # D_N vanishes on the interior lattice k/(2N+1)
    for N in (3, 10, 63):
        L = 2 * N + 1
        k = np.arange(1, L // 2 + 1)
        vals = dirichlet_eval(N, k / L)
        assert np.max(np.abs(vals)) < 1e-9


def test_index_validation():
    with pytest.raises(ValueError):
        dirichlet_eval(-1, 0.1)
    with pytest.raises(ValueError):
        fejer_eval(2.5, 0.1)
    with pytest.raises(ValueError):
        dirichlet_oracle_sweep(-3, 0.1)


_U_R = 2.0 ** -53  # unit roundoff


def _dirichlet_mp(N, k, u):
    """D_N((k + u)/L), L = 2N+1, 0 <= k < L, in mpmath at 40 digits; the
    numerator sin(pi (k + u)) is taken as (-1)^k sin(pi u), since k + u
    at 40 digits would lose a subnormal u."""
    L = 2 * N + 1
    with mpmath.workdps(40):
        u = mpmath.mpf(u)
        if (k, u) in ((0, 0), (L - 1, 1)):
            return mpmath.mpf(L)
        return (-1) ** k * mpmath.sinpi(u) / mpmath.sinpi((k + u) / L)


@pytest.mark.parametrize("N", [0, 1, 7, 1024, 2 ** 17])
def test_dirichlet_on_cells_within_its_rounding_bound(N):
    # the engine's offsets (2 panels of 16 nodes, and 1 of 2), the cell
    # edges and offsets a few ulps from them, against mpmath: the six
    # columns k' = -3..2 round the peak are rounded once from decimals
    # (half an ulp), the others err by at most 10 u_r |D_N| (and 2^-1074 L
    # at subnormal offsets); every bound lies under eps L, the charge of
    # _abs_bound's delta per lattice value
    L = 2 * N + 1
    tiny = 5e-324
    offsets = np.concatenate([
        _unit_composite(2, 16)[0], _unit_composite(1, 2)[0],
        [0.0, tiny, 3 * tiny, 2.0 ** -1022, 2.0 ** -52, 3 * 2.0 ** -52,
         1.0 - 2.0 ** -53, 1.0 - 3 * 2.0 ** -53, 1.0 - 2.0 ** -50, 0.5,
         1.0]])
    rows = dirichlet_on_cells(N, offsets)
    assert rows.shape == (offsets.size, L)
    cols = set(range(min(L, 10))) | set(range(max(L - 10, 0), L))
    cols |= set(range(max(N - 4, 0), min(N + 6, L)))
    cols |= set(np.random.default_rng(N).integers(0, L, 30).tolist())
    for k in sorted(cols):
        kp = k if k <= N else k - L
        for x, got in zip(offsets.tolist(), rows[:, k].tolist()):
            exact = _dirichlet_mp(N, k, x)
            size = abs(exact)
            if -3 <= kp <= 2:  # half an ulp, 2^-1075 below 2^-1022
                bound = _U_R * size * (1 + 1e-20) + mpmath.mpf(2) ** -1075
            else:
                bound = 10 * _U_R * size + mpmath.mpf(2) ** -1074 * L
            assert bound <= 2.0 * _U_R * L, (k, x)
            assert abs(mpmath.mpf(got) - exact) <= bound, (k, x, got)


@pytest.mark.parametrize("N", [1, 7, 1024])
def test_dirichlet_on_cells_signs_round_the_middle(N):
    # L is odd, so past k = N the sign is (-1)^(k - L), not (-1)^k: cell N
    # holds t = 1/2 and has the sign (-1)^N, and its neighbours N - 1 and
    # N + 1, mirror images across t = 1/2, both have the other sign
    rows = dirichlet_on_cells(N, _unit_composite(2, 16)[0])
    s = (-1) ** N
    for k, sign in ((N - 1, -s), (N, s), (N + 1, -s), (N + 2, s))[:2 * N + 1]:
        assert np.all(np.sign(rows[:, k]) == sign), k
