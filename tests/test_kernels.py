import fractions
import math

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
from torusl1.kernels import product_frac

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
