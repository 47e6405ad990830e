import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusl1.coefficients import ConvexSequence
from torusl1.exceptional import build_witness
from torusl1.intervals import IntervalUnion
from torusl1.kernels import (
    dirichlet_coefficients,
    fejer_coefficients,
    product_frac,
)
from torusl1.quadrature import (
    _abs_bound,
    _decompose,
    _grid_trapezoid,
    _gauss,
    _lattice,
    _lebesgue,
    _panel_table,
    _unit_composite,
    NormTrace,
    TraceEntry,
    integrate_cosine_poly,
    integrate_abs_partial_sum,
    integrate_signed,
    residual_l1,
    origin_window_bound,
    norm_trace,
)
from torusl1.trigsum import cosine_poly_on_cells, cosine_poly_points

FULL = IntervalUnion.full_torus()
EPS = float(np.finfo(float).eps)


@pytest.fixture(scope="module")
def log_seq():
    return ConvexSequence.log_reciprocal()


def test_order_one_kernel_mass_closed_form():
    # integral of |1 + 2 cos(2 pi t)| over the torus is 1/3 + 2 sqrt(3)/pi
    q = integrate_cosine_poly(dirichlet_coefficients(1), FULL, 3,
                              absolute=True)
    exact = 1.0 / 3.0 + 2.0 * math.sqrt(3.0) / math.pi
    assert q.value == pytest.approx(exact, abs=1e-12)
    assert q.error_estimate < 1e-12


def test_kernel_normalization():
    # signed kernel integrals are exactly the zeroth coefficient
    for N in (1, 2, 7, 64, 511):
        qd = integrate_cosine_poly(dirichlet_coefficients(N), FULL, 2 * N + 1)
        qf = integrate_cosine_poly(fejer_coefficients(N), FULL, N + 1)
        assert qd.value == pytest.approx(1.0, abs=1e-10)
        assert qf.value == pytest.approx(1.0, abs=1e-10)


def test_kernel_mass_growth_table():
    # frozen values of the full-torus mass of |D_N| and its ratio to log N
    table = {
        256: (3.518519858948, 0.634519),
        512: (3.799046588897, 0.608985),
        1024: (4.079770803324, 0.588587),
        2048: (4.360593862026, 0.571910),
        4096: (4.641466368404, 0.558018),
    }
    for N, (mass, ratio) in table.items():
        q = integrate_cosine_poly(dirichlet_coefficients(N), FULL, 2 * N + 1,
                                  absolute=True)
        assert q.value == pytest.approx(mass, abs=1e-9)
        assert q.value / math.log(N) == pytest.approx(ratio, abs=1e-6)


def test_error_estimate_honesty(log_seq):
    E = IntervalUnion.parse("-0.5,-0.2;0.07,0.31")
    for N in (5, 64, 300):
        q2 = integrate_abs_partial_sum(log_seq, N, E, panels_per_cell=2)
        q8 = integrate_abs_partial_sum(log_seq, N, E, panels_per_cell=8)
        assert abs(q2.value - q8.value) <= 4.0 * (q2.error_estimate
                                                  + q8.error_estimate) + 1e-12
    q = integrate_abs_partial_sum(log_seq, 64, FULL)
    assert q.error_estimate <= 1e-6 * q.value
    # full torus at N=512 has cells with interior sign changes
    q = integrate_abs_partial_sum(log_seq, 512, FULL)
    assert q.error_estimate <= 1e-12 * q.value


def _lebesgue_constant(N):
    # Fejer: int |D_N| = 1/L + (2/pi) sum_{k<=N} tan(pi k/L)/k, L = 2N+1;
    # for k > L/4 the tangent is taken as a cotangent of a small argument
    L = 2 * N + 1
    terms = [1.0 / L]
    for k in range(1, N + 1):
        if 4 * k > L:
            t = 1.0 / math.tan(math.pi * (L - 2 * k) / (2 * L))
        else:
            t = math.tan(math.pi * k / L)
        terms.append(2.0 / math.pi * t / k)
    return math.fsum(terms)


@pytest.mark.parametrize("N", [1, 7, 256, 4096, 16384, 65536, 131072])
def test_dirichlet_mass_matches_lebesgue_constant(N):
    q = integrate_cosine_poly(dirichlet_coefficients(N), FULL, 2 * N + 1,
                              absolute=True)
    assert abs(q.value - _lebesgue_constant(N)) <= q.error_estimate


@pytest.mark.parametrize("N", [1024, 2048, 4096, 8192, 16384])
def test_log2_mass_matches_zeroth_coefficient(N):
    # S_N of the log2 family is nonnegative on the torus through
    # N = 16384, so its L1 norm is its mean a_0
    seq = ConvexSequence.log_squared_reciprocal()
    q = integrate_abs_partial_sum(seq, N, FULL)
    assert abs(q.value - seq.values(1)[0]) <= q.error_estimate


@pytest.mark.parametrize("L,panels,nodes", [
    (1, 1, 2), (2, 3, 3), (9, 1, 5), (16, 2, 16), (61, 3, 16),
    (65537, 4, 16)])
def test_lattice_mirrored_rows_match_direct(L, panels, nodes):
    # _lattice evaluates the first ceil(n/2) offsets; row n-1-j must be
    # the row evaluated directly at offset 1/L - x_j
    offs, wts = _unit_composite(panels, nodes)
    n = offs.size
    m = n // 2
    assert np.array_equal(offs[n - m:], 1.0 - offs[m - 1::-1])
    assert np.array_equal(wts[n - m:], wts[m - 1::-1])
    coeffs = np.random.default_rng(L).normal(size=L // 2 + 3)
    rows, row_wts = _lattice(coeffs, L, panels, nodes)
    assert len(rows) == n and np.array_equal(row_wts, wts / L)
    direct = cosine_poly_on_cells(coeffs, L, 1.0 / L - offs[:n // 2] / L)
    bar = 1e-13 * (1.0 + 2.0 * np.abs(coeffs).sum())
    for j in range(n // 2):
        assert np.max(np.abs(rows[n - 1 - j] - direct[j])) <= bar, j


def _signed_exact(coeffs, lo, hi):
    """Closed-form integral of the cosine polynomial over [lo, hi] and a
    bound on its rounding.

    Angles are reduced exactly, so each sine is off by at most 8 eps and
    term m by at most 16 eps |c_m| / (pi m).
    """
    m = np.arange(1, coeffs.size, dtype=float)
    osc = (np.sin(2 * np.pi * product_frac(m, hi))
           - np.sin(2 * np.pi * product_frac(m, lo))) / (np.pi * m)
    value = coeffs[0] * (hi - lo) + float(coeffs[1:] @ osc)
    scale = (abs(coeffs[0]) * (hi - lo)
             + float(np.abs(coeffs[1:]) @ (1.0 / (np.pi * m))))
    return value, 16.0 * EPS * scale


def test_remnant_inside_one_cell(log_seq):
    # a set strictly inside cell k = -32 of L = 81, so there are no full
    # cells; S_40 changes sign twice inside it
    N, L, k = 40, 81, -32
    coeffs = log_seq.values(N + 1)
    lo, hi = (k + 0.1) / L, (k + 0.9) / L
    E = IntervalUnion(((lo, hi),))
    signed = integrate_signed(log_seq, N, E)
    exact, bar = _signed_exact(coeffs, lo, hi)
    assert abs(signed.value - exact) <= signed.error_estimate + bar
    absolute = integrate_abs_partial_sum(log_seq, N, E)
    assert absolute.value >= abs(signed.value)
    # exact |.| integral: split at the roots, bracketed on a scan and
    # located by bisection
    ts = np.linspace(lo, hi, 201)
    vs = cosine_poly_points(coeffs, ts)
    cuts = [lo]
    for i in np.nonzero(vs[:-1] * vs[1:] < 0.0)[0]:
        a, b = ts[i], ts[i + 1]
        for _ in range(60):
            mid = 0.5 * (a + b)
            if cosine_poly_points(coeffs, mid) * vs[i] > 0.0:
                a = mid
            else:
                b = mid
        cuts.append(a)
    cuts.append(hi)
    assert len(cuts) == 4
    parts = [_signed_exact(coeffs, x, y) for x, y in zip(cuts, cuts[1:])]
    exact = sum(abs(v) for v, _ in parts)
    bar = sum(e for _, e in parts)
    assert abs(absolute.value - exact) <= absolute.error_estimate + bar


intervals_strategy = st.lists(
    st.floats(-0.5, 0.5, exclude_max=True), min_size=2, max_size=8,
).map(sorted).filter(
    lambda xs: all(b - a > 1e-3 for a, b in zip(xs, xs[1:]))
)


@given(intervals_strategy, st.integers(2, 40))
def test_additivity_over_disjoint_pieces(xs, N):
    if len(xs) % 2 == 1:
        xs = xs[:-1]
    pieces = list(zip(xs[0::2], xs[1::2]))
    seq = ConvexSequence.log_reciprocal()
    coeffs = seq.values(N + 1)
    whole = integrate_cosine_poly(coeffs, IntervalUnion(tuple(pieces)),
                                  2 * N + 1, absolute=True)
    parts = [integrate_cosine_poly(coeffs, IntervalUnion(((lo, hi),)),
                                   2 * N + 1, absolute=True)
             for lo, hi in pieces]
    total = sum(p.value for p in parts)
    tol = whole.error_estimate + sum(p.error_estimate for p in parts) + 1e-10
    assert abs(whole.value - total) <= tol
    # and |signed| <= absolute
    signed = integrate_cosine_poly(coeffs, IntervalUnion(tuple(pieces)),
                                   2 * N + 1, absolute=False)
    assert abs(signed.value) <= whole.value + tol


_PI_LD = np.arccos(np.longdouble(-1.0))


def _antiderivative(coeffs, x, L=None):
    """A(x) = c_0 x + sum c_m sin(2 pi m x) / (pi m) in extended precision.

    With L given, an end that is the float k/L counts as exactly k/L and
    is summed in longdouble over the integer-reduced angles m k mod L;
    every other end is summed in mpmath at its exact binary value.  Float
    differences of A lose about 1e-14 to cancellation; these do not.
    """
    k = round(x * L) if L else None
    if k is not None and k / L == x:
        m = np.arange(1, coeffs.size)
        r = ((m * k) % L).astype(np.longdouble)
        terms = coeffs[1:] * np.sin(2 * _PI_LD * r / L) / (_PI_LD * m)
        v = np.longdouble(coeffs[0]) * k / L + np.sum(terms)
        hi = float(v)
        return mpmath.mpf(hi) + mpmath.mpf(float(v - np.longdouble(hi)))
    with mpmath.workdps(40):
        t = mpmath.mpf(x)
        return +(mpmath.mpf(coeffs[0]) * t + mpmath.fsum(
            mpmath.mpf(c) * mpmath.sin(2 * mpmath.pi * m * t) / (mpmath.pi * m)
            for m, c in enumerate(coeffs[1:].tolist(), start=1)))


def _exact_integral(coeffs, E, L=None):
    with mpmath.workdps(40):
        return mpmath.fsum(_antiderivative(coeffs, hi, L)
                           - _antiderivative(coeffs, lo, L)
                           for lo, hi in E.intervals)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="longdouble is no wider than double here")
@pytest.mark.parametrize("family", ["log", "log2"])
def test_witness_integrals_match_extended_precision(family):
    seq = (ConvexSequence.log_reciprocal() if family == "log"
           else ConvexSequence.log_squared_reciprocal())
    for N0 in (8, 16, 32, 64):
        w = build_witness(seq, N0, N0)
        ref = _exact_integral(seq.values(w.n + 1), w.Q, 2 * w.n + 1)
        with mpmath.workdps(40):
            assert abs(mpmath.mpf(w.integral) - ref) <= w.integral_error, N0


def _family_coeffs(family, N):
    if family == "dirichlet":
        return dirichlet_coefficients(N)
    seq = (ConvexSequence.log_reciprocal() if family == "log"
           else ConvexSequence.log_squared_reciprocal())
    return seq.values(N + 1)


# thin pieces far from the origin, where converting the ends to cell units
# (lo * L - k) rounds away most of the width; S_N keeps one sign on each,
# so the signed extended-precision reference is the |.| value.  The D_30
# sliver lies near the kernel zero at -11/61, where |D_30| = 0.024 is
# small against sum |w_m| = 61: a bar relative to the value alone misses
# the absolute rounding of the lattice values.
@pytest.mark.parametrize("family,N,lo,hi", [
    ("log", 1, -0.22174763893728844, -0.22174763722122523),
    ("log", 30, -0.18, -0.18 + 4.3e-8),
    ("log2", 30, -0.18015110644468804, -0.18015110644468804 + 4.3e-8),
    ("dirichlet", 30, -0.18039539326738027, -0.18039539326738027 + 4.3e-8),
])
def test_abs_sliver_matches_exact_reference(family, N, lo, hi):
    coeffs = _family_coeffs(family, N)
    E = IntervalUnion(((lo, hi),))
    signs = np.sign(cosine_poly_points(coeffs, np.linspace(lo, hi, 5)))
    assert abs(signs.sum()) == signs.size
    q = integrate_cosine_poly(coeffs, E, 2 * N + 1, absolute=True)
    with mpmath.workdps(40):
        exact = abs(_exact_integral(coeffs, E))
        assert abs(mpmath.mpf(q.value) - exact) <= q.error_estimate


def _edge_slivers(seed, count):
    """Seeded one-sign slivers of width 1e-10..1e-5 within 0.01 cells of a
    sign-cell edge k/L, for D_N and log S_N with N <= 200."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        family = ("dirichlet", "log")[int(rng.integers(2))]
        N = int(rng.integers(1, 201))
        L = 2 * N + 1
        lo = (int(rng.integers(-N, N + 1)) + rng.uniform(-0.01, 0.01)) / L
        hi = lo + 10.0 ** rng.uniform(-10, -5)
        coeffs = _family_coeffs(family, N)
        signs = np.sign(cosine_poly_points(coeffs, np.linspace(lo, hi, 5)))
        if -0.5 <= lo and hi <= 0.5 and abs(signs.sum()) == signs.size:
            out.append((coeffs, L, IntervalUnion(((lo, hi),))))
    return out


def test_abs_slivers_near_cell_edges_match_exact_reference():
    # 19 of these 48 broke a bar made of the relative floor alone (up to
    # 50x); the interpolated rounding term eps sum|w_m| covers them
    for coeffs, L, E in _edge_slivers(2011, 48):
        q = integrate_cosine_poly(coeffs, E, L, absolute=True)
        with mpmath.workdps(40):
            exact = abs(_exact_integral(coeffs, E))
            assert abs(mpmath.mpf(q.value) - exact) <= q.error_estimate, E


# seeds 25, 207, 212 and 291 are sets where the difference of two panel
# counts undershot the true error at 4 or 5 nodes (291: 8x at N = 40)
@pytest.mark.parametrize("seed", [0, 1, 2, 25, 207, 212, 291])
def test_low_node_bar_covers_fine_reference(log_seq, seed):
    rng = np.random.default_rng(seed)
    xs = np.sort(rng.uniform(-0.5, 0.5, 2 * int(rng.integers(1, 4))))
    E = IntervalUnion(tuple(zip(xs[0::2].tolist(), xs[1::2].tolist())))
    N = int(rng.integers(2, 200))
    ref = integrate_abs_partial_sum(log_seq, N, E, panels_per_cell=8,
                                    nodes_per_panel=16)
    for nodes in (4, 5, 6):
        q = integrate_abs_partial_sum(log_seq, N, E, nodes_per_panel=nodes)
        assert abs(q.value - ref.value) <= q.error_estimate, nodes


@pytest.mark.parametrize("N", [512, 1024])
def test_one_panel_per_cell_bar_is_the_floor(log_seq, N):
    # two panels per cell against four: both bars are the floor
    two = integrate_abs_partial_sum(log_seq, N, FULL)
    four = integrate_abs_partial_sum(log_seq, N, FULL, panels_per_cell=4)
    assert abs(two.value - four.value) <= min(two.error_estimate,
                                              four.error_estimate)
    assert two.error_estimate == 64.0 * EPS * two.value
    # one panel per cell: the Gauss bound rises above the floor and still
    # covers the distance to the default
    one = integrate_abs_partial_sum(log_seq, N, FULL, panels_per_cell=1)
    assert abs(one.value - two.value) <= one.error_estimate
    assert 1.7e-12 <= one.error_estimate <= 2.5e-12
    assert one.error_estimate > 64.0 * EPS * one.value


@pytest.mark.parametrize("family,N", [("dirichlet", 2 ** 17), ("log", 16384)])
def test_full_torus_bar_is_the_floor(family, N):
    # the a priori bound sits below the floor, so the reported error bars
    # of the README and benchmark full-torus runs are 64 eps * value
    q = integrate_cosine_poly(_family_coeffs(family, N), FULL, 2 * N + 1,
                              absolute=True)
    assert q.error_estimate == 64.0 * EPS * q.value


def _certified_table(coeffs, L, panels, nodes):
    delta = _abs_bound(coeffs, L, panels, nodes)[1]
    rows, wts = _lattice(coeffs, L, panels, nodes)
    return rows, delta, _panel_table(rows, wts, L, panels, nodes, delta)


@pytest.mark.parametrize("family", ["log", "log2", "dirichlet"])
def test_certified_panels_hold_no_roots(family):
    # a certified panel keeps |q| > delta away from its ends: on a dense
    # grid, |q| <= delta only in a run from a panel end (the kernel zeros
    # on cell edges), and every real root legroots finds in the open panel
    # lies in such a run; checked on up to 100 certified panels per node
    # and panel count
    leg = np.polynomial.legendre
    rng = np.random.default_rng(("log", "log2", "dirichlet").index(family))
    grid = np.linspace(-1.0, 1.0, 257)
    checked = 0
    for nodes in range(4, 17):
        for panels in (1, 2, 4):
            N = int(rng.integers(1, 400))
            rows, delta, (_, ok, _) = _certified_table(
                _family_coeffs(family, N), 2 * N + 1, panels, nodes)
            cols, idx = np.nonzero(ok)
            for t in rng.permutation(cols.size)[:100]:
                i, k = idx[t], cols[t]
                vals = [rows[i * nodes + r][k] for r in range(nodes)]
                c = _gauss(nodes)[2] @ vals
                low = np.abs(leg.legval(grid, c)) <= delta
                ends = (np.logical_and.accumulate(low)
                        | np.logical_and.accumulate(low[::-1])[::-1])
                assert np.array_equal(low, ends), (nodes, panels, N, k, i)
                roots = leg.legroots(c)
                for x in roots.real[(roots.imag == 0.0)
                                    & (np.abs(roots.real) < 1.0)]:
                    zone = np.linspace(np.copysign(1.0, x), x, 9)
                    assert np.abs(leg.legval(zone, c)).max() <= delta, \
                        (nodes, panels, N, k, i, x)
                checked += 1
    assert checked >= 2000


def test_dirichlet_certifies_every_cell_edge_panel():
    # D_N vanishes on every cell edge but the origin's, so at two panels
    # per cell each panel has a zero end; all must certify, and the summed
    # edge charge 8 h delta^2 / m must stay below the roundoff floor
    N = 2 ** 17
    coeffs = dirichlet_coefficients(N)
    _, _, (sums, ok, charge) = _certified_table(coeffs, 2 * N + 1, 2, 16)
    assert ok.all()
    assert charge.sum() < 64.0 * EPS * np.abs(sums).sum()


@pytest.mark.parametrize("n", range(2, 33))
def test_lebesgue_constant_matches_dense_grid(n):
    x = _gauss(n)[0]
    s = np.linspace(-1.0, 1.0, 20001)
    diff = s[:, None] - x[None, :]
    basis = np.ones((s.size, n))
    for i in range(n):
        for j in range(n):
            if j != i:
                basis[:, i] *= diff[:, j] / (x[i] - x[j])
    assert _lebesgue(n) == pytest.approx(np.abs(basis).sum(axis=1).max(),
                                         rel=1e-12)


@st.composite
def _signed_cases(draw):
    """(coeffs, L, union): L = 1, 2, 3 or the sign-cell count 2N + 1; ends
    anywhere, on the lattice k/L, one ulp off it or at +-1/2, and pieces
    from sub-cell slivers to many cells."""
    N = draw(st.integers(0, 40))
    seq = draw(st.sampled_from([ConvexSequence.log_reciprocal(),
                                ConvexSequence.log_squared_reciprocal()]))
    L = draw(st.sampled_from([1, 2, 3, 2 * N + 1]))
    ks = st.integers(-(L // 2), L // 2)
    ends = st.one_of(
        st.floats(-0.5, 0.5),
        ks.map(lambda k: k / L),
        ks.map(lambda k: float(np.nextafter(k / L, 0.0))),
        st.sampled_from([-0.5, 0.5]))
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        a = draw(ends)
        b = draw(st.one_of(ends, st.floats(1e-9, 1.0).map(lambda f: a + f / L)))
        lo, hi = min(a, b), min(max(a, b), 0.5)
        if lo < hi:
            pieces.append((lo, hi))
    kept = []
    for lo, hi in sorted(pieces):
        if not kept or lo >= kept[-1][1]:
            kept.append((lo, hi))
    return seq.values(N + 1), L, IntervalUnion(tuple(kept))


_LOG_SEQ = ConvexSequence.log_reciprocal()


@settings(deadline=None)
@given(_signed_cases())
# one full cell whose integral cancels to 2e-4 of its terms (the FFT term)
@example((_LOG_SEQ.values(18), 35, IntervalUnion(((13 / 35, 14 / 35),))))
# a remnant whose integral cancels to 1e-3 of its terms
@example((_LOG_SEQ.values(12), 23,
          IntervalUnion((((-6 + 0.19) / 23, (-6 + 0.45) / 23),))))
# one-ulp slivers just below a lattice point
@example((_LOG_SEQ.values(19), 37,
          IntervalUnion(((float(np.nextafter(9 / 37, 0.0)), 9 / 37),))))
@example((_LOG_SEQ.values(1), 3,
          IntervalUnion(((float(np.nextafter(1 / 3, 0.0)), 1 / 3),))))
def test_signed_matches_exact_reference(case):
    coeffs, L, E = case
    q = integrate_cosine_poly(coeffs, E, L)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(q.value) - _exact_integral(coeffs, E)) \
            <= q.error_estimate


def _decompose_per_cell(E, L):
    # the per-cell loop _decompose replaced, kept as its oracle
    full = []
    partial = []
    for lo, hi in E.intervals:
        k0 = math.floor(lo * L) - 1
        k1 = math.ceil(hi * L) + 1
        for k in range(k0, k1):
            c_lo = k / L
            c_hi = (k + 1) / L
            p_lo = max(lo, c_lo)
            p_hi = min(hi, c_hi)
            if p_hi - p_lo <= 0.0:
                continue
            if p_lo == c_lo and p_hi == c_hi:
                full.append(k)
            else:
                partial.append((k, p_lo, p_hi))
    return full, partial


# offsets from a lattice point, in cell units: on it, 0.5e-9 to 1.5e-9
# off it, one ulp-scale nudge, or anywhere in a cell
_near_lattice = st.one_of(
    st.sampled_from([0.0, 1e-9, -1e-9, 5e-10, -5e-10, 1.5e-9, -1.5e-9,
                     1e-13, -1e-13]),
    st.floats(-1.0, 1.0),
)


@st.composite
def _lattice_unions(draw):
    """(L, union) with L up to 2^21 + 1 and ends on or near k / L.

    Pieces span at most max_cells cells, so the per-cell oracle stays cheap
    at large L; small L draws wide pieces as well.
    """
    L = draw(st.one_of(st.integers(1, 64), st.integers(1, 2 ** 21 + 1)))
    max_cells = min(L, 64)
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.integers(-(L // 2) - 1, L // 2))
        span = draw(st.integers(0, max_cells))
        lo = min(max((k + draw(_near_lattice)) / L, -0.5), 0.5)
        hi = min(max((k + span + draw(_near_lattice)) / L, -0.5), 0.5)
        if lo < hi:
            pieces.append((lo, hi))
    kept = []
    for lo, hi in sorted(pieces):
        if not kept or lo >= kept[-1][1]:
            kept.append((lo, hi))
    return L, IntervalUnion(tuple(kept))


@given(_lattice_unions())
def test_decompose_matches_per_cell_loop(case):
    L, E = case
    full, partial = _decompose(E, L)
    want_full, want_partial = _decompose_per_cell(E, L)
    assert full.tolist() == want_full
    assert partial == want_partial
    # an interval leaves at most one remnant at each end
    assert len(partial) <= 2 * len(E.intervals)


@pytest.mark.parametrize("L", [1, 2, 7, 8, 4097])
def test_decompose_full_torus(L):
    full, partial = _decompose(FULL, L)
    want_full, want_partial = _decompose_per_cell(FULL, L)
    assert full.tolist() == want_full
    assert partial == want_partial


def test_empty_set_is_zero(log_seq):
    q = integrate_abs_partial_sum(log_seq, 12, IntervalUnion.empty())
    assert q.value == 0.0 and q.error_estimate == 0.0


def test_trace_entry_validation():
    with pytest.raises(ValueError):
        NormTrace((TraceEntry(4, 1.0, 0.0), TraceEntry(4, 1.0, 0.0)))
    with pytest.raises(ValueError):
        NormTrace((TraceEntry(4, 1.0, -1.0),))
    with pytest.raises(ValueError):
        norm_trace(ConvexSequence.log_reciprocal(), [8, 4], FULL)
    with pytest.raises(ValueError):
        norm_trace(ConvexSequence.log_reciprocal(), [4, 8], FULL,
                   kind="nonsense")


def test_residual_constant_tail_exact():
    # constant tail makes f a trig polynomial: S_N recovers it to roundoff
    seq = ConvexSequence((3.0, 2.0, 1.0, 1e-9), "constant")
    r = residual_l1(seq, 3, FULL, j_max=2000)
    assert r.value <= 1e-8
    assert r.value == pytest.approx(1.7792393740034992e-09, rel=1e-6)


def test_residual_rejects_grid_below_nyquist():
    seq = ConvexSequence((3.0, 2.0, 1.0, 1e-9), "constant")
    for N, G in ((8, 16), (9, 17), (64, 100)):
        with pytest.raises(ValueError, match="below Nyquist"):
            residual_l1(seq, N, FULL, j_max=2000, grid_size=G)
        # the highest order the grid still resolves is accepted
        residual_l1(seq, (G - 1) // 2, FULL, j_max=2000, grid_size=G)


def test_residual_refuses_origin_when_tail_diverges(log_seq):
    with pytest.raises(ValueError, match="exclude a window"):
        residual_l1(log_seq, 8, FULL)
    with pytest.raises(ValueError, match="narrower than the grid"):
        residual_l1(log_seq, 8, FULL.minus_window(1e-9))


def test_residual_window_bound_frozen(log_seq):
    assert origin_window_bound(log_seq, 64, 1e-3) == pytest.approx(
        0.35836941404375544, rel=1e-12)
    assert origin_window_bound(log_seq, 64, 0.0) == 0.0


def test_residual_window_bound_dominates_brute_mass(log_seq):
    # the closed-form window bound must sit above a direct Riemann estimate
    # of the actual residual mass inside the window
    eta = 1e-3
    N = 64
    from torusl1.partial_sums import fejer_representation, partial_sum
    ts = np.linspace(-eta, eta, 4001)
    ts = ts[ts != 0.0]
    f_vals, _ = fejer_representation(log_seq, 30000, ts)
    s_vals = np.array([partial_sum(log_seq, N, t) for t in ts])
    riemann = np.mean(np.abs(f_vals - s_vals)) * 2.0 * eta
    assert riemann <= origin_window_bound(log_seq, N, eta)


def test_residual_error_honesty(log_seq):
    E = FULL.minus_window(1e-3)
    a = residual_l1(log_seq, 32, E, grid_size=2**15)
    b = residual_l1(log_seq, 32, E, grid_size=2**16)
    assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate
    assert a.window == (-1e-3, 1e-3)
    assert a.excluded_bound == pytest.approx(
        origin_window_bound(log_seq, 32, 1e-3), rel=1e-12)


def _grid_trapezoid_gather(y, E, G, stride):
    # the index-gathering loop _grid_trapezoid replaced, kept as its oracle
    h = stride / G
    total = 0.0
    sliver = 0.0
    used = 0
    for lo, hi in E.intervals:
        pos_lo = (lo + 0.5) * G
        pos_hi = (hi + 0.5) * G
        i_lo = int(math.ceil(pos_lo - 1e-9))
        i_hi = int(math.floor(pos_hi + 1e-9))
        i_lo = ((i_lo + stride - 1) // stride) * stride
        i_hi = (i_hi // stride) * stride
        if i_lo > i_hi:
            mid = y[int(round(0.5 * (pos_lo + pos_hi))) % G]
            patch = (hi - lo) * float(mid)
            total += patch
            sliver += abs(patch)
            continue
        idx = np.arange(i_lo, i_hi + 1, stride)
        yy = y[idx % G]
        used += idx.size
        if idx.size > 1:
            total += h * (float(yy.sum()) - 0.5 * float(yy[0] + yy[-1]))
        w1 = max(i_lo - pos_lo, 0.0) / G
        w2 = max(pos_hi - i_hi, 0.0) / G
        patch = w1 * float(yy[0]) + w2 * float(yy[-1])
        total += patch
        sliver += abs(patch)
    return total, sliver, used


@st.composite
def _grid_unions(draw):
    """(G, union): ends on grid points (including +-1/2), near them, or
    anywhere; widths below one spacing, a whole number of spacings, or any."""
    G = draw(st.one_of(st.integers(16, 64), st.integers(16, 2 ** 16 + 1)))
    pieces = []
    for _ in range(draw(st.integers(1, 6))):
        start = draw(st.one_of(
            st.integers(0, G).map(lambda i: i / G - 0.5),
            st.sampled_from([-0.5, 0.5]),
            st.floats(-0.5, 0.5)))
        width = draw(st.one_of(
            st.floats(1e-6, 0.999).map(lambda f: f / G),
            st.integers(1, 64).map(lambda k: k / G),
            st.floats(0.0, 1.0)))
        lo = min(max(start + draw(st.sampled_from([0.0, 1e-12, -1e-12])), -0.5), 0.5)
        hi = min(lo + width, 0.5)
        if lo < hi:
            pieces.append((lo, hi))
    kept = []
    for lo, hi in sorted(pieces):
        if not kept or lo >= kept[-1][1]:
            kept.append((lo, hi))
    return G, IntervalUnion(tuple(kept))


@given(_grid_unions())
def test_grid_trapezoid_matches_gather(case):
    G, E = case
    y = np.random.default_rng(G).normal(size=G)
    for stride in (1, 2):
        got = _grid_trapezoid(y, E, G, stride)
        want = _grid_trapezoid_gather(y, E, G, stride)
        assert got[2] == want[2]
        assert [float(v).hex() for v in got[:2]] == \
            [float(v).hex() for v in want[:2]], stride


def test_norm_trace_assembly(log_seq):
    tr = norm_trace(log_seq, [4, 8, 16], FULL, kind="abs")
    assert [e.N for e in tr.entries] == [4, 8, 16]
    direct = integrate_abs_partial_sum(log_seq, 8, FULL)
    assert tr.entries[1].value == direct.value
    assert np.array_equal(tr.values(), [e.value for e in tr.entries])
    assert np.array_equal(tr.Ns(), [4, 8, 16])
