import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from torusl1.coefficients import ConvexSequence
from torusl1.exceptional import build_witness
from torusl1.intervals import IntervalUnion
from torusl1 import quadrature, trigsum
from torusl1.kernels import (
    dirichlet_coefficients,
    fejer_coefficients,
    product_frac,
)
from torusl1.quadrature import (
    _abs_bound,
    _by_columns,
    _certify,
    _decompose,
    _gap_roots,
    _grid_trapezoid,
    _gauss,
    _interpolated,
    _lattice,
    _lebesgue,
    _real_roots,
    _unit_composite,
    NormTrace,
    integrate_cosine_poly,
    integrate_abs_partial_sum,
    integrate_signed,
    residual_l1,
    origin_window_bound,
    norm_trace,
)
from torusl1.partial_sums import partial_sum_grid, reference_function_grid
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


def _antiderivative(coeffs, x):
    """A(x) = c_0 x + sum c_m sin(2 pi m x) / (pi m), summed in mpmath at
    the exact binary value of x; float differences of A would lose about
    1e-14 to cancellation."""
    with mpmath.workdps(40):
        t = mpmath.mpf(x)
        return +(mpmath.mpf(coeffs[0]) * t + mpmath.fsum(
            mpmath.mpf(c) * mpmath.sin(2 * mpmath.pi * m * t) / (mpmath.pi * m)
            for m, c in enumerate(coeffs[1:].tolist(), start=1)))


def _exact_integral(coeffs, E):
    with mpmath.workdps(40):
        return mpmath.fsum(_antiderivative(coeffs, hi) - _antiderivative(coeffs, lo)
                           for lo, hi in E.intervals)


_PI_LD = np.arccos(np.longdouble(-1.0))


def _witness_exact(seq, w):
    """The witness integral of S_n in longdouble, from closed forms.

    The whole cells count as the exact [k/L, (k+1)/L), as the engine reads
    them: they are k = 0, 2, .., 2I - 2 and k = -1, -3, .., 1 - 2J, and
    cos is even, so with 2k + 1 = +-(4i + 1) their antiderivative
    differences sum to c_0 (I + J)/L + sum_m (2 c_m / (pi m)) sin(pi m/L)
    (G(I) + G(J)), G(I) = sum_{i<I} cos(pi m (4i + 1)/L)
    = sin(2 pi m I/L) cos(pi m (2I - 1)/L) / sin(2 pi m/L).  Every angle
    is pi r/L for an integer r reduced mod 2L.  The trim counts at its
    float ends, where frac(m t) is exact for t split into its float32
    part and the rest.
    """
    L = 2 * w.n + 1
    c = seq.values(w.n + 1).astype(np.longdouble)
    m = np.arange(1, w.n + 1)
    ks = sorted(round(lo * L) for lo, _ in w.selected)
    pos, neg = [k for k in ks if k >= 0], [k for k in ks if k < 0]
    I, J = len(pos), len(neg)
    assert pos == list(range(0, 2 * I, 2)) and neg == list(range(1 - 2 * J, 0, 2))

    def angle(r):
        return _PI_LD * (r % (2 * L)).astype(np.longdouble) / L

    def G(count):
        return (np.sin(angle(2 * m * count)) * np.cos(angle(m * (2 * count - 1)))
                / np.sin(angle(2 * m)))

    cells = (c[0] * (I + J) / L
             + np.sum(2 * c[1:] * np.sin(angle(m)) * (G(I) + G(J)) / (_PI_LD * m)))

    def A(t):
        hi = float(np.float32(t))
        frac = (m * np.longdouble(hi)) % 1 + m * np.longdouble(t - hi)
        return c[0] * np.longdouble(t) + np.sum(
            c[1:] * np.sin(2 * _PI_LD * frac) / (_PI_LD * m))

    lo, hi = w.trim
    return cells + A(hi) - A(lo)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="longdouble is no wider than double here")
@pytest.mark.parametrize("family", ["log", "log2", "tail"])
def test_witness_integrals_match_extended_precision(family):
    # every witness of the certificate sweep N0 = 8..256 (n up to 65664,
    # runs of up to 1022 cells) within its bar of the closed form
    seq = {"log": ConvexSequence.log_reciprocal(),
           "log2": ConvexSequence.log_squared_reciprocal(),
           "tail": ConvexSequence((3.0, 2.0, 1.5, 1.2, 1.0), "constant")}[family]
    for N0 in (8, 16, 32, 64, 128, 256):
        w = build_witness(seq, N0, N0)
        ref = _witness_exact(seq, w)
        assert abs(np.longdouble(w.integral) - ref) <= w.integral_error, N0


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
    # one panel per cell: the a priori bound (delta over the uncertified
    # panels) rises above the floor and still covers the distance to the
    # default; at L = _smooth(2N+1) it is 8.5e-13 (N = 512) and 1.09e-12
    # (N = 1024)
    one = integrate_abs_partial_sum(log_seq, N, FULL, panels_per_cell=1)
    assert abs(one.value - two.value) <= one.error_estimate
    assert 7.9e-13 <= one.error_estimate <= 1.16e-12
    assert one.error_estimate > 64.0 * EPS * one.value


@pytest.mark.parametrize("family,N", [("dirichlet", 2 ** 17), ("log", 16384)])
def test_full_torus_bar_is_the_floor(family, N):
    # the a priori bound sits below the floor, so the reported error bars
    # of the README and benchmark full-torus runs are 64 eps * value
    q = integrate_cosine_poly(_family_coeffs(family, N), FULL, 2 * N + 1,
                              absolute=True)
    assert q.error_estimate == 64.0 * EPS * q.value


def _panel_table(rows, wts, L, panels, nodes, delta):
    """Gauss sum, certificate and edge charge (_certify) of every panel in
    three (L, panels) arrays, entry (k, i) for panel i of lattice column
    k: the whole-table oracle for the engine's column-block reduction.
    Only the first ceil(panels/2) panels are computed, a block of columns
    at a time; panel panels-1-i of column k is panel i of column L-1-k
    reversed, and the rest are mirrored."""
    half = (panels + 1) // 2
    w = wts[:half * nodes].reshape(half, nodes)
    h = 0.5 / (panels * L)
    sums = np.empty((L, panels))
    certified = np.empty((L, panels), dtype=bool)
    charge = np.empty((L, panels))
    for c0 in range(0, L, quadrature._COLUMN_BLOCK):
        c1 = min(c0 + quadrature._COLUMN_BLOCK, L)
        vals = np.stack([row[c0:c1] for row in rows[:half * nodes]])
        for i in range(half):
            v = vals[i * nodes:(i + 1) * nodes]
            sums[c0:c1, i] = w[i] @ v
            certified[c0:c1, i], charge[c0:c1, i], _ = _certify(v, delta, h)
    for arr in (sums, certified, charge):
        for i in range(panels // 2):
            arr[:, panels - 1 - i] = arr[::-1, i]
    return sums, certified, charge


def _oracle_abs(coeffs, E, L, panels, nodes):
    """The |.| integral from the whole panel table, read at every full
    cell by a gather of its column k mod L.  Returns (value, error
    estimate, panels)."""
    ranges, pieces = _decompose(E, L)
    full = np.array([k for f0, f1 in ranges for k in range(f0, f1)], dtype=int)
    gauss, delta = _abs_bound(coeffs, L, panels, nodes)
    rows, wts = _lattice(coeffs, L, panels, nodes)
    LP = L * panels
    k, lo, hi = np.array(pieces, dtype=float).reshape(-1, 3).T
    j = (k.astype(int)[:, None] * panels + np.arange(panels)).ravel()
    lo = np.maximum(np.repeat(lo, panels), j / LP)
    hi = np.minimum(np.repeat(hi, panels), (j + 1) / LP)
    keep = lo < hi
    j, lo, hi = j[keep], lo[keep], hi[keep]
    total = edge = 0.0
    definite = 0
    if full.size:
        sums, certified, charge = _panel_table(rows, wts, L, panels, nodes,
                                               delta)
        cols = np.mod(full, L)
        sure = certified[cols]
        total = float(np.abs(sums[cols][sure]).sum())
        edge = float(charge[cols].sum())
        definite = int(np.count_nonzero(sure))
        cell, i = np.nonzero(~sure)
        more = full[cell] * panels + i
        j = np.concatenate([j, more])
        lo = np.concatenate([lo, more / LP])
        hi = np.concatenate([hi, (more + 1) / LP])
    if j.size:
        t, e = _interpolated(rows, j, lo, hi, L, panels, nodes, delta)
        total += t
        edge += e
    cut = math.fsum((hi - lo).tolist())
    bound = definite * gauss + cut * delta + edge
    return total, max(bound, 64.0 * EPS * total) + float(np.finfo(float).tiny), \
        definite + int(j.size)


def _seeded_union(rng, count):
    xs = np.sort(rng.uniform(-0.5, 0.5, 2 * count)).tolist()
    return IntervalUnion(tuple(zip(xs[0::2], xs[1::2])))


def _complement(E):
    """The torus less E, as an IntervalUnion."""
    ends = [-0.5, *(x for piece in E.intervals for x in piece), 0.5]
    return IntervalUnion(tuple((lo, hi) for lo, hi in zip(ends[0::2], ends[1::2])
                               if lo < hi))


# the mirror pair reads each of its columns once directly and once as a
# mirror; "-0.3,0.2" runs its cells across column 0 (cell -k reads column
# L - k), and "-0.5,-0.4;0.35,0.5" holds the cells at both ends of the torus
_REDUCTION_SETS = ("-0.5,-0.45;0.45,0.5", "-0.3,0.2", "-0.5,-0.4;0.35,0.5")


@pytest.mark.parametrize("block", [64, 8192])
def test_block_reduction_matches_panel_table(block, monkeypatch):
    # the column-block reduction over the columns the full cells read
    # against the whole panel table and its gathers: the same panel count,
    # values within the bar and the same bar to rounding, over the full
    # torus, seeded unions, the sets above and a sliver, 1 to 4 panels and
    # 2 to 16 nodes; 64 columns a block splits every set into many blocks
    monkeypatch.setattr(quadrature, "_COLUMN_BLOCK", block)
    rng = np.random.default_rng(block)
    families = ("log", "log2", "dirichlet")
    for nodes in range(2, 17):
        for panels in (1, 2, 3, 4):
            N = int(rng.integers(1, 300))
            coeffs = _family_coeffs(families[(nodes + panels) % 3], N)
            lo = float(rng.uniform(-0.5, 0.49))
            sets = (FULL, _seeded_union(rng, 3),
                    IntervalUnion.parse(_REDUCTION_SETS[nodes % 3]),
                    IntervalUnion(((lo, lo + 10.0 ** rng.uniform(-9, -3)),)))
            for E in sets:
                got = integrate_cosine_poly(coeffs, E, 2 * N + 1, panels,
                                            nodes, absolute=True)
                value, bar, count = _oracle_abs(coeffs, E, 2 * N + 1, panels,
                                                nodes)
                assert got.panels == count, (nodes, panels, N, E)
                assert abs(got.value - value) <= got.error_estimate, \
                    (nodes, panels, N, E)
                assert got.error_estimate == pytest.approx(bar, rel=1e-12)


@pytest.mark.parametrize("family", ["log", "log2", "dirichlet"])
def test_abs_is_additive_over_a_set_and_its_complement(family):
    # integral over A plus integral over the torus less A is the integral
    # over the torus, within the three bars
    rng = np.random.default_rng(("log", "log2", "dirichlet").index(family))
    sets = [IntervalUnion.parse(spec) for spec in _REDUCTION_SETS]
    sets += [_seeded_union(rng, int(rng.integers(1, 5))) for _ in range(6)]
    for A in sets:
        for N in (7, 64, 1024):
            coeffs = _family_coeffs(family, N)
            for panels, nodes in ((2, 16), (1, 5), (3, 8)):
                a, b, whole = (integrate_cosine_poly(coeffs, S, 2 * N + 1,
                                                     panels, nodes,
                                                     absolute=True)
                               for S in (A, _complement(A), FULL))
                assert abs(a.value + b.value - whole.value) <= \
                    a.error_estimate + b.error_estimate + whole.error_estimate, \
                    (A, N, panels, nodes)


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


@pytest.mark.parametrize("cols", [1, 1023, 1024, 1025, 3000])
def test_certificate_products_by_column_slices(cols):
    # _certify's products take 1024 columns at a time, with a last slice
    # of any width; each slice is the whole product's columns
    rng = np.random.default_rng(cols)
    a, b = rng.normal(size=(18, 16)), rng.normal(size=(16, cols))
    got = _by_columns(a, b)
    assert got.shape == (18, cols)
    assert np.allclose(got, a @ b, rtol=1e-14, atol=1e-14)


def test_certificate_slices_keep_the_integral(log_seq, monkeypatch):
    # at N = 2048 the panel tables have L = 4097 columns, four slices of
    # 1024 and one of 1; with one product per call the |.| integral, its
    # bar and its panel count are the same
    E = IntervalUnion.parse("-0.41,-0.37;-0.2,0.05;0.11,0.33")
    sliced = [integrate_abs_partial_sum(log_seq, 2048, S) for S in (FULL, E)]
    monkeypatch.setattr(quadrature, "_CERTIFY_COLUMNS", 2 ** 30)
    whole = [integrate_abs_partial_sum(log_seq, 2048, S) for S in (FULL, E)]
    for a, b in zip(sliced, whole):
        assert a.panels == b.panels
        assert a.value == pytest.approx(b.value, rel=1e-15, abs=0)
        assert a.error_estimate == pytest.approx(b.error_estimate, rel=1e-12)


def _oracle_interpolated(rows, j, lo, hi, L, panels, nodes, delta):
    """Per-panel reference for _interpolated: one legroots and one legval
    per part.  Returns the integral, the parts' Legendre coefficients,
    their certificates and which of them _certify routes to Newton."""
    leg = np.polynomial.legendre
    LP = L * panels
    vals = np.array([[rows[(jj % panels) * nodes + r][(jj // panels) % L]
                      for r in range(nodes)] for jj in j.tolist()])
    coeffs = vals @ _gauss(nodes)[2].T
    certified, _, simple = _certify(vals.T, delta, 0.5 / LP)
    gx, gw, _ = _gauss((nodes + 1) // 2)
    total = 0.0
    for jj, a, b, c, sure in zip(j.tolist(), lo.tolist(), hi.tolist(),
                                 coeffs, certified):
        if a == jj / LP and b == (jj + 1) / LP:
            mid, half = 0.0, 1.0
        else:
            mid = 2.0 * LP * (0.5 * (a + b) - (2 * jj + 1) / (2 * LP))
            half = LP * (b - a)
        r = np.empty(0) if sure else leg.legroots(c)
        r = np.sort(r.real[(r.imag == 0.0) & (np.abs(r.real - mid) < half)])
        cuts = np.concatenate(([mid - half], r, [mid + half]))
        mids = 0.5 * (cuts[1:] + cuts[:-1])
        halves = 0.5 * np.diff(cuts)
        if r.size == 0:
            mids[0], halves[0] = mid, half
        q = leg.legval(mids[:, None] + halves[:, None] * gx, c)
        total += float(np.abs(halves * (q @ gw)).sum()) / (2 * LP)
    return total, coeffs, certified, simple


def _assert_roots_match_legroots(coeffs):
    leg = np.polynomial.legendre
    for c, r in zip(coeffs, _real_roots(coeffs)):
        ref = leg.legroots(c)
        assert np.array_equal(np.sort(r[~np.isnan(r)]),
                              np.sort(ref.real[ref.imag == 0.0])), c


@pytest.fixture
def interpolated_calls(monkeypatch):
    """Record the arguments and integral of every _interpolated call."""
    calls = []
    real = quadrature._interpolated

    def spy(*args):
        out = real(*args)
        calls.append((args, out[0]))
        return out

    monkeypatch.setattr(quadrature, "_interpolated", spy)
    return calls


def _assert_gap_roots_near_legroots(coeffs):
    # Newton's roots in [-1, 1] are legroots' real roots there, each within
    # 8 eps, or within 8 eps sum|c_j| / |q'| where rounding in q moves an
    # ill-conditioned root further: there legroots itself errs by up to
    # 23 eps against 40-digit roots, Newton by 2.5 eps; a zero on a gap end
    # may be found from both its gaps
    leg = np.polynomial.legendre
    for c, r in zip(coeffs, _gap_roots(coeffs)):
        ref = leg.legroots(c)
        ref = np.sort(ref.real[(ref.imag == 0.0) & (np.abs(ref.real) <= 1.0)])
        got = np.unique(r[~np.isnan(r)])
        assert got.size == ref.size, (c, got, ref)
        slope = np.abs(leg.legval(got, leg.legder(c)))
        tol = 8.0 * EPS * np.maximum(1.0, np.abs(c).sum() / slope)
        assert np.all(np.abs(got - ref) <= tol), (c, got, ref)


@pytest.mark.parametrize("family", ["log", "log2", "dirichlet"])
def test_batched_root_step_matches_per_panel_oracle(family, monkeypatch,
                                                    interpolated_calls):
    # full cells, the remnants of a union and a thin sliver at every node
    # count 2..16 and 1, 2 and 4 panels per cell: the stacked eigvals roots
    # of every uncertified part it takes are legroots' bit for bit, the
    # Newton roots of the others lie near legroots' (as above), and each
    # integral over the interpolated parts lies within 0.1 of the bar of
    # the oracle; a small block size splits the parts into many blocks
    monkeypatch.setattr(quadrature, "_COLUMN_BLOCK", 64)
    rng = np.random.default_rng(("log", "log2", "dirichlet").index(family))
    newton = eigen = 0
    for nodes in range(2, 17):
        for panels in (1, 2, 4):
            N = int(rng.integers(1, 200))
            coeffs = _family_coeffs(family, N)
            xs = np.sort(rng.uniform(-0.5, 0.5, 4)).tolist()
            lo = float(rng.uniform(-0.5, 0.49))
            sets = (FULL, IntervalUnion(((xs[0], xs[1]), (xs[2], xs[3]))),
                    IntervalUnion(((lo, lo + 10.0 ** rng.uniform(-12, -6)),)))
            for E in sets:
                interpolated_calls.clear()
                q = integrate_cosine_poly(coeffs, E, 2 * N + 1, panels, nodes,
                                          absolute=True)
                for args, got in interpolated_calls:
                    want, parts, certified, simple = _oracle_interpolated(*args)
                    assert abs(got - want) <= 0.1 * q.error_estimate, \
                        (nodes, panels, N, E)
                    _assert_roots_match_legroots(parts[~certified & ~simple])
                    _assert_gap_roots_near_legroots(parts[~certified & simple])
                    eigen += int(np.count_nonzero(~certified & ~simple))
                    newton += int(np.count_nonzero(~certified & simple))
    assert newton >= 1000 and eigen >= 1000, (newton, eigen)


def test_two_roots_in_one_gap_take_eigvals(monkeypatch):
    # q(s) = s^2 - a^2 on one whole panel of 4 nodes (|x_i| = 0.34, 0.86):
    # both roots lie in the middle gap, which is neither monotone nor
    # clear of zero, so the part goes to the stacked eigvals; the ends of
    # every gap agree in sign, so Newton would bracket no root
    a = 0.1
    x = _gauss(4)[0]
    node_vals = x * x - a * a
    certified, _, simple = _certify(node_vals[:, None], 0.0, 0.5)
    assert not certified[0] and not simple[0]
    assert np.isnan(_gap_roots((_gauss(4)[2] @ node_vals)[None])).all()
    solved = []
    real = quadrature._real_roots
    monkeypatch.setattr(quadrature, "_real_roots",
                        lambda c: solved.append(len(c)) or real(c))
    rows = [np.array([v]) for v in node_vals]
    got = _interpolated(rows, np.array([0]), np.array([0.0]), np.array([1.0]),
                        1, 1, 4, 0.0)[0]
    assert solved == [1]
    # integral over t in [0, 1] of |s^2 - a^2|, s = 2t - 1
    assert got == pytest.approx(1.0 / 3.0 - a * a + 4.0 * a ** 3 / 3.0,
                                rel=4 * EPS)


def test_real_roots_trim_zero_top_coefficients():
    # rows whose top coefficients are exactly 0 drop to a lower degree,
    # down to the closed form of degree 1 and the root-free zero series,
    # inside one stack with untrimmed rows of every degree
    c = np.random.default_rng(6).standard_normal((10, 7))
    c[1, -1] = 0.0
    c[2, -1] = -0.0
    c[3, -3:] = 0.0
    c[4, 2:] = 0.0
    c[5, 1:] = 0.0
    c[6] = 0.0
    _assert_roots_match_legroots(c)
    assert np.isnan(_real_roots(c)[5:7]).all()
    # a part whose node values all vanish: every coefficient is 0
    rows = [np.zeros(1) for _ in range(4)]
    args = (rows, np.array([0]), np.array([0.0]), np.array([1.0]), 1, 1, 4,
            0.0)
    assert quadrature._interpolated(*args)[0] == 0.0
    assert _oracle_interpolated(*args)[0] == 0.0


def test_low_node_union_takes_no_per_panel_root_solve(log_seq, monkeypatch,
                                                      interpolated_calls):
    # at 5 nodes few panels certify; their roots come from stacked
    # eigen-solves, not from one legroots per panel
    E = IntervalUnion(((-0.41, -0.13), (0.02, 0.37)))
    ref = integrate_abs_partial_sum(log_seq, 1024, E)

    def refuse(c):
        raise AssertionError("per-panel legroots")

    monkeypatch.setattr(np.polynomial.legendre, "legroots", refuse)
    q = integrate_abs_partial_sum(log_seq, 1024, E, nodes_per_panel=5)
    assert abs(q.value - ref.value) <= q.error_estimate
    parts = interpolated_calls[-1][0][1]
    assert parts.size >= 1000


def test_nodes_per_panel_limit_checked_before_gauss(monkeypatch):
    # a Gauss rule of n nodes solves an n x n eigenproblem, so 10^5 nodes
    # would allocate 80 GB: the limit must reject it before any rule
    def refuse(n):
        raise AssertionError(f"Gauss rule of {n} nodes")

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_gauss", refuse)
        for nodes in (1, 65, 100000):
            with pytest.raises(ValueError, match="nodes_per_panel"):
                integrate_cosine_poly(np.ones(3), FULL, 5,
                                      nodes_per_panel=nodes, absolute=True)
    top = integrate_cosine_poly(np.ones(3), FULL, 5, nodes_per_panel=64,
                                absolute=True)
    ref = integrate_cosine_poly(np.ones(3), FULL, 5, absolute=True)
    assert abs(top.value - ref.value) <= top.error_estimate + ref.error_estimate


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
    assert len(full) == len(E.intervals)
    assert [k for f0, f1 in full for k in range(f0, f1)] == want_full
    assert partial == want_partial
    # an interval leaves at most one remnant at each end
    assert len(partial) <= 2 * len(E.intervals)


@pytest.mark.parametrize("L", [1, 2, 7, 8, 4097])
def test_decompose_full_torus(L):
    full, partial = _decompose(FULL, L)
    want_full, want_partial = _decompose_per_cell(FULL, L)
    assert [k for f0, f1 in full for k in range(f0, f1)] == want_full
    assert partial == want_partial


def test_empty_set_is_zero(log_seq):
    q = integrate_abs_partial_sum(log_seq, 12, IntervalUnion.empty())
    assert q.value == 0.0 and q.error_estimate == 0.0


def test_trace_entry_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        NormTrace([4, 4], [1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="nonnegative"):
        NormTrace([4], [1.0], [-1.0])
    for N, value, error in (([4, 8], [1.0], [0.0, 0.0]),
                            ([4], [1.0, 2.0], [0.0]),
                            ([4, 8], [1.0, 2.0], [0.0]),
                            (4, 1.0, 0.0)):
        with pytest.raises(ValueError, match="one length"):
            NormTrace(N, value, error)
    with pytest.raises(ValueError):
        norm_trace(ConvexSequence.log_reciprocal(), [8, 4], FULL)
    for Ns in ([4, 8], []):  # an unknown kind is refused with no orders too
        with pytest.raises(ValueError, match="unknown trace kind 'nonsense'"):
            norm_trace(ConvexSequence.log_reciprocal(), Ns, FULL,
                       kind="nonsense")


@pytest.mark.parametrize("absolute", [False, True], ids=["signed", "abs"])
@pytest.mark.parametrize("E", [FULL, IntervalUnion.parse("0.1,0.3;-0.37,-0.2")],
                         ids=["full", "union"])
def test_overflowing_coefficients_are_refused(absolute, E):
    # the head 1e308, 5e307 of a constant-tail sequence at N = 16: the
    # lattice arithmetic overflows, and the cell engine refuses it with a
    # ValueError, without numpy warnings, instead of an infinite integral
    # or a root solve on infinities
    coeffs = ConvexSequence((1e308, 5e307), "constant").values(17)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow float64"):
            integrate_cosine_poly(coeffs, E, 33, absolute=absolute)
    # at 1e150, and at 1e200 and 1e300, where the |.| certificate's
    # delta^2 and the signed rounding term's unscaled norm used to
    # overflow, both integrate finitely
    for scale in (1e-158, 1e-108, 1e-8):
        q = integrate_cosine_poly(coeffs * scale, E, 33, absolute=absolute)
        assert math.isfinite(q.value) and math.isfinite(q.error_estimate)
        assert 0.0 < q.error_estimate < 1e-12 * abs(q.value)


def test_residual_reads_the_public_grid_functions(monkeypatch):
    # S_N and the reference come from the half-grid API that the
    # benchmark's tracer wraps by name: a residual trace builds the
    # reference once and one S_N grid per order, and residual_l1 is the
    # one-order sweep
    calls = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("partial_sum_grid", "reference_function_grid"):
        monkeypatch.setattr(quadrature, name, spy(getattr(quadrature, name)))
    seq = ConvexSequence((3.0, 2.0, 1.0, 0.5), "constant")
    E = IntervalUnion.parse("0.1,0.3")
    norm_trace(seq, [1, 2, 3], E, kind="residual", j_max=50, grid_size=64)
    assert calls == ["reference_function_grid"] + 3 * ["partial_sum_grid"]
    calls.clear()
    residual_l1(seq, 3, E, j_max=50, grid_size=64)
    assert calls == ["reference_function_grid", "partial_sum_grid"]


@pytest.mark.parametrize("G", [4096, 4097])
@pytest.mark.parametrize("seq", [ConvexSequence.log_reciprocal(),
                                 ConvexSequence((3.0, 2.0, 1.5, 1.2, 1.0),
                                                "constant")],
                         ids=["log", "constant"])
def test_residual_trace_is_per_order_residual_l1(seq, G):
    # the sweep gives each order the bits of its own residual_l1 call, on
    # two sets; and an order's bar is the one taken from the whole tail
    # array, although the sweep drops the bounds before the first order
    Ns, j_max = [16, 64, 256], 20000
    for E in (IntervalUnion.parse("-0.4,-0.3;0.1,0.3"),
              IntervalUnion.parse("-0.2,-0.05")):
        trace = norm_trace(seq, Ns, E, kind="residual", j_max=j_max, grid_size=G)
        for N, value, error in zip(Ns, trace.value, trace.error_estimate):
            r = residual_l1(seq, N, E, j_max=j_max, grid_size=G)
            assert (value, error) == (r.value, r.error_estimate)
        f_vals, tails = reference_function_grid(seq, G, j_max)
        res = np.abs(f_vals - partial_sum_grid(seq, 64, G))
        fine = _grid_trapezoid(res, E, G, 1)
        coarse = _grid_trapezoid(res, E, G, 2)[0]
        tail_int = _grid_trapezoid(tails, E, G, 1)[0]
        assert trace.value[1] == fine[0]
        assert trace.error_estimate[1] == (abs(fine[0] - coarse) + tail_int
                                           + fine[1] + 64.0 * EPS * abs(fine[0]))


def test_residual_working_set(monkeypatch):
    # the residual benchmark's log2 sweep (G = 2^22, j_max = 4e6), traced
    # in one trace of two orders.  h = 8 (G/2 + 1) bytes is one half-grid
    # array and B = _BLOCK_BYTES one lattice block (h = B here).  The
    # reference stage, up to the first S_N grid, peaks at 2 h + B in the
    # lattice (the folded coefficients, the half grid, a block) and
    # 3 h + h/8 at the tail bounds (f, sin^2, the bounds, the sin^2 > 0
    # mask); an order holds f, its own half grid and a block.  Holding the
    # lattice rows, a copy of the weights and the tail array took the
    # reference to 4.3 h and an order to 3.1 h + B
    seq = ConvexSequence.log_squared_reciprocal()
    G, j_max = 2 ** 22, 4_000_000
    h, B = 8 * (G // 2 + 1), trigsum._BLOCK_BYTES
    peaks = []

    def staged(*args, **kwargs):
        if not peaks:  # the first order ends the reference stage
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
        return partial_sum_grid(*args, **kwargs)

    monkeypatch.setattr(quadrature, "partial_sum_grid", staged)
    tracemalloc.start()
    try:
        norm_trace(seq, [16, 65536], IntervalUnion.parse("0.1,0.3"),
                   kind="residual", j_max=j_max, grid_size=G)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 2.25 * h + B, peaks
    assert peaks[1] <= 2.1 * h + B, peaks


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


def test_residual_window_bound_constant_tail_at_tiny_eta():
    # the kept sum stops at a constant tail's head, where the second
    # differences end; round(1/(2 eta)) terms at eta = 1e-12 would not fit
    # in memory, and 5e-324 would overflow the order J itself
    seq = ConvexSequence((3.0, 2.0, 1.5, 1.2, 1.0))
    f_peak = 1 * 0.5 + 4 * 0.2 + 9 * 0.1 + 16 * 0.2  # sum (j+1)^2 d2_j
    s_peak = 3.0 + 2.0 * (2.0 + 1.5 + 1.2 + 5 * 1.0)  # a_0 + 2 sum a_n, N = 8
    for eta in (1e-3, 1e-12, 1e-300, 5e-324):
        assert origin_window_bound(seq, 8, eta) == pytest.approx(
            2.0 * eta * (f_peak + s_peak), rel=1e-14)
    E = IntervalUnion.parse("1e-12,0.3")
    assert residual_l1(seq, 8, E, j_max=100).window == (-1e-12, 1e-12)


def test_residual_window_bound_refuses_log_tail_at_tiny_eta(log_seq):
    # a log tail keeps round(1/(2 eta)) + 1 second differences: 3.64 TiB at
    # eta = 1e-12.  More than 2^25 of them are refused before any array is
    # made, and eta = 1e-6 keeps its value bit for bit
    log2_seq = ConvexSequence.log_squared_reciprocal()
    start = time.perf_counter()
    for seq in (log_seq, log2_seq):
        for eta in (1.4e-8, 1e-12, 1e-300, 5e-324):
            with pytest.raises(ValueError, match="2\\^25"):
                origin_window_bound(seq, 8, eta)
    assert time.perf_counter() - start < 0.1
    assert origin_window_bound(log_seq, 8, 1e-6) == 0.0902652232522545
    assert origin_window_bound(log2_seq, 64, 1e-6) == 0.00830241106240374


def test_residual_window_bound_past_first_chunk(log_seq):
    # K + 1 = 2^20 + 3 kept terms: one whole chunk and 3 terms of a second.
    # The chunked sum matches math.fsum of the same products; dropping the
    # second chunk would move it by about 5e-6 relative
    N, K = 8, 2 ** 20 + 2
    eta = 0.5 / K
    d2 = log_seq.second_differences(K + 1)
    j = np.arange(K + 1, dtype=float)
    f_peak = math.fsum((j + 1.0) ** 2 * d2)
    a = log_seq.values(N + 1)
    s_peak = math.fsum(np.concatenate(([a[0]], 2.0 * a[1:])))
    expected = 2.0 * eta * (f_peak + s_peak) + log_seq.weighted_tail_beyond(K)
    assert origin_window_bound(log_seq, N, eta) == pytest.approx(expected, rel=1e-13)


def test_residual_window_bound_memory_at_2_23_terms(log_seq):
    # 2^23 kept second differences are 64 MB as one array, and the whole
    # tail with its temporaries peaked at 268 MB traced; summed in chunks
    # the traced peak stays below 64 MB
    tracemalloc.start()
    try:
        bound = origin_window_bound(log_seq, 8, 0.5 / (2 ** 23 - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    assert 0.0 < bound < origin_window_bound(log_seq, 8, 1e-6)


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


def _unfold(half, G):
    # the whole grid of an even function from its half k = 0..G//2
    i = np.arange(G)
    return half[np.minimum(i, G - i)]


def _assert_trapezoid_matches_gather(G, E):
    # the engine reads the half grid; the oracle gathers from the whole,
    # mirrored grid, at the same indices and in the same order
    half = np.random.default_rng(G).normal(size=G // 2 + 1)
    full = _unfold(half, G)
    for stride in (1, 2):
        got = _grid_trapezoid(half, E, G, stride)
        want = _grid_trapezoid_gather(full, E, G, stride)
        assert got[2] == want[2]
        assert [float(v).hex() for v in got[:2]] == \
            [float(v).hex() for v in want[:2]], stride


@given(_grid_unions())
def test_grid_trapezoid_matches_gather(case):
    _assert_trapezoid_matches_gather(*case)


@pytest.mark.parametrize("G", [64, 65, 4096, 4097])
@pytest.mark.parametrize("pieces", [
    ((-0.1, 0.2),),                        # straddles t = 0
    ((-3.0, 5.0),),                        # straddles 0, ends on the grid
    ((-0.5, 0.5),),                        # the torus: ends at -1/2 and +1/2
    ((0.3, 0.5),),                         # ends at +1/2
    ((-0.5, -0.25), (0.25, 0.5)),          # both halves, mirrored
    ((-0.2, -0.2 + 0.3 / 4096), (0.1, 0.1 + 0.4 / 4096)),   # slivers
    ((-0.2 / 4096, 0.3 / 4096),),          # a sliver at t = 0
    ((0.5 - 0.4 / 4096, 0.5),),            # a sliver at +1/2
    ((-1.0, 1.0), (2.5, 2.5 + 1e-13)),     # one spacing around 0, a sliver
])
def test_grid_trapezoid_half_grid_cases(G, pieces):
    # ends of magnitude >= 1 count grid spacings, so whole ones land on
    # grid points; odd G keeps the stride-2 parity of the full-grid indices
    pieces = tuple((lo / G if abs(lo) >= 1.0 else lo,
                    hi / G if abs(hi) >= 1.0 else hi) for lo, hi in pieces)
    _assert_trapezoid_matches_gather(G, IntervalUnion(pieces))


def _constant_tail_residual(E, G):
    seq = ConvexSequence((3.0, 2.0, 1.0, 0.5), "constant")
    r = residual_l1(seq, 1, E, j_max=50, grid_size=G)
    q = integrate_cosine_poly([-0.5, -0.5, 0.5], E, 5, absolute=True)
    return r, q


def test_residual_straddling_origin_matches_cell_engine():
    # a constant tail makes f a cosine polynomial: f - S_1 has the
    # coefficients a_m - a_inf - [m <= 1] a_m, and the cell engine
    # integrates its |.| with its own bar.  The pieces straddle t = 0, so
    # the half grid is read on both sides of G//2
    for G in (2 ** 12, 2 ** 12 + 1):
        for spec in ("-0.2,0.3", "-0.3,0.2"):
            r, q = _constant_tail_residual(IntervalUnion.parse(spec), G)
            assert abs(r.value - q.value) <= r.error_estimate + q.error_estimate, \
                (G, spec)


@pytest.mark.xfail(strict=True, reason="the residual bar is no bound: on the "
                   "full torus the fine and stride-2 sums agree far more "
                   "closely with each other than with the integral")
@pytest.mark.parametrize("G", [2 ** 12, 2 ** 12 + 1, 2 ** 16])
def test_residual_full_torus_bar_undershoots(G):
    r, q = _constant_tail_residual(FULL, G)
    assert abs(r.value - q.value) <= r.error_estimate + q.error_estimate


@pytest.mark.parametrize("N", [16, 256, 4096])
def test_residual_mirrored_set_agrees(log_seq, N):
    # f and S_N are even, so E and -E have the same residual integral
    pieces = ((-0.45, -0.31), (-0.22, -0.08), (0.03, 0.11), (0.19, 0.27),
              (0.36, 0.47))
    E = IntervalUnion(pieces)
    mirror = IntervalUnion(tuple((-hi, -lo) for lo, hi in reversed(pieces)))
    a = residual_l1(log_seq, N, E)
    b = residual_l1(log_seq, N, mirror)
    assert abs(a.value - b.value) <= min(a.error_estimate, b.error_estimate)


@pytest.mark.parametrize("family", ["log", "log2"])
@pytest.mark.parametrize("nodes", [4, 16])
def test_abs_mirrored_set_agrees(family, nodes):
    # S_N is even, so E and -E have the same |.| integral
    seq = (ConvexSequence.log_reciprocal() if family == "log"
           else ConvexSequence.log_squared_reciprocal())
    pieces = ((-0.45, -0.31), (-0.22, -0.08), (-0.01, 0.11), (0.19, 0.27),
              (0.36, 0.5))
    E = IntervalUnion(pieces)
    mirror = IntervalUnion(tuple((-hi, -lo) for lo, hi in reversed(pieces)))
    for N in 2 ** np.arange(4, 13):
        a = integrate_abs_partial_sum(seq, N, E, nodes_per_panel=nodes)
        b = integrate_abs_partial_sum(seq, N, mirror, nodes_per_panel=nodes)
        assert abs(a.value - b.value) <= min(a.error_estimate,
                                             b.error_estimate), (N, a, b)


def test_power_of_two_scaling_is_exact(log_seq):
    # scaling the coefficients by 2^k scales every rounding step exactly,
    # so values and bars scale exactly; the |.| bar at low node counts
    # carries sum|w_m| outside its exponential for that reason
    E = IntervalUnion.parse("-0.45,-0.3;-0.05,0.02;0.2,0.4")
    near = E.minus_window(1e-3)

    def results(seq, N):
        out = [integrate_abs_partial_sum(seq, N, E, panels, nodes)
               for nodes in (2, 4, 6, 16) for panels in (1, 2, 4)]
        return out + [integrate_signed(seq, N, E), residual_l1(seq, N, near)]

    for N in (16, 256, 1024):
        head = log_seq.values(N + 1)
        unit = results(ConvexSequence(head), N)
        for k in (7, -9, 200, -300, 600):
            f = 2.0 ** k
            got = results(ConvexSequence(head * f), N)
            for u, g in zip(unit, got):
                assert (g.value, g.error_estimate) == \
                    (u.value * f, u.error_estimate * f), (N, k, u, g)


_RULE_SEQUENCES = {
    "log": ConvexSequence.log_reciprocal(),
    "log2": ConvexSequence.log_squared_reciprocal(),
    "tail": ConvexSequence((3.0, 2.0, 1.5, 1.2, 1.0)),
    "one": ConvexSequence((1.0,)),
    "flat-head": ConvexSequence((2.0, 2.0, 2.0)),
}


def _rule_sets(N, seed):
    """The full torus, a seeded union, the mirror pair and a sliver across
    the D_N cell edge nearest 0.3."""
    edge = round(0.3 * (2 * N + 1)) / (2 * N + 1)
    return (FULL, _seeded_union(np.random.default_rng(seed), 3),
            IntervalUnion.parse("-0.5,-0.45;0.45,0.5"),
            IntervalUnion(((edge - 1e-7, edge + 1e-7),)))


@pytest.mark.parametrize("family,aligned", [
    ("log", False), ("log2", False), ("tail", False), ("one", True),
    ("flat-head", True)])
def test_abs_partial_sum_picks_the_lattice(family, aligned):
    # all-equal coefficients (S_N = a_0 D_N, zeros on the cell edges of
    # 2N+1) keep L = 2N+1; any other S_N takes the least 5-smooth L >= 2N+1
    seq = _RULE_SEQUENCES[family]
    for N in (1, 2, 7, 64, 1000, 4096):
        L = 2 * N + 1 if aligned else trigsum._smooth(2 * N + 1)
        for E in _rule_sets(N, N):
            got = integrate_abs_partial_sum(seq, N, E)
            want = integrate_cosine_poly(seq.values(N + 1), E, L,
                                         absolute=True)
            assert got == want, (family, N, E)


@pytest.mark.parametrize("family", ["log", "log2", "tail", "one"])
def test_abs_lattices_agree_within_their_bars(family):
    # 2N+1 and _smooth(2N+1) give the same integral within the sum of their
    # bars; at N = 1, 2 and 7, 2N+1 is 5-smooth already and the two agree
    seq = _RULE_SEQUENCES[family]
    for N in (1, 2, 7, 64, 1000, 4096):
        coeffs = seq.values(N + 1)
        for E in _rule_sets(N, N + 1):
            a, b = (integrate_cosine_poly(coeffs, E, L, absolute=True)
                    for L in (2 * N + 1, trigsum._smooth(2 * N + 1)))
            assert abs(a.value - b.value) <= \
                a.error_estimate + b.error_estimate, (family, N, E, a, b)


@pytest.mark.parametrize("family", ["log", "log2"])
def test_signed_keeps_the_kernel_cells(family):
    # the signed path reads D_n cells (witness sets): L stays 2N+1
    seq = _RULE_SEQUENCES[family]
    for N in (1, 7, 64, 1000, 4096):
        for E in _rule_sets(N, N + 2):
            assert integrate_signed(seq, N, E) == integrate_cosine_poly(
                seq.values(N + 1), E, 2 * N + 1), (family, N, E)


def test_norm_trace_assembly(log_seq):
    tr = norm_trace(log_seq, [4, 8, 16], FULL, kind="abs")
    assert tr.N.tolist() == [4, 8, 16]
    direct = integrate_abs_partial_sum(log_seq, 8, FULL)
    assert tr.value[1] == direct.value
    assert tr.error_estimate[1] == direct.error_estimate
    columns = (tr.N, tr.value, tr.error_estimate)
    assert all(col.shape == (3,) for col in columns)
    for col in columns:
        assert not col.flags.writeable
        with pytest.raises(ValueError):
            col[0] = 1
    # the columns are copies: freezing them leaves the caller's arrays alone
    value = np.array([1.0, 2.0])
    NormTrace([4, 8], value, [0.0, 0.0])
    assert value.flags.writeable


def test_span_is_the_shortest_covering_run():
    assert quadrature._span(np.arange(-3, 8), 11) == (0, 11)
    assert quadrature._span(np.array([5]), 11) == (5, 1)
    # cells -2..1 and 4: the run 9, 10, 0, .., 4 across the seam
    assert quadrature._span(np.array([-2, -1, 0, 1, 4]), 11) == (9, 7)
    # the witness's cells 0, 2, 4 and -1, -3: from -3 mod 13 to 4
    assert quadrature._span(np.array([-3, -1, 0, 2, 4]), 13) == (10, 8)


def test_signed_reads_no_lattice_row(log_seq, monkeypatch):
    # the signed path takes its full cells from the chirp-z run alone
    def refuse(*args):
        raise AssertionError("the signed path evaluated a lattice row")

    monkeypatch.setattr(quadrature, "cosine_poly_on_cells", refuse)
    for E in (FULL, IntervalUnion.parse("-0.45,-0.3;-0.05,0.02;0.2,0.4")):
        q = integrate_signed(log_seq, 64, E)
        assert math.isfinite(q.value) and q.error_estimate > 0.0
    assert build_witness(log_seq, 32, 32).feasible
