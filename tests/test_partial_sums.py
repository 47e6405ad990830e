import tracemalloc

import numpy as np
import pytest

from torusl1.coefficients import ConvexSequence
from torusl1.kernels import dirichlet_eval
from torusl1 import partial_sums, trigsum
from torusl1.intervals import IntervalUnion
from torusl1.trigsum import cosine_poly_grid
from torusl1.partial_sums import (
    _cached_second_differences,
    partial_sum,
    partial_sum_grid,
    fejer_representation,
    reference_function_grid,
    residual_identity_check,
    uniform_convergence_check,
)


@pytest.fixture(scope="module")
def log_seq():
    return ConvexSequence.log_reciprocal()


@pytest.fixture(scope="module")
def log2_seq():
    return ConvexSequence.log_squared_reciprocal()


def test_partial_sum_value_at_zero(log_seq):
    # a_0 + 2 (a_1 + a_2) with the slow-decay head values
    assert partial_sum(log_seq, 2, 0.0) == pytest.approx(9.34329846149332,
                                                         abs=1e-11)
    direct = log_seq.value(0) + 2.0 * (log_seq.value(1) + log_seq.value(2))
    assert partial_sum(log_seq, 2, 0.0) == pytest.approx(direct, abs=1e-12)


def test_partial_sum_periodicity(log_seq):
    for t in (0.13, -0.49, 0.25):
        assert partial_sum(log_seq, 17, t) == pytest.approx(
            partial_sum(log_seq, 17, t + 3.0), abs=1e-10)


def _unfold(half, G):
    # the whole grid of an even function from its half k = 0..G//2
    i = np.arange(G)
    return half[np.minimum(i, G - i)]


def test_grid_matches_pointwise(log_seq):
    # the grid is the half k = 0..G//2
    rng = np.random.default_rng(11)
    G = 8192
    for N in (3, 64, 511, 1024, 4096):
        g = partial_sum_grid(log_seq, N, G)
        assert g.shape == (G // 2 + 1,)
        ks = rng.integers(0, G // 2 + 1, 40)
        tv = -0.5 + ks / G
        pv = np.array([partial_sum(log_seq, N, x) for x in tv])
        assert np.max(np.abs(pv - g[ks])) < 1e-9


def test_representation_tail_honesty(log_seq, log2_seq):
    ts = np.array([0.05, -0.31, 0.25, 0.499])
    for seq in (log_seq, log2_seq):
        v1, tail1 = fejer_representation(seq, 2000, ts)
        v2, tail2 = fejer_representation(seq, 100000, ts)
        assert np.all(np.abs(v1 - v2) <= tail1 + tail2 + 1e-12)
        assert np.all(tail2 <= tail1 + 1e-15)


def test_representation_origin_tail(log_seq, log2_seq):
    # both log-decay families have divergent weighted squared tails, so
    # the origin tail bound is infinite; a constant tail truncates exactly
    for seq in (log_seq, log2_seq):
        val, tail = fejer_representation(seq, 1000, 0.0)
        assert np.isfinite(val)
        assert np.isinf(tail)
    const = ConvexSequence((3.0, 2.0, 1.0, 1.0), "constant")
    val, tail = fejer_representation(const, 1000, 0.0)
    assert val == pytest.approx(4.0, abs=1e-12)
    assert tail == 0.0


@pytest.mark.parametrize("G, J", [(4096, 5000), (4096, 3 * 4096 + 5),
                                  (4097, 3 * 4097 + 5)])
def test_reference_grid_matches_representation(log_seq, log2_seq, G, J):
    # the half k = 0..G//2: points up to t = 0 and the mirrors of the
    # whole grid's points G - 1096 = 3000 and above; past 3 G terms the
    # fold's signs over several periods, even and odd, and its doubled
    # bin 0 meet the independent _fejer_sum
    for seq in (log_seq, log2_seq):
        vals, tails = reference_function_grid(seq, G, J)
        assert vals.shape == tails.shape == (G // 2 + 1,)
        ts = -0.5 + np.arange(G // 2 + 1) / G
        pick = np.r_[0:8, G // 2 - 3:G // 2 + 1, 100, 1000, 1096]
        v2, t2 = fejer_representation(seq, J, ts[pick])
        rel = np.abs(vals[pick] - v2) / np.maximum(1.0, np.abs(v2))
        assert np.max(rel) < 1e-9
        assert np.allclose(tails[pick][np.isfinite(t2)],
                           t2[np.isfinite(t2)], rtol=1e-12, atol=0)
        if G % 2 == 0:  # an even grid ends at t = 0
            assert vals[G // 2] == pytest.approx(
                fejer_representation(seq, J, 0.0)[0], rel=1e-12)


def _dense_reference(seq, G, j_max):
    # the whole-vector reference the chunked one replaced, kept as its
    # oracle: all j_max + 1 second differences in one coefficient vector
    # and one grid call
    coeffs = np.zeros(j_max + 2)
    d2 = coeffs[1:]
    d2[:] = seq.second_differences(j_max + 1)
    W = float(np.sum(d2))
    m2 = np.arange(1, j_max + 2, dtype=float)
    m2 *= m2
    m2 *= d2
    at_zero = float(np.sum(m2))
    values = cosine_poly_grid(coeffs, G)
    values *= 0.5
    np.subtract(W, values, out=values)
    values *= 0.5
    sin2 = np.sin(np.pi * (-0.5 + np.arange(values.size) / G)) ** 2
    if G % 2:
        values /= sin2
    else:
        values[:-1] /= sin2[:-1]
        values[-1] = at_zero
    return values


_CONSTANT_TAIL = ConvexSequence((3.0, 2.0, 1.5, 1.2, 1.0), "constant")


@pytest.mark.parametrize("seq, G, j_max", [
    (ConvexSequence.log_reciprocal(), 16, 100000),
    (ConvexSequence.log_reciprocal(), 4097, 100000),
    (ConvexSequence.log_squared_reciprocal(), 2 ** 16, 100000),
    (_CONSTANT_TAIL, 2 ** 16, 100000),
    (_CONSTANT_TAIL, 4097, 3000),
], ids=["log-16", "log-4097", "log2-65536", "constant-65536", "constant-4097"])
def test_chunked_reference_is_the_dense_one(seq, G, j_max):
    # up to one chunk of 2^20 second differences, folding them onto the
    # grid's bins as they come gives the whole vector's bits: many
    # periods of G = 16, odd G, and the README and CI grids
    vals, _ = reference_function_grid(seq, G, j_max)
    assert np.array_equal(vals, _dense_reference(seq, G, j_max))


@pytest.mark.parametrize("G", [2 ** 16, 65537])
def test_chunked_reference_across_chunks(log_seq, G):
    # j_max + 1 = 2^21 + 6 terms are three chunks, whose sums W and
    # f(0) add chunk by chunk; off the origin window the values agree
    # with the dense ones within rounding, for even and odd G
    J = 2 ** 21 + 5
    vals, _ = reference_function_grid(log_seq, G, J)
    want = _dense_reference(log_seq, G, J)
    far = np.abs(-0.5 + np.arange(vals.size) / G) >= 1e-3
    assert np.allclose(vals[far], want[far], rtol=1e-12, atol=0)
    if G % 2 == 0:
        assert vals[-1] == pytest.approx(want[-1], rel=1e-12)


def test_reference_working_set(log2_seq):
    # the residual benchmark's log2 reference, 4e6 second differences on a
    # grid of 2^22 points: built whole, with lattice rows of 2^21, it
    # peaked at 165 MB traced, and with the rows of 2^19 gathered whole at
    # 72 MB.  With h = 8 (G/2 + 1) bytes per half-grid array and one
    # lattice block of B = _BLOCK_BYTES, it peaks at 2 h + B in the lattice
    # (folded coefficients, half grid, block) and 3 h + h/8 at the tail
    # bounds (f, sin^2, bounds, mask), within 2.25 h + B = 54.5 MB
    G, J = 2 ** 22, 4_000_000
    h = 8 * (G // 2 + 1)
    tracemalloc.start()
    try:
        vals, tails = reference_function_grid(log2_seq, G, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * h + trigsum._BLOCK_BYTES
    assert vals.shape == tails.shape == (G // 2 + 1,)
    far = np.abs(-0.5 + np.arange(vals.size) / G) >= 1e-3
    assert np.all(vals[far] > 0.0) and np.all(np.isfinite(tails[far]))


@pytest.mark.parametrize("evaluate", [
    lambda seq, j_max: reference_function_grid(seq, 16, j_max),
    lambda seq, j_max: fejer_representation(seq, j_max, 0.2),
    lambda seq, j_max: residual_identity_check(seq, 8, 0.2, j_max),
], ids=["grid", "representation", "identity"])
def test_j_max_beyond_exact_range_is_refused(evaluate):
    # the top term index j_max + 1 goes through product_frac, exact below
    # 2^25: j_max = 2^25 - 1 is refused before anything is built, and
    # 2^25 - 2 passes the check and reaches the second differences, whole
    # or a chunk at a time (the grid reference)
    class Reached(Exception):
        pass

    class Probe:
        def second_differences(self, count):
            raise Reached(count)

        def _second_difference_chunks(self, count):
            raise Reached(count)

    with pytest.raises(ValueError, match="j_max 33554431"):
        evaluate(Probe(), 2 ** 25 - 1)
    with pytest.raises(Reached):
        evaluate(Probe(), 2 ** 25 - 2)


def _sinc_form(d2, j_lo, j_hi, u, chunk=512):
    # the per-term sinc sum _fejer_sum replaced, kept as its oracle
    u = np.atleast_1d(np.asarray(u, dtype=float))
    acc = np.zeros_like(u)
    for lo in range(j_lo, j_hi + 1, chunk):
        j = np.arange(lo, min(lo + chunk, j_hi + 1), dtype=float)
        s = (j[:, None] + 1.0) * np.sinc((j[:, None] + 1.0) * u[None, :])
        acc += d2[lo: lo + j.size] @ (s * s)
    return acc / np.sinc(u) ** 2


def test_fejer_sum_matches_sinc_form(log_seq, monkeypatch):
    # the window grid of test_residual_window_bound_dominates_brute_mass
    ts = np.linspace(-1e-3, 1e-3, 4001)
    ts = ts[ts != 0.0]
    value, _ = fejer_representation(log_seq, 30000, ts)
    rng = np.random.default_rng(2024)
    draws = [(int(rng.integers(2, 65)), float(rng.uniform(0.05, 0.45)))
             for _ in range(50)]
    checks = [residual_identity_check(log_seq, N, t) for N, t in draws]

    monkeypatch.setattr(partial_sums, "_fejer_sum", _sinc_form)
    old_value, _ = fejer_representation(log_seq, 30000, ts)
    assert np.max(np.abs(value - old_value) / old_value) <= 1e-13
    for (N, t), chk in zip(draws, checks):
        old = residual_identity_check(log_seq, N, t)
        assert chk.lhs == pytest.approx(old.lhs, rel=1e-13, abs=0)
        assert chk.matched == old.matched == ("derived",)


@pytest.mark.parametrize("u", [0.0, 1e-12, 1e-7, -1e-7, 1e-4, 3e-3, 0.05,
                               0.2, -0.3, 0.4999])
def test_fejer_sum_against_mpmath(log_seq, log2_seq, u):
    mpmath = pytest.importorskip("mpmath")
    J = 2000
    with mpmath.workdps(40):
        uu = mpmath.mpf(u)
        for seq in (log_seq, log2_seq):
            d2 = [mpmath.mpf(float(x)) for x in seq.second_differences(J + 1)]
            if u == 0.0:
                exact = mpmath.fsum(d * (j + 1) ** 2 for j, d in enumerate(d2))
            else:
                exact = mpmath.fsum(d * mpmath.sin(mpmath.pi * (j + 1) * uu) ** 2
                                    for j, d in enumerate(d2))
                exact /= mpmath.sin(mpmath.pi * uu) ** 2
            value, _ = fejer_representation(seq, J, u)
            assert abs(value - exact) <= 1e-15 * exact


def test_identity_seeded_pairs(log_seq):
    rng = np.random.default_rng(7)
    for _ in range(10):
        N = int(rng.integers(2, 65))
        t = float(rng.uniform(0.05, 0.45))
        chk = residual_identity_check(log_seq, N, t, j_max=20000)
        assert "derived" in chk.matched
        assert "alternate" not in chk.matched
        assert chk.matched_variant == "derived"
        assert chk.diff["derived"] <= chk.tolerance


def test_identity_shares_read_only_second_differences(log_seq):
    first = residual_identity_check(log_seq, 8, 0.2, j_max=5000)
    d2 = _cached_second_differences(log_seq, 5000)
    assert not d2.flags.writeable
    assert np.array_equal(d2, log_seq.second_differences(5001))
    # a second check reuses the same array and gives the same result
    assert residual_identity_check(log_seq, 8, 0.2, j_max=5000) == first
    assert _cached_second_differences(log_seq, 5000) is d2


def test_identity_exact_for_constant_tail():
    seq = ConvexSequence((4.0, 3.0, 2.0, 1.0, 1.0), "constant")
    for N in (4, 7, 20):
        chk = residual_identity_check(seq, N, 0.2, j_max=500)
        # tail vanishes, so f - S_N collapses to -a_N D_N exactly
        assert chk.f_tail_bound == 0.0
        assert chk.diff["derived"] < 1e-10
        assert chk.rhs["derived"] == pytest.approx(chk.lhs, abs=1e-10)


def test_identity_tolerance_scales_with_the_head():
    # the head 3, 2, 1.5, 1.2, 1 with a constant tail, as is and times 1e7,
    # at the draws of `identity --samples 20 --seed 0`: "derived" closes at
    # every point on both scales (an absolute 1e-8 let 4 of 20 through at
    # 1e7), while "alternate" and "derived" with its a_N D_N term off by
    # one part in 10^6 fail at every point on both scales
    head = np.array([3.0, 2.0, 1.5, 1.2, 1.0])
    for scale in (1.0, 1e7):
        seq = ConvexSequence(tuple(head * scale), "constant")
        rng = np.random.default_rng(0)
        for _ in range(20):
            N = int(rng.integers(2, 65))
            t = float(rng.uniform(0.05, 0.45))
            chk = residual_identity_check(seq, N, t)
            assert chk.matched == ("derived",), (scale, N, t)
            wrong = chk.rhs["derived"] - 1e-6 * seq.value(N) * dirichlet_eval(N, t)
            assert abs(chk.lhs - wrong) > chk.tolerance, (scale, N, t)
        # at unit scale the rounding term stays under the 1e-8 floor
        if scale == 1.0:
            assert chk.tolerance == 2.0 * chk.f_tail_bound + 1e-8


def test_tail_bounds_in_one_output_array(log2_seq):
    # _tail_bounds at G = 2^22 keeps the bits of the three-temporary form
    # and peaks at two half-grid arrays (its output and the sin^2 > 0 mask,
    # within them), not five
    G = 2 ** 22
    sin2 = partial_sums._sin2(-0.5 + np.arange(G // 2 + 1) / G)
    seq = ConvexSequence((3.0, 2.0, 1.5, 1.2, 1.0), "constant")
    for s, j_max in ((log2_seq, 4000000), (seq, 3)):
        tracemalloc.start()
        try:
            tails = partial_sums._tail_bounds(s, j_max, sin2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * sin2.nbytes
        with np.errstate(divide="ignore"):
            off = np.where(sin2 > 0.0, s.first_difference(j_max + 1)
                           / np.where(sin2 > 0.0, sin2, 1.0), np.inf)
        assert np.array_equal(tails, np.minimum(s.squared_weighted_tail_beyond(j_max), off))


def test_identity_validation(log_seq):
    with pytest.raises(ValueError):
        residual_identity_check(log_seq, 1, 0.2)
    with pytest.raises(ValueError):
        residual_identity_check(log_seq, 8, 0.0)
    with pytest.raises(ValueError):
        residual_identity_check(log_seq, 8, 0.2, j_max=6)


def test_coefficient_recovery_from_reference(log_seq):
    # integrating the truncated reference against cos(2 pi n t) returns
    # a_n shifted by a constant determined by the truncation order; the
    # shift formula and the n-independence of the leftover grid error are
    # both tested here.  The mean runs over the whole period, unfolded
    # from the half grid
    J, G = 100000, 2**16
    half, _ = reference_function_grid(log_seq, G, J)
    grid = _unfold(half, G)
    ts = -0.5 + np.arange(G) / G
    aJ1 = log_seq.value(J + 1)
    dJ1 = log_seq.first_difference(J + 1)
    errs = []
    for n in (1, 5, 17, 32):
        c_n = float(np.mean(grid * np.cos(2.0 * np.pi * n * ts)))
        offset = aJ1 + (J + 1 - n) * dJ1
        errs.append(c_n + offset - log_seq.value(n))
    errs = np.array(errs)
    assert np.max(np.abs(errs)) <= 5e-3
    assert np.max(errs) - np.min(errs) <= 1e-6


def test_restricted_sup_trends(log_seq, log2_seq):
    Ns = [2**k for k in range(4, 13)]
    E = IntervalUnion.parse("0.1,0.4")
    rep_slow = uniform_convergence_check(log_seq, E, Ns)
    rep_fast = uniform_convergence_check(log2_seq, E, Ns)
    assert rep_slow.trend_nonincreasing
    assert rep_fast.trend_nonincreasing
    assert rep_slow.sup_deviations[0] == pytest.approx(1.08555, abs=5e-5)
    assert rep_slow.sup_deviations[-1] == pytest.approx(0.36793, abs=5e-5)
    assert rep_fast.sup_deviations[-1] == pytest.approx(0.04423, abs=5e-5)
    # the fast family converges uniformly much sooner
    for a, b in zip(rep_fast.sup_deviations, rep_slow.sup_deviations):
        assert a < b
    assert rep_fast.sup_deviations[-1] <= 0.05
    assert rep_slow.sup_deviations[-1] > 0.05


def test_restricted_sup_reproducible(log_seq):
    E = IntervalUnion.parse("0.1,0.2;0.3,0.4")
    a = uniform_convergence_check(log_seq, E, [16, 64], probe_count=50, seed=3)
    b = uniform_convergence_check(log_seq, E, [16, 64], probe_count=50, seed=3)
    assert a.sup_deviations == b.sup_deviations
    c = uniform_convergence_check(log_seq, E, [16, 64], probe_count=50, seed=4)
    assert c.sup_deviations != a.sup_deviations


def test_restricted_sup_validation(log_seq):
    Ns = [16, 64]
    with pytest.raises(ValueError):
        uniform_convergence_check(log_seq, IntervalUnion.parse("-0.01,0.01"), Ns)
    with pytest.raises(ValueError):
        uniform_convergence_check(log_seq, IntervalUnion.parse("0.1,0.2"), [64, 16])
    # no probes: a message of its own, not numpy's empty or negative array
    for count in (0, -3):
        with pytest.raises(ValueError, match=f"probe_count must be >= 1, got {count}"):
            uniform_convergence_check(log_seq, IntervalUnion.parse("0.1,0.2"), Ns,
                                      probe_count=count)


@pytest.mark.parametrize("name", ["log", "log2", "log-tail", "constant-tail"])
def test_restricted_sup_within_abel_bound(name, tmp_path):
    # sup |f - S_N| on a set at distance d from 0 is at most 2 a_{N+1} /
    # sin(pi d) for nonincreasing a_n with a limit >= 0; the probes see f
    # truncated at j_max, so they may add its tail bound
    files = {"log-tail": "3\n2\nlog_reciprocal\n",
             "constant-tail": "3\n2\n1.5\n1.2\n1\nconstant\n"}
    if name in files:
        path = tmp_path / "seq.txt"
        path.write_text(files[name])
        seq = ConvexSequence.from_file(path)
    else:
        seq = (ConvexSequence.log_reciprocal() if name == "log"
               else ConvexSequence.log_squared_reciprocal())
    Ns = [16, 64, 256, 1024, 4096]
    rep = uniform_convergence_check(seq, IntervalUnion.parse("0.1,0.4"), Ns,
                                    probe_count=10 ** 4)
    bounds = [2.0 * seq.value(N + 1) / np.sin(0.1 * np.pi) for N in Ns]
    assert rep.abel_bounds == pytest.approx(bounds, rel=1e-15)
    for sup, bound in zip(rep.sup_deviations, rep.abel_bounds):
        assert sup <= bound + rep.max_f_tail_bound, (sup, bound)
