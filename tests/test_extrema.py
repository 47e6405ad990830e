import dataclasses
import math

import numpy as np
import pytest

from torusl1.extrema import _interior, crossing_check, find_extrema, growth_sweep
from torusl1.kernels import dirichlet_eval


def test_row_count_and_endpoints():
    for N in (1, 2, 5, 16, 101):
        table = find_extrema(N)
        assert len(table.t) == N + 1
        assert (table.t[0], table.height[0]) == (0.0, 2 * N + 1)
        assert table.c[0] == pytest.approx((2 * N + 1) / N, rel=1e-15)
        assert table.t[-1] == 0.5
        assert table.height[-1] == (-1.0) ** N
        assert table.c[-1] == pytest.approx(1.0 / N, rel=1e-15)


def test_columns_are_read_only_and_of_one_length():
    for N in (1, 2, 16):
        table = find_extrema(N)
        columns = (table.t, table.height, table.c, table.crossings)
        assert all(col.shape == (N + 1,) for col in columns)
        for col in columns:
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.t = np.zeros(N + 1)


def test_interior_signs_alternate_and_heights_decay():
    table = find_extrema(12)
    heights = table.height
    # interior extremum k carries sign (-1)^k
    for k, h in enumerate(heights[1:-1], start=1):
        assert math.copysign(1.0, h) == (-1.0) ** k
    mags = np.abs(heights)
    assert np.all(np.diff(mags) < 0.0)


def test_extrema_interleave_envelope_points():
    for N in (2, 7, 30):
        table = find_extrema(N)
        locs = table.t
        cross = table.crossings
        assert cross.size == N + 1
        for i in range(N):
            assert locs[i] < cross[i] < locs[i + 1]
        assert cross[-1] > locs[-1] - 0.5 / (2 * N + 1)


def test_interior_locations_match_dense_scan():
    N = 5
    table = find_extrema(N)
    L = 2 * N + 1
    for k in range(1, N):
        ts = np.linspace(k / L, (k + 1) / L, 200001)
        vals = (-1.0) ** k * dirichlet_eval(N, ts)
        t_scan = ts[int(np.argmax(vals))]
        assert abs(table.t[k] - t_scan) < 1e-5
        # scanned height can only be lower or equal
        assert (-1.0) ** k * table.height[k] >= np.max(vals) - 1e-9


def test_stationarity_at_interior_extrema():
    N = 9
    table = find_extrema(N)
    for t in table.t[1:-1]:
        h = 1e-6
        centered = (dirichlet_eval(N, t + h)
                    - dirichlet_eval(N, t - h)) / (2 * h)
        assert abs(centered) < 1e-3 * (2 * N + 1)


def test_envelope_identity_and_sandwich():
    for N in (1, 2, 3, 8, 21, 64):
        rep = crossing_check(find_extrema(N))
        assert rep.max_product_error <= 1e-12
        assert rep.sandwich_ok
        assert rep.violations == ()


def test_sandwich_violations_of_swapped_heights():
    # a table with two interior heights swapped breaks the sandwich at both
    # rows; the report must name the same rows as a plain loop does
    N = 12
    table = find_extrema(N)
    swap = np.arange(N + 1)
    swap[[2, 6]] = swap[[6, 2]]
    crafted = dataclasses.replace(table, height=table.height[swap],
                                  c=table.c[swap])
    h = np.abs(crafted.height)
    vals = np.abs(dirichlet_eval(N, crafted.crossings))
    expected = tuple(i + 1 for i in range(N)
                     if not (h[i + 1] < vals[i] < h[i]))
    rep = crossing_check(crafted)
    assert expected == (3, 6)
    assert rep.violations == expected
    assert all(type(i) is int for i in rep.violations)
    assert not rep.sandwich_ok


def test_interior_locations_match_mpmath_roots():
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 40

    def root(N, k, t):
        # the root of phi(s) = L cos(pi s) sin(pi t) - sin(pi s) cos(pi t),
        # t = (k + s)/L, started from the float location; phi decreases
        # strictly on (0, 1), so a root found there is the extremum
        L = 2 * N + 1

        def phi(s):
            u = (k + s) / L
            return (L * mp.cos(mp.pi * s) * mp.sin(mp.pi * u)
                    - mp.sin(mp.pi * s) * mp.cos(mp.pi * u))

        s = mp.findroot(phi, mp.mpf(t) * L - k)
        assert 0 < s < 1
        return (k + s) / L

    rng = np.random.default_rng(0)
    cases = [(N, range(1, N)) for N in range(2, 65)]
    for N in (1024, 65536):
        ks = {1, 2, 3, N // 2, N - 2, N - 1} | set(rng.integers(1, N, 20).tolist())
        cases.append((N, sorted(ks)))
    for N, ks in cases:
        locs = find_extrema(N).t
        for k in ks:
            t = float(locs[k])
            exact = root(N, k, t)
            err = float(abs(mp.mpf(t) - exact))
            assert err <= 2 * np.spacing(float(exact)), (N, k, err)
            assert err <= 1e-12


def _interior_loop(N):
    """The interior locations by a self-contained safeguarded Newton loop:
    the oracle for _interior on the |.| engine's shared root step."""
    L = 2 * N + 1
    k = np.arange(1, N, dtype=float)
    s = prev = np.full(k.shape, 0.5)
    lo, hi = np.zeros(k.shape), np.ones(k.shape)
    for _ in range(64):
        ps, pt = np.pi * s, np.pi * ((k + s) / L)
        sin_t = np.sin(pt)
        phi = L * np.cos(ps) * sin_t - np.sin(ps) * np.cos(pt)
        lo = np.where(phi > 0.0, s, lo)
        hi = np.where(phi < 0.0, s, hi)
        step = s + phi / (np.pi * (L - 1.0 / L) * np.sin(ps) * sin_t)
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        settled = np.all((step == s) | (step == prev))
        prev, s = s, step
        if settled:
            break
    return (k + s) / L


@pytest.mark.parametrize("N", [*range(2, 65), 77, 1024, 65536])
def test_interior_locations_match_the_loop_bit_for_bit(N):
    # the loop ends with some locations still swapping between two floats
    # (13 of 76 at N = 77), so stopping one step earlier or later returns
    # the other float there; N = 77 is the first order at which a stop on
    # a bracket 4 ulps wide would end the loop a step early
    assert np.array_equal(_interior(N)[1], _interior_loop(N))


def test_sweep_sums_equal_table_sums():
    Ns = list(range(1, 41)) + [1000, 4097, 65536]
    for N, s, _ in growth_sweep(Ns)[0]:
        assert s == float(sum(find_extrema(N).c.tolist()))


def test_sweep_facts_match_crossing_checks():
    # the sweep's facts are crossing_check's, over every order
    Ns = [1, 2, 3, 8, 21, 64, 257]
    rows, facts = growth_sweep(Ns)
    assert [N for N, _, _ in rows] == Ns
    reports = [crossing_check(find_extrema(N)) for N in Ns]
    assert facts["envelope_max_error"] == max(r.max_product_error for r in reports)
    assert facts["sandwich_ok"] is True
    ratios = [r for _, _, r in rows[1:]]
    assert facts["band_factor"] == max(ratios) / min(ratios)
    assert sorted(growth_sweep([1])[1]) == ["envelope_max_error", "sandwich_ok"]


def test_normalized_sum_growth_rows():
    rows = growth_sweep([16, 64, 256, 1024])[0]
    frozen = [
        (16, 4.082238, 1.472356),
        (64, 4.842263, 1.164318),
        (256, 5.688910, 1.025920),
        (1024, 6.561177, 0.946578),
    ]
    for (N, s, ratio), (N0, s0, r0) in zip(rows, frozen):
        assert N == N0
        assert s == pytest.approx(s0, abs=1e-5)
        assert ratio == pytest.approx(r0, abs=1e-5)
    # the sum keeps growing while the ratio to ln N settles
    sums = [s for _, s, _ in rows]
    assert np.all(np.diff(sums) > 0.0)


def test_sum_at_order_one_is_inf_ratio():
    rows = growth_sweep([1])[0]
    assert rows[0][0] == 1
    assert rows[0][1] == pytest.approx(3.0 + 1.0, rel=1e-12)  # c = 3/1 and 1/1
    assert math.isinf(rows[0][2])


def test_validation():
    with pytest.raises(ValueError):
        find_extrema(0)
