import dataclasses
import math

import numpy as np
import pytest

from torusl1.extrema import (coefficient_sum, crossing_check, find_extrema,
                             growth_sweep)
from torusl1.kernels import dirichlet_eval


def test_row_count_and_endpoints():
    for N in (1, 2, 5, 16, 101):
        table = find_extrema(N)
        assert len(table.rows) == N + 1
        first, last = table.rows[0], table.rows[-1]
        assert (first.i, first.t, first.height) == (1, 0.0, 2 * N + 1)
        assert first.c == pytest.approx((2 * N + 1) / N, rel=1e-15)
        assert (last.i, last.t) == (N + 1, 0.5)
        assert last.height == (-1.0) ** N
        assert last.c == pytest.approx(1.0 / N, rel=1e-15)


def test_interior_signs_alternate_and_heights_decay():
    table = find_extrema(12)
    heights = table.heights()
    # interior extremum k carries sign (-1)^k
    for k, h in enumerate(heights[1:-1], start=1):
        assert math.copysign(1.0, h) == (-1.0) ** k
    mags = np.abs(heights)
    assert np.all(np.diff(mags) < 0.0)


def test_extrema_interleave_envelope_points():
    for N in (2, 7, 30):
        table = find_extrema(N)
        locs = table.locations()
        cross = np.array(table.crossings)
        assert cross.size == N + 1
        for i in range(N):
            assert locs[i] < cross[i] < locs[i + 1]
        assert cross[-1] > locs[-1] - 0.5 / (2 * N + 1)


def test_interior_locations_match_dense_scan():
    N = 5
    table = find_extrema(N)
    L = 2 * N + 1
    for k, row in zip(range(1, N), table.rows[1:-1]):
        ts = np.linspace(k / L, (k + 1) / L, 200001)
        vals = (-1.0) ** k * dirichlet_eval(N, ts)
        t_scan = ts[int(np.argmax(vals))]
        assert abs(row.t - t_scan) < 1e-5
        # scanned height can only be lower or equal
        assert (-1.0) ** k * row.height >= np.max(vals) - 1e-9


def test_stationarity_at_interior_extrema():
    N = 9
    table = find_extrema(N)
    for row in table.rows[1:-1]:
        h = 1e-6
        centered = (dirichlet_eval(N, row.t + h)
                    - dirichlet_eval(N, row.t - h)) / (2 * h)
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
    rows = list(table.rows)
    a, b = rows[2], rows[6]
    rows[2] = dataclasses.replace(a, height=b.height, c=b.c)
    rows[6] = dataclasses.replace(b, height=a.height, c=a.c)
    crafted = dataclasses.replace(table, rows=tuple(rows))
    h = np.abs(crafted.heights())
    vals = np.abs(dirichlet_eval(N, np.array(crafted.crossings)))
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
        locs = find_extrema(N).locations()
        for k in ks:
            t = float(locs[k])
            exact = root(N, k, t)
            err = float(abs(mp.mpf(t) - exact))
            assert err <= 2 * np.spacing(float(exact)), (N, k, err)
            assert err <= 1e-12


def test_sweep_sums_equal_table_sums():
    Ns = list(range(1, 41)) + [1000, 4097, 65536]
    for N, s, _ in coefficient_sum(Ns):
        assert s == find_extrema(N).coefficient_sum()


def test_sweep_facts_match_crossing_checks():
    # the sweep's facts are crossing_check's, over every order, without
    # building a table
    Ns = [1, 2, 3, 8, 21, 64, 257]
    rows, facts = growth_sweep(Ns)
    assert rows == coefficient_sum(Ns)
    reports = [crossing_check(find_extrema(N)) for N in Ns]
    assert facts["envelope_max_error"] == max(r.max_product_error for r in reports)
    assert facts["sandwich_ok"] is True
    ratios = [r for _, _, r in rows[1:]]
    assert facts["band_factor"] == max(ratios) / min(ratios)
    assert sorted(growth_sweep([1])[1]) == ["envelope_max_error", "sandwich_ok"]


def test_normalized_sum_growth_rows():
    rows = coefficient_sum([16, 64, 256, 1024])
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
    rows = coefficient_sum([1])
    assert rows[0][0] == 1
    assert rows[0][1] == pytest.approx(3.0 + 1.0, rel=1e-12)  # c = 3/1 and 1/1
    assert math.isinf(rows[0][2])


def test_validation():
    with pytest.raises(ValueError):
        find_extrema(0)
