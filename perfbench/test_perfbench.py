"""Tests of the benchmark's own references, inputs and spec.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402


@pytest.mark.parametrize("N", [256, 4096, 16384])
def test_lebesgue_constant_matches_40_digits(N):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    L = 2 * N + 1
    exact = mpmath.mpf(1) / L + 2 / mpmath.pi * mpmath.fsum(
        mpmath.tan(mpmath.pi * k / L) / k for k in range(1, N + 1))
    assert abs(checks.lebesgue_constant(N) - exact) <= 1e-15


def test_lebesgue_constant_small_orders_by_quadrature():
    # int |D_N| over a fine midpoint grid; D_0 = 1 exactly
    assert checks.lebesgue_constant(0) == 1.0
    t = (np.arange(2 ** 20) + 0.5) / 2 ** 20 - 0.5
    for N in (1, 2, 5):
        d = np.abs(checks.dirichlet_closed(N, t)).mean()
        assert abs(d - checks.lebesgue_constant(N)) < 1e-9


def test_dirichlet_closed_form_matches_cosine_sum():
    t = np.linspace(0.013, 0.49, 37)
    for N in (1, 7, 300):
        direct = 1 + 2 * np.cos(2 * np.pi * np.outer(np.arange(1, N + 1), t)).sum(axis=0)
        assert np.allclose(checks.dirichlet_closed(N, t), direct, rtol=1e-10, atol=1e-10)


def test_signed_integral_matches_quadrature():
    coeffs = checks.log_family(1, 40)
    pieces = [(-0.4, -0.1), (0.05, 0.3)]
    m = np.arange(1, coeffs.size)
    total = 0.0
    for lo, hi in pieces:
        x, w = np.polynomial.legendre.leggauss(200)
        t = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
        s = coeffs[0] + 2 * coeffs[1:] @ np.cos(2 * np.pi * np.outer(m, t))
        total += 0.5 * (hi - lo) * float(w @ s)
    assert abs(checks.signed_integral(coeffs, pieces) - total) < 1e-12


def test_log_family_head_is_linear_extension():
    a = checks.log_family(2, 5)
    assert a[2] == pytest.approx(1 / math.log(2) ** 2)
    assert a[0] - 2 * a[1] + a[2] == pytest.approx(0.0, abs=1e-15)
    assert a[1] - 2 * a[2] + a[3] == pytest.approx(0.0, abs=1e-15)


def test_close_uses_both_error_bars():
    c = checks.Checker({"seeded": {}}, 0)
    c.current = workloads.Command("x", (), "abs-log")
    c.close("ok", 1.0 + 3e-14, 2e-14, 1.0, 1e-14)
    assert c.failures == []
    c.close("bad", 1.0 + 4e-14, 2e-14, 1.0, 1e-14)
    c.close("nan", float("nan"), 0.0, 1.0)
    assert len(c.failures) == 2


def test_inputs_depend_on_seed_only(tmp_path):
    for name in workloads.NAMES:
        a = workloads.build(name, 7, str(tmp_path))
        b = workloads.build(name, 7, str(tmp_path))
        assert a.commands == b.commands and a.inputs == b.inputs
    u1 = workloads.build("abs-trace", 1, str(tmp_path)).inputs
    u2 = workloads.build("abs-trace", 2, str(tmp_path)).inputs
    assert u1 != u2


@pytest.mark.parametrize("seed", range(20))
def test_abs_union_shape(seed, tmp_path):
    wl = workloads.build("abs-trace", seed, str(tmp_path))
    union = wl.inputs["union"]
    assert len(union) == 3
    assert sorted(union) == union and all(lo < hi for lo, hi in union)
    assert all(a[1] < b[0] for a, b in zip(union, union[1:]))
    assert union[1][0] < 0.0 < union[1][1]
    cells = [2 * n + 1 for n in workloads.orders(workloads.ABS_ORDERS)]
    for x in (e for p in union for e in p):
        assert all(abs(x * L - round(x * L)) >= 1e-6 for L in cells)
    assert any(a.startswith("--set=-") for a in wl.commands[1].argv)


@pytest.mark.parametrize("seed", range(20))
def test_residual_unions_are_origin_separated(seed, tmp_path):
    wl = workloads.build("residual-trace", seed, str(tmp_path))
    for key in ("union_log", "union_log2"):
        union = wl.inputs[key]
        assert 4 <= len(union) <= 8
        assert all(a[1] < b[0] for a, b in zip(union, union[1:]))
        assert all(-0.5 <= lo < hi <= 0.5 for lo, hi in union)
        assert min(min(abs(lo), abs(hi)) for lo, hi in union) >= 0.01
        assert not any(lo < 0.0 < hi for lo, hi in union)


def test_orders_match_cli_grammar():
    assert workloads.orders("256..16384x2") == [256 * 2 ** k for k in range(7)]
    assert workloads.orders("16..65536x4") == [16, 64, 256, 1024, 4096, 16384, 65536]


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (u, _) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
