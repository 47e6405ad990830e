import contextlib
import dataclasses
import io
import json
import math
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from torusl1 import cli
from torusl1.cli import RunConfig, Table, main, parse_n_values, render


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_order_grammar():
    assert parse_n_values("16..4096x2") == [16, 32, 64, 128, 256, 512,
                                            1024, 2048, 4096]
    assert parse_n_values("2..100x3") == [2, 6, 18, 54]
    assert parse_n_values("4,9,100") == [4, 9, 100]
    assert parse_n_values("7") == [7]
    for bad in ("0..8", "8..4", "4..8x1", "", "3,-1"):
        with pytest.raises(ValueError):
            parse_n_values(bad)


def test_norms_csv_structure(capsys):
    code, out, _ = run_cli(capsys, "norms", "--sequence", "log",
                           "--n", "2,4,8", "--set", "0.1,0.3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("# config=")
    cfg = json.loads(lines[1].split("=", 1)[1])
    assert cfg["command"] == "norms" and cfg["Ns"] == [2, 4, 8]
    assert "out" not in cfg
    header = [ln for ln in lines if ln == "N,value,error"]
    assert len(header) == 1
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 3
    n, val, err = data[0].split(",")
    assert int(n) == 2
    assert float(val) > 0.0 and float(err) >= 0.0
    # 17 significant digits round-trip exactly
    assert f"{float(val):.17g}" == val


def test_norms_verdict_gate(capsys):
    # 3 orders: below TAIL_WINDOW + 2 = 6, so no verdict lines
    _, out, _ = run_cli(capsys, "norms", "--n", "2,4,8", "--set", "0.1,0.3")
    assert "# verdict=" not in out
    _, out, _ = run_cli(capsys, "norms", "--n", "2..64x2", "--set", "0.1,0.3")
    assert "# verdict=" in out
    _, out, _ = run_cli(capsys, "norms", "--n", "2..64x2", "--set", "0.1,0.3",
                        "--format", "json")
    payload = json.loads(out)
    assert payload["verdict"]["verdict"] in {
        "converging", "inconclusive", "bounded-nonconverging-signature",
        "unbounded-signature"}
    # every run uses a window of 4, so the config does not carry it
    assert payload["verdict"]["tail_window"] == 4
    assert "tail_window" not in payload["config"]
    with pytest.raises(SystemExit) as exc:
        main(["norms", "--n", "2..64x2", "--tail-window", "5"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_norms_json_embeds_config(capsys):
    code, out, _ = run_cli(capsys, "norms", "--n", "2,4", "--set", "0.1,0.3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["command"] == "norms"
    assert "out" not in payload["config"]
    assert payload["verdict"] is None
    assert [row["N"] for row in payload["trace"]] == [2, 4]


def test_residual_kind_removes_origin_window(capsys):
    code, out, _ = run_cli(capsys, "norms", "--kind", "residual",
                           "--n", "4,8", "--eta", "1e-2",
                           "--grid-size", "4096", "--j-max", "5000",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["eta"] == 1e-2
    assert all(row["value"] > 0.0 for row in payload["trace"])


def test_determinism_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code = main(["norms", "--n", "2,4,8", "--set", "0.05,0.25",
                     "--out", str(path)])
        assert code == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    # config hash ignores the output path
    j1, j2 = tmp_path / "c.json", tmp_path / "d.json"
    for path in (j1, j2):
        assert main(["identity", "--n", "5", "--t", "0.2",
                     "--out", str(path)]) == 0
    p1, p2 = json.loads(j1.read_text()), json.loads(j2.read_text())
    assert p1["config_hash"] == p2["config_hash"]
    assert p1 == p2


def test_format_inferred_from_suffix(tmp_path, capsys):
    path = tmp_path / "table.json"
    assert main(["norms", "--n", "2,4", "--set", "0.1,0.3",
                 "--out", str(path)]) == 0
    capsys.readouterr()
    json.loads(path.read_text())


def test_extrema_single_order(capsys):
    code, out, _ = run_cli(capsys, "extrema", "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N"] == 1
    rows = payload["rows"]
    assert [row["i"] for row in rows] == [1, 2]
    assert rows[0]["t"] == 0.0 and rows[0]["height"] == 3.0
    assert rows[1]["t"] == 0.5 and rows[1]["height"] == -1.0
    assert payload["envelope_max_error"] <= 1e-12
    assert payload["sandwich_ok"] is True


def test_extrema_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "extrema", "--sweep", "16,64")
    assert code == 0
    lines = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
    assert lines[0] == "N,c_sum,c_sum_over_logN"
    first = lines[1].split(",")
    assert first[0] == "16"
    assert float(first[1]) == pytest.approx(4.082238, abs=1e-5)


def test_extrema_sweep_header(capsys):
    # the band factor max/min of c_sum / ln N, the worst envelope error
    # and the sandwich over every order lead the rows
    code, out, _ = run_cli(capsys, "extrema", "--sweep", "16,64,256,1024")
    assert code == 0
    head = dict(ln[2:].split("=", 1) for ln in out.splitlines()
                if ln.startswith("# "))
    assert f"{float(head['band_factor']):.4f}" == "1.5555"
    assert head["sandwich_ok"] == "True"
    assert float(head["envelope_max_error"]) <= 2 * np.finfo(float).eps
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")]
    assert all(len(r) == 3 for r in rows) and len(rows) == 5
    code, out, _ = run_cli(capsys, "extrema", "--sweep", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert "band_factor" not in payload
    # ln 1 = 0, so the order-1 ratio has no finite value: JSON null, CSV None
    assert payload["sweep"] == [{"N": 1, "c_sum": 4.0, "c_sum_over_logN": None}]
    assert payload["sandwich_ok"] is True
    assert payload["envelope_max_error"] <= 2 * np.finfo(float).eps


def test_extrema_argument_exclusivity(capsys):
    code, _, err = run_cli(capsys, "extrema", "--n", "4", "--sweep", "8,16")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "extrema")
    assert code == 2


def test_extrema_has_no_tol(capsys):
    # every location is solved to rounding, so the config carries no
    # tolerance and the flag is gone
    code, out, _ = run_cli(capsys, "extrema", "--n", "8", "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)["config"]) == ["command", "fmt", "n"]
    with pytest.raises(SystemExit) as exc:
        main(["extrema", "--n", "8", "--tol", "1e-3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_witness_single(capsys):
    code, out, _ = run_cli(capsys, "witness", "--n0", "4", "--b", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 18
    assert payload["measure"] == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert payload["integral"] == pytest.approx(1.678578071064868, rel=1e-9)
    assert payload["feasible"] is True
    assert payload["trim"] is not None
    assert all(len(c) == 2 for c in payload["cells"])


def test_witness_sweep(capsys):
    code, out, _ = run_cli(capsys, "witness", "--n0", "4,8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["N0s"] == [4, 8]
    assert payload["passed"] is True
    assert len(payload["witnesses"]) == 2
    code, _, err = run_cli(capsys, "witness", "--n0", "4,8", "--b", "4")
    assert code == 2 and "exactly one N0" in err


def test_witness_has_no_panel_settings(capsys):
    # signed integrals use no panels, so the witness config does not
    # carry panel settings and the flags are gone
    code, out, _ = run_cli(capsys, "witness", "--n0", "4,8", "--format", "json")
    assert code == 0
    assert sorted(json.loads(out)["config"]) == ["N0s", "command", "fmt",
                                                 "sequence"]
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--n0", "4", "--panels-per-cell", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_identity_sampled(capsys):
    code, out, _ = run_cli(capsys, "identity", "--samples", "5", "--seed", "7",
                           "--j-max", "20000")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_matched"] is True
    assert payload["matched_variant"] == "derived"
    assert payload["match_counts"]["derived"] == 5
    assert payload["match_counts"]["alternate"] == 0
    assert len(payload["checks"]) == 5


def test_identity_single_canonicalizes(capsys):
    code, out, _ = run_cli(capsys, "identity", "--n", "8", "--t", "0.7",
                           "--j-max", "20000")
    assert code == 0
    payload = json.loads(out)
    chk = payload["checks"][0]
    assert chk["t"] == pytest.approx(-0.30000000000000004)
    assert "canonicalized" in chk["note"]


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(capsys, "norms", "--n", "8..4")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "identity", "--t", "0.2")
    assert code == 2 and "--t needs --n" in err
    code, _, err = run_cli(capsys, "identity", "--n", "8", "--samples", "2")
    assert code == 2 and "--n needs --t" in err
    code, _, err = run_cli(capsys, "norms", "--sequence", "/nonexistent.txt",
                           "--n", "2,4")
    assert code == 2
    bent = tmp_path / "bent.txt"
    bent.write_text("1\n3\n1\n1\n")
    code, out, err = run_cli(capsys, "norms", "--sequence", str(bent),
                             "--n", "4..16x2")
    assert code == 2 and out == "" and err.count("\n") == 1
    assert "not nonincreasing and convex" in err
    # a tail keyword before the last value is refused with the file path
    early = tmp_path / "early.txt"
    early.write_text("3\n2\nconstant\n1.5\n1.2\n")
    code, out, err = run_cli(capsys, "norms", "--sequence", str(early),
                             "--n", "4")
    assert code == 2 and out == ""
    assert err == (f"error: sequence file {early}: tail keyword 'constant' "
                   "must be the last entry\n")
    code, _, err = run_cli(capsys, "norms", "--kind", "residual", "--n", "8",
                           "--grid-size", "16", "--set", "0.1,0.3")
    assert code == 2 and "below Nyquist" in err
    code, _, err = run_cli(capsys, "norms", "--kind", "residual", "--n", "8",
                           "--j-max", str(2 ** 25 - 1), "--set", "0.1,0.3")
    assert code == 2 and "j_max 33554431" in err
    code, _, err = run_cli(capsys, "identity", "--j-max", str(2 ** 25 - 1))
    assert code == 2 and "j_max 33554431" in err
    for t in ("nan", "inf", "-inf"):
        code, out, err = run_cli(capsys, "identity", "--n", "8", f"--t={t}")
        assert code == 2 and out == ""
        assert err == f"error: t must be finite, got {t}\n"
    # a t that reduces to 0 names itself
    code, out, err = run_cli(capsys, "identity", "--n", "8", "--t", "1e300")
    assert code == 2 and out == ""
    assert err == ("error: t = 1e+300 reduces to 0, which is excluded "
                   "(f may diverge there)\n")
    code, _, err = run_cli(capsys, "norms", "--n", "4",
                           "--nodes-per-panel", "100000")
    assert code == 2 and "2..64 nodes per panel" in err
    # a non-finite --eta is refused in both kinds, before any output; -inf
    # is not positive and keeps that message
    for eta in ("nan", "inf"):
        for kind in ("abs", "residual"):
            code, out, err = run_cli(capsys, "norms", "--n", "16", "--kind", kind,
                                     f"--eta={eta}", "--format", "json")
            assert code == 2 and out == ""
            assert err == f"error: --eta must be finite, got {eta}\n"
    code, _, err = run_cli(capsys, "norms", "--n", "16", "--eta=-inf")
    assert code == 2 and "must be positive" in err
    # a head near the float64 limit overflows the grid arithmetic: one
    # error line instead of nan rows; the second head keeps f at 0 and
    # overflows S_N alone
    for name, head, what in (("huge.txt", "1e307\n5e306\n", "reference function f"),
                             ("flat.txt", "1e306\n", "|f - S_N|")):
        path = tmp_path / name
        path.write_text(head)
        code, out, err = run_cli(capsys, "norms", "--kind", "residual",
                                 "--sequence", str(path), "--n", "8",
                                 "--set", "0.1,0.3")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {what} ") and err.count("\n") == 1
        assert "is not finite on the grid" in err
    # the same head overflows the cell engine (the signed cells of witness
    # and the |.| lattice), so does 1e308 D_N in its closed-form rows, and a
    # subnormal head is refused as it is read; numpy warnings would fail
    # here, not reach stderr
    huge, tiny = tmp_path / "huge.txt", tmp_path / "tiny.txt"
    flat = tmp_path / "flat308.txt"
    tiny.write_text("1e-310\n5e-311\n")
    flat.write_text("1e308\n")
    for argv, what in ((("witness", "--n0", "8", "--format", "csv",
                         "--sequence", str(huge)), "overflow float64"),
                       (("norms", "--kind", "abs", "--n", "16",
                         "--sequence", str(huge)), "overflow float64"),
                       (("norms", "--kind", "abs", "--n", "16",
                         "--sequence", str(flat)), "overflow float64"),
                       (("norms", "--kind", "abs", "--n", "16",
                         "--sequence", str(tiny)), "at least 2^-1022")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert what in err, argv
    with pytest.raises(SystemExit) as exc:
        main(["witness"])  # --n0 is required
    assert exc.value.code == 2
    capsys.readouterr()


def test_render_layout_rules():
    table = Table(columns=("N", "value", "ok", "x_y", "tags"),
                  rows=[{"N": 3, "value": 0.1, "ok": False,
                         "x": {"y": 2.5}, "tags": ("a", "b")}],
                  key="rows",
                  head={"passed": True, "variant": None, "limit": 0.1},
                  body={"passed": True, "variant": None})
    cfg = RunConfig(command="norms", fmt="csv")
    assert render(cfg, table) == (
        f"# config_hash={cfg.hash()}\n"
        '# config={"command": "norms", "fmt": "csv"}\n'
        "# passed=True\n"
        "# variant=None\n"
        "# limit=0.10000000000000001\n"
        "N,value,ok,x_y,tags\n"
        "3,0.10000000000000001,0,2.5,a+b\n")
    cfg = RunConfig(command="norms", fmt="json")
    head = ('{\n'
            '  "config": {\n'
            '    "command": "norms",\n'
            '    "fmt": "json"\n'
            '  },\n'
            f'  "config_hash": "{cfg.hash()}",\n')
    assert render(cfg, table) == head + (
        '  "passed": true,\n'
        '  "rows": [\n'
        '    {\n'
        '      "N": 3,\n'
        '      "ok": false,\n'
        '      "tags": [\n'
        '        "a",\n'
        '        "b"\n'
        '      ],\n'
        '      "value": 0.1,\n'
        '      "x": {\n'
        '        "y": 2.5\n'
        '      }\n'
        '    }\n'
        '  ],\n'
        '  "variant": null\n'
        '}\n')
    # JSON refuses non-finite floats, which RFC 8259 does not allow
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            render(cfg, dataclasses.replace(table, body={"limit": bad}))
    # a single row (key None) is merged into the top level
    merged = render(cfg, dataclasses.replace(table, key=None))
    assert merged == '{\n  "N": 3,\n' + head[2:] + (
        '  "ok": false,\n'
        '  "passed": true,\n'
        '  "tags": [\n'
        '    "a",\n'
        '    "b"\n'
        '  ],\n'
        '  "value": 0.1,\n'
        '  "variant": null,\n'
        '  "x": {\n'
        '    "y": 2.5\n'
        '  }\n'
        '}\n')


@pytest.mark.parametrize("argv, key", [
    (("norms", "--n", "2,4,8", "--set", "0.1,0.3"), "trace"),
    (("extrema", "--n", "4"), "rows"),
    (("extrema", "--sweep", "1,4"), "sweep"),
    (("witness", "--n0", "4,8"), "witnesses"),
    (("witness", "--n0", "4", "--b", "4"), None),
    (("identity", "--samples", "3", "--seed", "1", "--j-max", "20000"), "checks"),
])
def test_csv_and_json_rows_agree(capsys, argv, key):
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    columns, *csv_rows = [ln.split(",") for ln in csv_out.splitlines()
                          if not ln.startswith("#")]
    payload = json.loads(json_out)
    json_rows = [payload] if key is None else payload[key]
    assert len(csv_rows) == len(json_rows) > 0

    def json_cell(row, column):
        if column in row:
            value = row[column]
        else:
            outer, _, inner = column.partition("_")
            value = row[outer][inner]
        return "+".join(value) if isinstance(value, list) else value

    def csv_cell(text):
        if text == "None":  # JSON null, CSV None: the order-1 sweep ratio
            return None
        try:
            return float(text)
        except ValueError:
            return text

    for csv_row, json_row in zip(csv_rows, json_rows):
        assert len(csv_row) == len(columns)
        for column, text in zip(columns, csv_row):
            assert csv_cell(text) == json_cell(json_row, column), column


def _json_module_text(cfg, table):
    # the layout Table documents, written by the json module's own indent
    payload = {"config": cfg.resolved(), "config_hash": cfg.hash(), **table.body}
    if table.key is None:
        payload.update(table.rows[0])
    else:
        payload[table.key] = table.rows
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("argv", [
    ("norms", "--n", "2..64x2", "--set", "0.1,0.3"),  # with a verdict body
    ("norms", "--kind", "residual", "--n", "8,16", "--grid-size", "4096",
     "--set", "0.1,0.3"),  # verdict null
    ("extrema", "--n", "4"),
    ("extrema", "--sweep", "1,4"),  # the null of order 1
    ("witness", "--n0", "4,8"),
    ("witness", "--n0", "4", "--b", "4"),  # one row merged, nested lists
    ("identity", "--samples", "3", "--seed", "1", "--j-max", "20000"),
    ("identity", "--n", "8", "--t", "0.7", "--j-max", "20000"),  # a note
])
def test_json_matches_the_json_module(argv):
    # every subcommand's Table renders to the bytes of json.dumps with
    # sort_keys and indent=2
    args = cli._build_parser().parse_args([*argv, "--format", "json"])
    cfg = cli._config_from_args(args)
    table = cli._RUNNERS[cfg.command](cfg)
    assert render(cfg, table) == _json_module_text(cfg, table)


def test_json_edge_values_match_the_json_module():
    # bools, null, ints past 2^64, -0.0, 1e-300, strings that hold
    # brackets, quotes, escapes and non-ASCII text, empty containers,
    # nested x_y rows, tuples, and rows of unequal keys or nesting
    rows = [{"N": 2 ** 70, "value": -0.0, "ok": True, "x": {"y": 1e-300},
             "tags": ("a", "b"), "s": 'q"}, {\\\n\u00e9\u2028'},
            {"N": -3, "value": 5e-324, "ok": False, "x": {"y": None},
             "tags": (), "s": ""},
            {"N": 0, "value": 1.7976931348623157e308, "extra": {}}]
    table = Table(("N", "value"), rows, "rows",
                  body={"flag": False, "none": None, "big": -(2 ** 80),
                        "nested": [[1, [2.5, []]], {"k": [True]}],
                        "crossings": [3, 1, 2], "empty": [], "text": "}, {"})
    cfg = RunConfig(command="norms", fmt="json")
    for t in (table, dataclasses.replace(table, rows=rows[:2]),
              dataclasses.replace(table, rows=rows[:1], key=None),
              dataclasses.replace(table, rows=[{"a": 1}, {"b": [1]}])):
        assert render(cfg, t) == _json_module_text(cfg, t)
    # non-finite floats are refused in flat and in nested containers
    for body in ({"x": math.nan}, {"x": [math.inf]}, {"x": [{"y": -math.inf}]}):
        with pytest.raises(ValueError):
            render(cfg, dataclasses.replace(table, body=body))


_TAIL_LINES = ("", "constant\n", "log_reciprocal\n", "log_squared_reciprocal\n")


@st.composite
def _sequences(draw):
    """'log', 'log2', or the text of a sequence file: a convex head at
    any binary scale, or any floats at all."""
    pick = draw(st.sampled_from(("log", "log2", "convex", "any")))
    if pick in ("log", "log2"):
        return pick
    if pick == "convex":
        base = draw(st.floats(1e-3, 10.0))
        diffs = sorted(draw(st.lists(st.floats(0.0, 10.0), max_size=6)))
        with np.errstate(over="ignore"):  # inf is a file the CLI refuses
            head = np.ldexp(np.cumsum([base] + diffs)[::-1],
                            draw(st.integers(-1030, 1030)))
    else:
        head = draw(st.lists(st.floats(), min_size=1, max_size=5))
    return "".join(f"{float(v)!r}\n" for v in head) + draw(st.sampled_from(_TAIL_LINES))


_POINTS = st.one_of(st.sampled_from((-0.5, 0.5, 0.0, -0.25, 0.25, 1 / 3, -1 / 7)),
                    st.floats(-0.5, 0.5))


@st.composite
def _sets(draw):
    """'full', the empty set, or sorted pieces; some are slivers, some
    touch 0 or +-1/2, and some are malformed."""
    pick = draw(st.sampled_from(("full", "empty", "pieces")))
    if pick != "pieces":
        return "full" if pick == "full" else ""
    ends = draw(st.lists(_POINTS, min_size=2, max_size=6))
    for x in draw(st.lists(st.sampled_from(ends), max_size=2)):
        ends.append(x + draw(st.sampled_from((5e-324, 1e-300, 1e-15, 1e-9))))
    ends = sorted(ends)[:len(ends) // 2 * 2]
    return ";".join(f"{lo!r},{hi!r}" for lo, hi in zip(ends[::2], ends[1::2]))


_ORDERS = st.one_of(
    st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True).map(
        lambda ns: ",".join(map(str, sorted(ns)))),
    st.lists(st.integers(0, 40), min_size=1, max_size=6).map(
        lambda ns: ",".join(map(str, ns))),
    st.tuples(st.integers(1, 8), st.integers(1, 64), st.integers(2, 3)).map(
        lambda t: f"{t[0]}..{t[1]}x{t[2]}"))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
# a sliver of subnormal width, whose |.| bar was 0 under a nonzero value;
# a constant tail at distance 1e-12 from 0, whose window bound allocated
# 5e11 terms
@example(seq="log", spec="0.0,5e-324", orders="1", kind="abs", grid=8,
         j_max=0, eta=1e-3, nodes=3, panels=2)
@example(seq="1.0\n", spec="1e-12,0.3", orders="2,3", kind="residual",
         grid=64, j_max=100, eta=1e-300, nodes=16, panels=2)
@given(seq=_sequences(), spec=_sets(), orders=_ORDERS,
       kind=st.sampled_from(("abs", "residual")),
       grid=st.sampled_from((8, 16, 17, 64, 100, 256, 4097)),
       j_max=st.integers(0, 3000),
       eta=st.sampled_from((1e-3, 0.01, 0.2, 1e-300, 0.5, 0.7, 0.0)),
       nodes=st.sampled_from((*range(2, 21), 64, 1, 65)),
       panels=st.sampled_from((1, 2, 3) * 3 + (0,)))
def test_norms_exit_cleanly(seq, spec, orders, kind, grid, j_max, eta,
                            nodes, panels):
    # every run either prints finite values, each nonzero one with a
    # nonzero bar, or exits 2 with one error line; never a traceback,
    # a warning, nan or inf
    with tempfile.TemporaryDirectory() as tmp:
        if seq not in ("log", "log2"):
            path = os.path.join(tmp, "seq.txt")
            with open(path, "w") as fh:
                fh.write(seq)
            seq = path
        argv = ["norms", "--sequence", seq, f"--set={spec}", "--n", orders,
                "--kind", kind, "--grid-size", str(grid), "--j-max", str(j_max),
                "--eta", repr(eta), "--nodes-per-panel", str(nodes),
                "--panels-per-cell", str(panels), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == ""
        assert "NaN" not in out and "Infinity" not in out
        for row in json.loads(out)["trace"]:
            assert math.isfinite(row["value"]) and math.isfinite(row["error"])
            assert row["error"] > 0.0 or row["value"] == 0.0, row
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err
