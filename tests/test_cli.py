import dataclasses
import json
import warnings

import pytest

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
    # 3 orders: below tail_window + 2, so no verdict lines
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
    assert len(rows) == 2
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
    code, _, err = run_cli(capsys, "norms", "--n", "4",
                           "--nodes-per-panel", "100000")
    assert code == 2 and "2..64 nodes per panel" in err
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
    # and the |.| lattice), and a subnormal head is refused as it is read;
    # numpy warnings would fail here, not reach stderr
    huge, tiny = tmp_path / "huge.txt", tmp_path / "tiny.txt"
    tiny.write_text("1e-310\n5e-311\n")
    for argv, what in ((("witness", "--n0", "8", "--format", "csv",
                         "--sequence", str(huge)), "overflow float64"),
                       (("norms", "--kind", "abs", "--n", "16",
                         "--sequence", str(huge)), "overflow float64"),
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
        try:
            return float(text)
        except ValueError:
            return text

    for csv_row, json_row in zip(csv_rows, json_rows):
        assert len(csv_row) == len(columns)
        for column, text in zip(columns, csv_row):
            assert csv_cell(text) == json_cell(json_row, column), column
