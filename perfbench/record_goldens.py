"""Record goldens.json: reference values and error bars from this checkout.

Usage (from the repository root): python3 perfbench/record_goldens.py

Seed-independent outputs (log-family full-torus trace, extrema sweep,
witness integrals) are recorded once.  Seeded outputs (the abs-trace union
and the residual-trace unions) are recorded for SEEDS, together with the
generated inputs, so a later run can tell a changed input from a changed
result.  Re-record only on purpose: the goldens are the reference later
commits are checked against.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import run
import workloads

DEFAULT_SEED = 0
HELD_OUT_SEED = 1105
SEEDS = list(range(16)) + [HELD_OUT_SEED]


def _output(runner, cmd):
    res = runner.run(cmd.argv)
    if res["rc"] != 0:
        raise SystemExit(f"{cmd.name} failed: {res['stderr']}")
    return res["out"]


def _trace(out):
    return {str(e["N"]): [e["value"], e["error"]] for e in json.loads(out)["trace"]}


def main():
    os.makedirs(os.path.join(run.HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="goldens-", dir=os.path.join(run.HERE, "_work"))
    runner = run.Runner(workdir, deadline=time.perf_counter() + 3600.0)
    rel = os.path.relpath(workdir, run.ROOT)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                         capture_output=True, text=True).stdout.strip()
    doc = {"recorded_from": sha or None, "default_seed": DEFAULT_SEED,
           "held_out_seed": HELD_OUT_SEED, "fixed": {}, "seeded": {}}
    try:
        fixed = {c.name: c for name in ("abs-trace", "residual-trace", "tables")
                 for c in workloads.build(name, DEFAULT_SEED, rel).commands}
        for name in ("abs-full-log", "residual-fixed"):
            doc["fixed"][name] = _trace(_output(runner, fixed[name]))
        rows = run.checks.csv_rows(_output(runner, fixed["extrema-sweep"]))
        doc["fixed"]["extrema-sweep"] = {r[0]: float(r[1]) for r in rows}
        for name in ("witness-log", "witness-log2"):
            body = json.loads(_output(runner, fixed[name]))
            doc["fixed"][name] = {str(w["N0"]): [w["integral"], w["integral_error"]]
                                  for w in body["witnesses"]}
        for seed in SEEDS:
            t0 = time.perf_counter()
            entry = {}
            for name, cmd_names in (("abs-trace", ("abs-union-log",)),
                                    ("residual-trace", ("residual-log", "residual-log2"))):
                for cmd in workloads.build(name, seed, rel).commands:
                    if cmd.name in cmd_names:
                        entry[cmd.name] = {"union": cmd.info["union"],
                                           "trace": _trace(_output(runner, cmd))}
            doc["seeded"][str(seed)] = entry
            print(f"seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
