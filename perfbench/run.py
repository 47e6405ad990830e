"""torusl1 benchmark: README CLI workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload abs-trace --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload
    python3 perfbench/run.py --workload tables --out perfbench/baseline/x.json

Each CLI command runs in its own fresh process (`python -m torusl1.cli`
with PYTHONPATH=src), one at a time.  A run first times the workload's
set-up command SETUP_REPS times, then repeats the workload's command list
until --seconds have passed (at least MIN_PASSES times).  Every output is
checked against references (checks.py) and against the first output of
the same command in the run, byte for byte.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced passes (tracer.py) and reports the per-layer metrics.  The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks       # noqa: E402
import tracer       # noqa: E402
import workloads    # noqa: E402

SETUP_REPS = 11
MIN_PASSES = 2
RUN_BUDGET_S = 170.0      # the whole run must end within 180 s
GOLDENS = os.path.join(HERE, "goldens.json")

END_TO_END = {
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_frac": ("ratio", "higher"),
    "rel_err_est": ("ratio", "lower"),
}


def _per_layer_units():
    units = {}
    for mod, qual, counts, _ in tracer.TARGETS:
        name = f"{mod}.{qual}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
        for key in counts:
            units[f"{name}.{key}"] = "bytes" if key == "bytes" else "count"
    units.update({
        "quadrature.integrate_abs_partial_sum.top_n_points_share": "ratio",
        "cli.main.calls": "count",
        "cli.main.s": "s",
        "cli.main.self_s": "s",
        "cli.main.out_bytes": "bytes",
        "process.boot_s": "s",
        "process.import.s": "s",
        "trace.wall_s": "s",
        "trace.unspanned_s": "s",
        "trace_overhead_s": "s",
    })
    return units


PER_LAYER = _per_layer_units()


class Runner:
    """Runs CLI commands as child processes inside one benchmark run."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.serial = 0

    def run(self, argv, traced=False):
        """One child, killed at the run's deadline.

        Returns exit code, stdout bytes, wall time, peak RSS (from wait4) and
        the span file a traced child writes.
        """
        self.serial += 1
        out_path = os.path.join(self.workdir, f"out-{self.serial}")
        spans = os.path.join(self.workdir, f"spans-{self.serial}.json") if traced else None
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans, *argv]
        else:
            cmd = [sys.executable, "-m", "torusl1.cli", *argv]
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            data = fh.read()
        with open(out_path + ".err", "rb") as fh:
            stderr = fh.read().decode(errors="replace")[-2000:]
        os.remove(out_path)
        os.remove(out_path + ".err")
        return {"rc": proc.returncode, "out": data, "wall": t1 - t0,
                "rss_mb": usage.ru_maxrss / 1024.0, "t_spawn": t0,
                "spans": spans, "stderr": stderr}

    def run_pass(self, commands, traced=False):
        return [self.run(c.argv, traced) for c in commands]


class Accounting:
    """Per-execution failure accounting feeding ok_frac.

    An execution fails when it exits nonzero, when its output does not
    parse or misses a reference, or when its bytes differ from the first
    output of the same command in this run.
    """

    def __init__(self, goldens, seed):
        self.checker = checks.Checker(goldens, seed)
        self.first = {}
        self.verdict = {}
        self.values = {}
        self.attempted = 0
        self.failed = 0

    def add(self, cmd, res):
        self.attempted += 1
        if res["rc"] != 0:
            self.checker.fail(f"{cmd.name}: exit code {res['rc']}: {res['stderr'].strip()}")
            self.failed += 1
            return
        key = cmd.argv
        if key not in self.first:
            self.first[key] = res["out"]
            before = len(self.checker.failures)
            values = self.checker.run(cmd, res["out"])
            self.values.setdefault(cmd.name, values)
            self.verdict[key] = len(self.checker.failures) == before
        elif res["out"] != self.first[key]:
            self.checker.fail(f"{cmd.name}: output bytes differ between repeats")
            self.failed += 1
            return
        if not self.verdict[key]:
            self.failed += 1


def layer_metrics(results):
    """Per-layer metrics of one traced pass from its children's span files.

    Self time is a span's duration minus the time of its direct children.
    The points share is the part of the largest-order
    integrate_abs_partial_sum spans spent inside cosine_poly_points.
    """
    agg = {}
    traces = []
    for res in results:
        with open(res["spans"], encoding="utf-8") as fh:
            traces.append(json.load(fh))
        os.remove(res["spans"])
    top_n = max((n for t in traces for n in t["tags"].values()), default=None)
    share_num = share_den = 0.0
    for res, trace in zip(results, traces):
        names = trace["names"]
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (nid, t0, t1, _) in enumerate(spans):
            name = names[nid]
            agg[f"{name}.calls"] = agg.get(f"{name}.calls", 0) + 1
            agg[f"{name}.s"] = agg.get(f"{name}.s", 0.0) + (t1 - t0)
            agg[f"{name}.self_s"] = agg.get(f"{name}.self_s", 0.0) + (t1 - t0 - child_time[i])
        for key, n in trace["counts"].items():
            agg[key] = agg.get(key, 0) + n
        agg["cli.main.out_bytes"] = agg.get("cli.main.out_bytes", 0) + len(res["out"])
        # perf_counter is one system-wide monotonic clock on Linux
        agg["process.boot_s"] = agg.get("process.boot_s", 0.0) + trace["t_start"] - res["t_spawn"]

        top = {int(i) for i, n in trace["tags"].items() if n == top_n}
        share_den += sum(spans[i][2] - spans[i][1] for i in top)
        if "trigsum.cosine_poly_points" not in names:
            continue
        points = names.index("trigsum.cosine_poly_points")
        for nid, t0, t1, parent in spans:
            if nid != points:
                continue
            while parent >= 0 and parent not in top:
                parent = spans[parent][3]
            if parent >= 0:
                share_num += t1 - t0
    agg["quadrature.integrate_abs_partial_sum.top_n_points_share"] = (
        share_num / share_den if share_den else 0.0)
    agg["trace.wall_s"] = sum(r["wall"] for r in results)
    # span dump and process exit: the time no span covers
    agg["trace.unspanned_s"] = (agg["trace.wall_s"] - agg["process.boot_s"]
                                - agg["process.import.s"] - agg["cli.main.s"])
    return {k: agg.get(k, 0) for k in PER_LAYER if k != "trace_overhead_s"}


def run_workload(name, seed, seconds, trace, goldens, workdir):
    t_begin = time.perf_counter()
    runner = Runner(workdir, t_begin + RUN_BUDGET_S)
    wl = workloads.build(name, seed, os.path.relpath(workdir, ROOT))
    acct = Accounting(goldens, seed)
    record = {"workload": name, "seed": seed, "inputs": wl.inputs,
              "commands": {c.name: list(c.argv) for c in wl.commands},
              "setup_command": list(wl.setup.argv)}
    setup_walls = []
    for _ in range(SETUP_REPS):     # also warms the file cache for the passes
        res = runner.run(wl.setup.argv)
        acct.add(wl.setup, res)
        setup_walls.append(res["wall"])

    passes = []           # untraced passes: per-command results
    traced = []           # traced passes: per-layer metrics, None if a child failed
    min_passes = 1 if trace else MIN_PASSES
    t_measure = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for with_spans in ((False, True) if trace else (False,)):
            results = runner.run_pass(wl.commands, traced=with_spans)
            for cmd, res in zip(wl.commands, results):
                acct.add(cmd, res)
            if not with_spans:
                passes.append(results)
            elif all(r["rc"] == 0 for r in results):
                traced.append(layer_metrics(results))
            else:
                traced.append(None)
        now = time.perf_counter()
        done = len(passes) >= min_passes and now - t_measure >= seconds
        if done or now + 1.2 * (now - t_pass) > runner.deadline:
            break

    pass_walls = [sum(r["wall"] for r in p) for p in passes]
    record["pass_walls_s"] = pass_walls
    record["command_walls_s"] = {c.name: [p[i]["wall"] for p in passes]
                                 for i, c in enumerate(wl.commands)}
    record["command_rss_mb"] = {c.name: [p[i]["rss_mb"] for p in passes]
                                for i, c in enumerate(wl.commands)}
    record["values"] = acct.values
    record["failures"] = acct.checker.failures
    if trace:
        good = [t for t in traced if t is not None]
        metrics = {}
        if good:
            metrics = {k: statistics.median(t[k] for t in good) for k in good[0]}
            metrics["trace_overhead_s"] = metrics["trace.wall_s"] - statistics.median(pass_walls)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(pass_walls),
            "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in p) for p in passes),
            "setup_s": statistics.median(setup_walls),
            "ok_frac": 1.0 - acct.failed / acct.attempted,
            "rel_err_est": max(acct.checker.rel_errs) if acct.checker.rel_errs else 0.0,
        }
        record["setup_walls_s"] = setup_walls
        units = {k: u for k, (u, _) in END_TO_END.items()}
    out = {k: {"value": metrics.get(k, 0.0), "unit": units[k]} for k in units}
    summary = {"correct": acct.failed == 0 and bool(metrics),
               "attempted": acct.attempted, "failed": acct.failed, "metrics": out}
    record["result"] = summary
    return summary, record


def provenance():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_sha": sha, "platform": platform.platform()}


def _report(summary, record):
    print(f"# workload {record['workload']} seed {record['seed']}: inputs "
          f"{json.dumps(record['inputs'])}")
    for k, v in summary["metrics"].items():
        print(f"{record['workload']:>15} {k} = {v['value']:.6g} {v['unit']}")
    for msg in record["failures"]:
        print(f"# FAIL {msg}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="also write the full result record (JSON) here")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "torusl1", "__init__.py")):
        print("error: src/torusl1 not found next to perfbench/; run from a "
              "torusl1 checkout", file=sys.stderr)
        return 2
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "_work"))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {}
        records = []
        for name in names:
            summary, record = run_workload(name, args.seed, args.seconds,
                                           args.trace, goldens, workdir)
            _report(summary, record)
            results[name] = summary
            records.append(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.out:
        doc = {"provenance": provenance(), "seconds": args.seconds,
               "trace": args.trace, "runs": records}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
