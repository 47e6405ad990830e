"""Command line driver for norm sweeps, extrema tables, witness sets, and
identity checks.

Computing and rendering are split.  Each subcommand (`cmd_*`) only
computes: it returns a `Table` of header fields, JSON body fields and rows,
and never looks at the output format.  `render` is the one place that lays
a `Table` out as CSV or JSON, and `main` writes that text to stdout or
`--out`.

Output is deterministic: no timestamps, floats at 17 significant digits in
CSV, sorted keys in JSON.  Every file embeds the resolved run config (JSON)
or a config hash comment line (CSV) so a result can be traced back to the
exact invocation.  Exit code 0 means the run completed (whatever the math
said); 2 means the configuration did not parse or validate.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from .coefficients import ConvexSequence
from .diagnostics import TAIL_WINDOW, analyze_trace
from .exceptional import build_witness, uniform_integrability_certificate
from .extrema import crossing_check, find_extrema, growth_sweep
from .intervals import IntervalUnion
from .kernels import canonical
from .partial_sums import residual_identity_check
from .quadrature import norm_trace

__all__ = ["RunConfig", "Table", "main", "parse_n_values", "render"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one run.  `out` is excluded from hashing and
    embedding so the same experiment written to two paths stays identical."""
    command: str
    sequence: str = None
    Ns: tuple = None
    set_spec: str = None
    kind: str = None
    eta: float = None
    panels_per_cell: int = None
    nodes_per_panel: int = None
    j_max: int = None
    grid_size: int = None
    seed: int = None
    samples: int = None
    N0s: tuple = None
    b: int = None
    n: int = None
    t: float = None
    fmt: str = None
    out: str = None

    def resolved(self):
        d = dataclasses.asdict(self)
        d.pop("out")
        return {k: v for k, v in d.items() if v is not None}

    def canonical_json(self):
        return json.dumps(self.resolved(), sort_keys=True)

    def hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def parse_n_values(text):
    """Order list grammar: "a..bxk" geometric from a to b by factor k
    (k defaults to 2), or a comma list "4,9,100", or a single integer."""
    text = text.strip()
    if ".." in text:
        head, _, rest = text.partition("..")
        stop_txt, _, fac_txt = rest.partition("x")
        start, stop = int(head), int(stop_txt)
        factor = int(fac_txt) if fac_txt else 2
        if start < 1 or stop < start or factor < 2:
            raise ValueError(f"bad order range {text!r}")
        vals = []
        v = start
        while v <= stop:
            vals.append(v)
            v *= factor
        return vals
    vals = [int(tok) for tok in text.split(",") if tok.strip()]
    if not vals or any(v < 1 for v in vals):
        raise ValueError(f"bad order list {text!r}")
    return vals


def _resolve_sequence(name):
    if name == "log":
        return ConvexSequence.log_reciprocal()
    if name == "log2":
        return ConvexSequence.log_squared_reciprocal()
    return ConvexSequence.from_file(name)


def _resolve_set(spec):
    if spec in (None, "full"):
        return IntervalUnion.full_torus()
    return IntervalUnion.parse(spec)


def _pick_format(fmt, out, default):
    if fmt:
        return fmt
    if out and out.endswith(".csv"):
        return "csv"
    if out and out.endswith(".json"):
        return "json"
    return default


@dataclasses.dataclass(frozen=True)
class Table:
    """What one command computed, before a layout is chosen.

    `rows` are dicts.  CSV writes `head` as `# key=value` lines, then the
    `columns` of each row; a column `x_y` that a row lacks reads the nested
    `row["x"]["y"]`.  JSON writes the `body` fields at the top level and
    every field of every row under `key`, or merges the one row into the
    top level when `key` is None.
    """
    columns: tuple
    rows: list
    key: str
    head: dict = dataclasses.field(default_factory=dict)
    body: dict = dataclasses.field(default_factory=dict)


def _csv_field(value, in_row):
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, bool):
        return str(int(value)) if in_row else str(value)
    if isinstance(value, (list, tuple)):
        return "+".join(value)
    return str(value)


def _column(row, name):
    if name in row:
        return row[name]
    outer, _, inner = name.partition("_")
    return row[outer][inner]


def render(cfg, table):
    """Lay `table` out as CSV or JSON text, whichever `cfg.fmt` names.

    Both layouts lead with the run config and its hash.  CSV writes floats
    at 17 significant digits, bools as True/False in the header and 1/0 in
    rows, and lists joined with '+'.  JSON sorts its keys and refuses inf
    and nan with ValueError, since RFC 8259 allows neither.
    """
    if cfg.fmt == "json":
        payload = {"config": cfg.resolved(), "config_hash": cfg.hash()}
        payload.update(table.body)
        if table.key is None:
            payload.update(table.rows[0])
        else:
            payload[table.key] = table.rows
        return json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    lines = [f"# config_hash={cfg.hash()}", f"# config={cfg.canonical_json()}"]
    lines += [f"# {k}={_csv_field(v, False)}" for k, v in table.head.items()]
    lines.append(",".join(table.columns))
    lines += [",".join([_csv_field(_column(row, c), True) for c in table.columns])
              for row in table.rows]
    return "\n".join(lines) + "\n"


def cmd_norms(cfg):
    seq = _resolve_sequence(cfg.sequence)
    base = _resolve_set(cfg.set_spec)
    domain = base.minus_window(cfg.eta) if cfg.kind == "residual" else base
    if domain.is_empty:
        raise ValueError("integration set is empty after removing the origin window")
    trace = norm_trace(seq, cfg.Ns, domain, kind=cfg.kind,
                       panels_per_cell=cfg.panels_per_cell,
                       nodes_per_panel=cfg.nodes_per_panel,
                       j_max=cfg.j_max, grid_size=cfg.grid_size)
    rows = [{"N": n, "value": v, "error": e} for n, v, e
            in zip(trace.N.tolist(), trace.value.tolist(),
                   trace.error_estimate.tolist())]
    head, verdict = {}, None
    if len(rows) >= TAIL_WINDOW + 2:
        v = analyze_trace(trace)
        head = {"verdict": v.verdict, "limit_estimate": v.limit_estimate,
                "cauchy_gap": v.cauchy_gap, "uncertainty": v.uncertainty}
        verdict = dataclasses.asdict(v)
    return Table(("N", "value", "error"), rows, "trace", head,
                 {"verdict": verdict})


def cmd_extrema(cfg):
    if cfg.Ns is not None:
        sweep, head = growth_sweep(cfg.Ns)
        # ln 1 = 0: the order-1 ratio is inf, which JSON cannot carry
        rows = [{"N": n, "c_sum": s,
                 "c_sum_over_logN": r if math.isfinite(r) else None}
                for n, s, r in sweep]
        return Table(("N", "c_sum", "c_sum_over_logN"), rows, "sweep", head,
                     head)
    table = find_extrema(cfg.n)
    report = crossing_check(table)
    head = {"N": table.N, "envelope_max_error": report.max_product_error,
            "sandwich_ok": report.sandwich_ok}
    rows = [{"i": i, "t": t, "height": h, "c": c} for i, t, h, c
            in zip(range(1, table.N + 2), table.t.tolist(),
                   table.height.tolist(), table.c.tolist())]
    return Table(("i", "t", "height", "c"), rows, "rows", head,
                 {**head, "crossings": table.crossings.tolist()})


_WITNESS_COLUMNS = ("N0", "b", "n", "measure", "integral", "integral_error",
                    "feasible")


def cmd_witness(cfg):
    seq = _resolve_sequence(cfg.sequence)
    if cfg.b is None and cfg.n is None:
        cert = uniform_integrability_certificate(seq, cfg.N0s)
        head = {"kappa": cert.kappa, "min_integral": cert.min_integral,
                "max_integral": cert.max_integral, "passed": cert.passed}
        body = {**head, "N0s": list(cert.N0s), "measures": list(cert.measures),
                "integrals": list(cert.integrals)}
        rows = [{c: getattr(w, c) for c in _WITNESS_COLUMNS}
                for w in cert.witnesses]
        return Table(_WITNESS_COLUMNS, rows, "witnesses", head, body)
    if len(cfg.N0s) != 1:
        raise ValueError("explicit --b/--n needs exactly one N0")
    N0 = cfg.N0s[0]
    w = build_witness(seq, N0, cfg.b if cfg.b is not None else N0, cfg.n)
    row = {c: getattr(w, c) for c in _WITNESS_COLUMNS}
    row["cells"] = [list(p) for p in w.Q.intervals]
    row["trim"] = list(w.trim) if w.trim else None
    return Table(_WITNESS_COLUMNS, [row], None)


def cmd_identity(cfg):
    seq = _resolve_sequence(cfg.sequence)
    if cfg.t is not None:
        checks = [residual_identity_check(seq, cfg.n, cfg.t, cfg.j_max)]
    else:
        rng = np.random.default_rng(cfg.seed)
        checks = []
        for _ in range(cfg.samples):
            n = int(rng.integers(2, 65))
            t = float(rng.uniform(0.05, 0.45))
            checks.append(residual_identity_check(seq, n, t, cfg.j_max))
    rows = [dataclasses.asdict(c) for c in checks]
    if cfg.t is not None:
        u = canonical(cfg.t)
        if u != cfg.t:
            rows[0]["note"] = f"t={cfg.t!r} canonicalized to {u!r}"
    matched = [set(c.matched) for c in checks]
    common = set.intersection(*matched)
    variant = ("derived" if "derived" in common
               else next(iter(sorted(common)), None))
    head = {"all_matched": all(matched), "matched_variant": variant}
    counts = {k: sum(k in m for m in matched) for k in ("derived", "alternate")}
    return Table(("N", "t", "lhs", "rhs_derived", "rhs_alternate",
                  "diff_derived", "diff_alternate", "tolerance", "matched"),
                 rows, "checks", head, {**head, "match_counts": counts})


def _build_parser():
    p = argparse.ArgumentParser(
        prog="torusl1",
        description="Desk-scale experiments with Dirichlet/Fejer kernels, "
                    "convex-coefficient partial sums, and L1 traces.")
    sub = p.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--format", dest="fmt", choices=("csv", "json"))
        sp.add_argument("--out", help="output path, '-' for stdout")

    def common(sp):
        sp.add_argument("--sequence", default="log",
                        help="family id 'log' or 'log2', or a sequence file path")
        output(sp)

    sp = sub.add_parser("norms", help="L1 norm trace over an order sweep")
    common(sp)
    sp.add_argument("--kind", choices=("abs", "residual"), default="abs")
    sp.add_argument("--n", dest="ns", default="16..4096x2",
                    help="orders: 'a..bxk', comma list, or single integer")
    sp.add_argument("--set", dest="set_spec", default="full",
                    help="'full' or semicolon-separated lo,hi pairs")
    sp.add_argument("--eta", type=float, default=1e-3,
                    help="origin half-window removed for residual runs")
    sp.add_argument("--panels-per-cell", type=int, default=2)
    sp.add_argument("--nodes-per-panel", type=int, default=16)
    sp.add_argument("--j-max", type=int, default=100000)
    sp.add_argument("--grid-size", type=int, default=2 ** 16)

    sp = sub.add_parser("extrema", help="kernel extrema table or growth sweep")
    sp.add_argument("--n", type=int, help="single kernel order")
    sp.add_argument("--sweep", help="order sweep 'a..bxk' or comma list")
    output(sp)

    sp = sub.add_parser("witness", help="small-measure witness sets")
    common(sp)
    sp.add_argument("--n0", required=True, help="comma list of scales N0")
    sp.add_argument("--b", type=int, help="cell-count parameter (single witness)")
    sp.add_argument("--n", type=int, help="kernel order (single witness)")

    sp = sub.add_parser("identity", help="summed-by-parts residual checks")
    common(sp)
    sp.add_argument("--n", type=int, help="single check order")
    sp.add_argument("--t", type=float, help="single check point")
    sp.add_argument("--samples", type=int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--j-max", type=int, default=100000)
    return p


def _config_from_args(args):
    cmd = args.command
    if cmd == "norms":
        ns = tuple(parse_n_values(args.ns))
        if (args.eta <= 0 or args.panels_per_cell < 1
                or not 2 <= args.nodes_per_panel <= 64):
            raise ValueError("quadrature settings must be positive, with "
                             "2..64 nodes per panel")
        if not math.isfinite(args.eta):
            raise ValueError(f"--eta must be finite, got {args.eta!r}")
        return RunConfig(command=cmd, sequence=args.sequence, Ns=ns,
                         set_spec=args.set_spec, kind=args.kind, eta=args.eta,
                         panels_per_cell=args.panels_per_cell,
                         nodes_per_panel=args.nodes_per_panel,
                         j_max=args.j_max, grid_size=args.grid_size,
                         fmt=_pick_format(args.fmt, args.out, "csv"),
                         out=args.out)
    if cmd == "extrema":
        if (args.n is None) == (args.sweep is None):
            raise ValueError("give exactly one of --n or --sweep")
        ns = tuple(parse_n_values(args.sweep)) if args.sweep else None
        return RunConfig(command=cmd, Ns=ns, n=args.n,
                         fmt=_pick_format(args.fmt, args.out, "csv"),
                         out=args.out)
    if cmd == "witness":
        n0s = tuple(parse_n_values(args.n0))
        return RunConfig(command=cmd, sequence=args.sequence, N0s=n0s,
                         b=args.b, n=args.n,
                         fmt=_pick_format(args.fmt, args.out, "json"),
                         out=args.out)
    if cmd == "identity":
        if args.samples < 1:
            raise ValueError("--samples must be positive")
        if args.t is not None and args.n is None:
            raise ValueError("--t needs --n")
        if args.n is not None and args.t is None:
            raise ValueError("--n needs --t")
        return RunConfig(command=cmd, sequence=args.sequence, n=args.n,
                         t=args.t, samples=args.samples, seed=args.seed,
                         j_max=args.j_max,
                         fmt=_pick_format(args.fmt, args.out, "json"),
                         out=args.out)
    raise ValueError(f"unknown command {cmd!r}")


_RUNNERS = {"norms": cmd_norms, "extrema": cmd_extrema,
            "witness": cmd_witness, "identity": cmd_identity}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        text = render(cfg, _RUNNERS[cfg.command](cfg))
        if cfg.out in (None, "-"):
            sys.stdout.write(text)
        else:
            with open(cfg.out, "w") as fh:
                fh.write(text)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
