"""Seeded inputs for the torusl1 benchmark workloads.

Every workload is a list of CLI invocations (argv lists for ``torusl1``)
built from the benchmark seed alone.  The interval unions and the identity
seed are drawn from ``random.Random`` seeded with the workload name and the
seed; its stream is fixed across Python versions, so the same seed gives
the same inputs everywhere.
Unions are passed as ``--set=<spec>``: argparse would read a spec that
starts with ``-`` as an option if it were a separate argument.
"""

import os
import random
from dataclasses import dataclass, field

ABS_ORDERS = "256..16384x2"
DIRICHLET_ORDERS = "1024..131072x2"
LOG2_ORDERS = "1024..16384x2"
RESIDUAL_ORDERS = "16..65536x2"
WITNESS_N0 = "16,32,64,128,256"
IDENTITY_SAMPLES = 200
RESIDUAL_J_MAX = 4000000
RESIDUAL_GRID = {"log": 2097152, "log2": 4194304}
CONSTANT_ONE_FILE = "one.txt"
# Residual run on a fixed union: its error bars do not depend on the seed,
# so rel_err_est stays comparable across seeds (seeded unions move it 10x).
RESIDUAL_FIXED_UNION = [(-0.45, -0.31), (-0.22, -0.08), (0.03, 0.11),
                        (0.19, 0.27), (0.36, 0.47)]

NAMES = ("abs-trace", "kernel-scale", "residual-trace", "tables")

# Why each workload exists; mirrored in BENCHMARK.json and NOTES.md.
WHY = {
    "abs-trace": "log-family |S_N| on the full torus and a seeded union: "
                 "the cell engine's crossing-search and direct-sum fallback",
    "kernel-scale": "Dirichlet kernel to N=131072 and log2 to 16384: "
                    "FFT-heavy, memory-heavy cell evaluation with almost no fallback",
    "residual-trace": "|f - S_N| on seeded unions with 2^21..2^22 grids: "
                      "the residual grid engine, bypassing the cell engine",
    "tables": "extrema, witness and identity commands: pointwise kernels, "
              "signed cells and the CLI output layer",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and how its output is checked.

    `info` holds the seeded inputs (union, identity seed) the check needs;
    a command without them gives the same output for every seed.
    """
    name: str
    argv: tuple
    check: str
    info: dict = field(default_factory=dict)

    @property
    def seeded(self):
        return bool(self.info)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    commands: tuple
    setup: Command
    inputs: dict


def orders(spec):
    """The order list an 'a..bxk' spec expands to (the CLI's grammar)."""
    head, _, rest = spec.partition("..")
    stop, _, factor = rest.partition("x")
    out = [int(head)]
    while out[-1] * int(factor) <= int(stop):
        out.append(out[-1] * int(factor))
    return out


def union_spec(pieces):
    return ";".join(f"{lo!r},{hi!r}" for lo, hi in pieces)


def _off_lattice(x, cell_counts, margin=1e-6):
    """True when x sits at least `margin` cell widths from every lattice k/L."""
    for L in cell_counts:
        y = x * L
        if abs(y - round(y)) < margin:
            return False
    return True


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 12)


def abs_union(rng, cell_counts):
    """Three pieces: one straddling the origin, one on each side of it.

    Every edge is kept off the cell lattice of every order in the sweep, so
    each edge cuts a cell and lands in the partial-remnant path.
    """
    while True:
        left, mid_lo, mid_hi, right = (_draw(rng, -0.45, -0.30), _draw(rng, -0.08, -0.02),
                                       _draw(rng, 0.02, 0.08), _draw(rng, 0.15, 0.30))
        pieces = [(left, round(left + _draw(rng, 0.05, 0.12), 12)),
                  (mid_lo, mid_hi),
                  (right, round(right + _draw(rng, 0.05, 0.15), 12))]
        edges = [x for p in pieces for x in p]
        if all(_off_lattice(x, cell_counts) for x in edges):
            return pieces


def separated_union(rng, min_gap=1e-3, clearance=0.01):
    """4 to 8 disjoint pieces, each at least `clearance` from the origin."""
    k = rng.randint(4, 8)
    span = 0.5 - clearance - 0.01           # usable length on each side
    while True:
        u = sorted(_draw(rng, 0.0, 2.0 * span) for _ in range(2 * k))
        pairs = list(zip(u[0::2], u[1::2]))
        # a piece may not straddle the origin gap, and pieces stay apart
        if any(lo < span <= hi for lo, hi in pairs):
            continue
        if any(b - a < min_gap for a, b in zip(u, u[1:])):
            continue
        break

    def place(x):
        return round(-0.49 + x if x < span else clearance + (x - span), 12)

    return [(place(lo), place(hi)) for lo, hi in pairs]


def build(name, seed, workdir):
    """The commands of workload `name` for `seed`.

    `workdir` is a directory the caller owns; the constant-1 sequence file
    (a_n = 1 for all n, so S_N = D_N) is written there for kernel-scale.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    rng = random.Random(f"torusl1-bench:{name}:{seed}")
    json_fmt = ("--format", "json")
    if name == "abs-trace":
        cells = [2 * n + 1 for n in orders(ABS_ORDERS)]
        union = abs_union(rng, cells)
        base = ("norms", "--kind", "abs", "--sequence", "log",
                "--n", ABS_ORDERS) + json_fmt
        cmds = (Command("abs-full-log", base, "abs-log"),
                Command("abs-union-log", base + (f"--set={union_spec(union)}",),
                        "abs-log", {"union": union}))
        setup = Command("abs-full-log", base[:6] + (str(orders(ABS_ORDERS)[0]),) + json_fmt,
                        "abs-log")
        inputs = {"union": union}
    elif name == "kernel-scale":
        path = os.path.join(workdir, CONSTANT_ONE_FILE)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("1\n")
        dirichlet = ("norms", "--kind", "abs", "--sequence", path, "--n")
        cmds = (Command("dirichlet", dirichlet + (DIRICHLET_ORDERS,) + json_fmt,
                        "dirichlet"),
                Command("abs-full-log2", ("norms", "--kind", "abs", "--sequence", "log2",
                                          "--n", LOG2_ORDERS) + json_fmt,
                        "log2-a0"))
        setup = Command("dirichlet", dirichlet + (str(orders(DIRICHLET_ORDERS)[0]),) + json_fmt,
                        "dirichlet")
        inputs = {"sequence_file": "1 (constant tail)"}
    elif name == "residual-trace":
        def residual(cmd_name, seq, union, info):
            argv = ("norms", "--kind", "residual", "--sequence", seq,
                    "--grid-size", str(RESIDUAL_GRID[seq]),
                    "--j-max", str(RESIDUAL_J_MAX),
                    f"--set={union_spec(union)}") + json_fmt
            return Command(cmd_name, argv + ("--n", RESIDUAL_ORDERS), "residual", info)

        unions = {seq: separated_union(rng) for seq in ("log", "log2")}
        cmds = tuple(residual(f"residual-{seq}", seq, u, {"union": u})
                     for seq, u in unions.items())
        cmds += (residual("residual-fixed", "log", RESIDUAL_FIXED_UNION, {}),)
        inputs = {f"union_{seq}": u for seq, u in unions.items()}
        fixed = cmds[-1]
        setup = Command(fixed.name, fixed.argv[:-1] + (str(orders(RESIDUAL_ORDERS)[0]),),
                        "residual")
    else:
        identity_seed = rng.randrange(2 ** 31)
        inputs = {"identity_seed": identity_seed}
        cmds = (Command("extrema-sweep", ("extrema", "--sweep", "16..65536x4"),
                        "extrema-sweep"),
                Command("extrema-table", ("extrema", "--n", "16384"), "extrema-table"),
                Command("witness-log", ("witness", "--n0", WITNESS_N0,
                                        "--sequence", "log"), "witness"),
                Command("witness-log2", ("witness", "--n0", WITNESS_N0,
                                         "--sequence", "log2"), "witness"),
                Command("identity", ("identity", "--samples", str(IDENTITY_SAMPLES),
                                     "--seed", str(identity_seed)), "identity",
                        {"seed": identity_seed, "samples": IDENTITY_SAMPLES}))
        setup = Command("extrema-sweep", ("extrema", "--sweep", "16"), "extrema-sweep")
    return Workload(name=name, seed=seed, commands=cmds, setup=setup, inputs=inputs)
