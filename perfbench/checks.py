"""References and output checks for the torusl1 benchmark.

A value v with error bar err passes against a reference ref with error bar
err_ref when |v - ref| <= err + err_ref; exact references have err_ref = 0.

Exact references, computed here without torusl1:
  * int |D_N| from Fejer's formula for the Lebesgue constants;
  * int |S_N| = a_0 for the log2 family on the full torus, valid through
    N = 16384 only (on a 2^22 grid S_N goes negative near the origin from
    N = 32768 on);
  * closed forms for kernel extrema heights, witness measures and the
    identity sample draws.
Everything else is compared with goldens recorded from an earlier commit
(goldens.json), plus bounds that hold for every seed.
"""

import json
import math

import numpy as np

import workloads

NO_BAR_RTOL = 1e-10   # relative tolerance for values reported without an error bar


def lebesgue_constant(N):
    """int_{-1/2}^{1/2} |D_N| = 1/L + (2/pi) sum_{k=1}^{N} tan(pi k/L)/k, L = 2N+1.

    Near k = N the tangent is large and pi k/L rounds badly, so for
    k > L/4 it is taken as 1/tan(pi (L - 2k)/(2L)), whose argument is small
    and exact to an ulp.  Summed with math.fsum.
    """
    L = 2 * N + 1
    terms = [1.0 / L]
    for k in range(1, N + 1):
        if 4 * k > L:
            t = 1.0 / math.tan(math.pi * (L - 2 * k) / (2 * L))
        else:
            t = math.tan(math.pi * k / L)
        terms.append(2.0 / math.pi * t / k)
    return math.fsum(terms)


def _log_family_head(power):
    a2 = 1.0 / math.log(2.0) ** power
    a3 = 1.0 / math.log(3.0) ** power
    a1 = 2.0 * a2 - a3
    return 2.0 * a1 - a2, a1


def log_family(power, count):
    """a_0..a_{count-1} of a_n = 1/ln^power n, head filled by linear extension."""
    n = np.arange(count, dtype=float)
    with np.errstate(divide="ignore"):
        a = 1.0 / np.log(n) ** power
    a[:2] = _log_family_head(power)
    return a


def signed_integral(coeffs, pieces):
    """int_E c_0 + sum 2 c_m cos(2 pi m t) dt over a union E, in closed form."""
    m = np.arange(1, len(coeffs), dtype=float)
    total = 0.0
    for lo, hi in pieces:
        total += coeffs[0] * (hi - lo)
        total += float(coeffs[1:] @ ((np.sin(2 * np.pi * m * hi)
                                      - np.sin(2 * np.pi * m * lo)) / (np.pi * m)))
    return total


def dirichlet_closed(N, t):
    """D_N(t) = sin(L pi t)/sin(pi t) with L t reduced to its nearest integer k."""
    L = 2 * N + 1
    y = L * t
    k = np.round(y)
    sign = np.where(k % 2 == 0, 1.0, -1.0)
    return sign * np.sin(np.pi * (y - k)) / np.sin(np.pi * t)


class Checker:
    """Checks one command's output; collects failures and error ratios."""

    def __init__(self, goldens, seed):
        self.goldens = goldens
        self.seed = seed
        self.failures = []
        self.rel_errs = []

    def fail(self, msg):
        self.failures.append(msg)

    def close(self, label, v, err, ref, err_ref=0.0):
        if not (math.isfinite(v) and math.isfinite(err) and err >= 0.0):
            self.fail(f"{label}: value {v!r} or error {err!r} not finite/nonnegative")
        elif abs(v - ref) > err + err_ref:
            self.fail(f"{label}: |{v!r} - {ref!r}| > {err!r} + {err_ref!r}")

    def close_rel(self, label, v, ref, rtol=NO_BAR_RTOL):
        if not abs(v - ref) <= rtol * abs(ref):
            self.fail(f"{label}: {v!r} differs from {ref!r} by more than {rtol:g} relative")

    def golden_trace(self, label, trace, golden):
        missing = [e["N"] for e in trace if str(e["N"]) not in golden]
        if missing:
            self.fail(f"{label}: no golden for orders {missing}")
            return
        for e in trace:
            ref, err_ref = golden[str(e["N"])]
            self.close(f"{label} N={e['N']}", e["value"], e["error"], ref, err_ref)

    def seeded_golden(self, name, info):
        """Golden of a seeded command, or None when this seed has none."""
        entry = self.goldens["seeded"].get(str(self.seed), {}).get(name)
        if entry is None:
            return None
        if [list(p) for p in entry["union"]] != [list(p) for p in info["union"]]:
            self.fail(f"{name}: golden input for seed {self.seed} differs from the generated one")
            return None
        return entry["trace"]

    def norms_trace(self, cmd, out):
        """The trace of a norms output, after checking it has every requested order."""
        trace = json.loads(out)["trace"]
        spec = cmd.argv[cmd.argv.index("--n") + 1]
        want = workloads.orders(spec) if ".." in spec else [int(spec)]
        if [e["N"] for e in trace] != want:
            self.fail(f"{cmd.name}: orders {[e['N'] for e in trace]}, want {want}")
        for e in trace:
            self.ratio(e["error"] / abs(e["value"]))
        return trace

    def ratio(self, r):
        """An output's error/|value|; kept only for seed-independent commands."""
        if not self.current.seeded:
            self.rel_errs.append(r)

    # -- per-command checks ---------------------------------------------

    def run(self, cmd, out):
        """Check output bytes `out` of `cmd`; returns the parsed values."""
        self.current = cmd
        try:
            return getattr(self, "check_" + cmd.check.replace("-", "_"))(cmd, out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            self.fail(f"{cmd.name}: output did not parse ({type(exc).__name__}: {exc})")
            return None

    def check_abs_log(self, cmd, out):
        trace = self.norms_trace(cmd, out)
        full = self.goldens["fixed"]["abs-full-log"]
        a = log_family(1, max(e["N"] for e in trace) + 1)
        union = cmd.info.get("union")
        if union is None:
            self.golden_trace(cmd.name, trace, full)
            for e in trace:   # int |S_N| >= int S_N = a_0
                if e["value"] < a[0] - e["error"]:
                    self.fail(f"{cmd.name} N={e['N']}: below a_0")
        else:
            golden = self.seeded_golden(cmd.name, cmd.info)
            if golden is not None:
                self.golden_trace(cmd.name, trace, golden)
            for e in trace:
                v, err, N = e["value"], e["error"], e["N"]
                lower = abs(signed_integral(a[:N + 1], union)) - 1e-9
                upper = full[str(N)][0] + full[str(N)][1] + err
                if not lower - err <= v <= upper:
                    self.fail(f"{cmd.name} N={N}: {v!r} outside [|int_E S_N|, int_T |S_N|]")
        return trace

    def check_dirichlet(self, cmd, out):
        trace = self.norms_trace(cmd, out)
        for e in trace:
            self.close(f"{cmd.name} N={e['N']}", e["value"], e["error"],
                       lebesgue_constant(e["N"]))
        return trace

    def check_log2_a0(self, cmd, out):
        trace = self.norms_trace(cmd, out)
        a0 = _log_family_head(2)[0]
        for e in trace:
            if e["N"] > 16384:
                self.fail(f"{cmd.name}: a_0 is no reference beyond N=16384")
            self.close(f"{cmd.name} N={e['N']}", e["value"], e["error"], a0)
        return trace

    def check_residual(self, cmd, out):
        trace = self.norms_trace(cmd, out)
        for e in trace:
            if not (0.0 < e["value"] < math.inf and 0.0 <= e["error"] < e["value"]):
                self.fail(f"{cmd.name} N={e['N']}: value {e['value']!r} "
                          f"with error {e['error']!r} is not a positive estimate")
        if cmd.seeded:
            golden = self.seeded_golden(cmd.name, cmd.info)
        else:
            golden = self.goldens["fixed"][cmd.name]
        if golden is not None:
            self.golden_trace(cmd.name, trace, golden)
        return trace

    def check_extrema_sweep(self, cmd, out):
        rows = csv_rows(out)
        golden = self.goldens["fixed"]["extrema-sweep"]
        for N, c_sum, ratio in rows:
            N = int(N)
            self.close_rel(f"{cmd.name} N={N} c_sum", float(c_sum), golden[str(N)])
            self.close_rel(f"{cmd.name} N={N} ratio", float(ratio),
                           float(c_sum) / math.log(N), 1e-15)
        return {int(r[0]): float(r[1]) for r in rows}

    def check_extrema_table(self, cmd, out):
        head = _csv_header(out)
        N = int(head["N"])
        L = 2 * N + 1
        rows = np.array(csv_rows(out), dtype=float)
        if rows.shape != (N + 1, 4):
            self.fail(f"{cmd.name}: {rows.shape[0]} rows, want N+1 = {N + 1}")
            return None
        i, t, h, c = rows.T
        if not np.array_equal(i, np.arange(1, N + 2)):
            self.fail(f"{cmd.name}: row indices are not 1..N+1")
        if not (h[0] == L and t[0] == 0.0 and t[-1] == 0.5 and h[-1] == (-1) ** N):
            self.fail(f"{cmd.name}: endpoint rows are not (0, 2N+1) and (1/2, (-1)^N)")
        k = np.arange(1, N)
        inner = t[1:-1]
        if not np.all((k / L <= inner) & (inner <= (k + 1) / L)):
            self.fail(f"{cmd.name}: an interior extremum lies outside its zero bracket")
        ref = dirichlet_closed(N, inner)
        worst = float(np.max(np.abs(h[1:-1] - ref) / np.abs(ref)))
        if worst > 1e-9:
            self.fail(f"{cmd.name}: heights differ from sin(L pi t)/sin(pi t) by {worst:.3g}")
        if np.any(np.sign(h[1:-1]) != np.where(k % 2 == 0, 1.0, -1.0)):
            self.fail(f"{cmd.name}: extremum signs do not alternate as (-1)^k")
        if np.max(np.abs(c - np.abs(h) / N)) > 1e-15 * np.max(c):
            self.fail(f"{cmd.name}: c != |height|/N")
        env = float(head["envelope_max_error"])
        self.ratio(env)
        if not 0.0 <= env <= 1e-9:
            self.fail(f"{cmd.name}: envelope identity off by {env!r}")
        c_sum = math.fsum(c)
        golden = self.goldens["fixed"]["extrema-sweep"].get(str(N))
        if golden is not None:
            self.close_rel(f"{cmd.name} sum c", c_sum, golden)
        return {"N": N, "c_sum": c_sum, "envelope_max_error": env}

    def check_witness(self, cmd, out):
        body = json.loads(out)
        golden = self.goldens["fixed"][cmd.name]
        for w in body["witnesses"]:
            N0 = w["N0"]
            label = f"{cmd.name} N0={N0}"
            ref, err_ref = golden[str(N0)]
            self.close(label, w["integral"], w["integral_error"], ref, err_ref)
            self.close(label + " measure", w["measure"], 1e-15, 2.0 / (2 * N0 + 1))
            self.ratio(w["integral_error"] / abs(w["integral"]))
        if sorted(golden) != sorted(str(w["N0"]) for w in body["witnesses"]):
            self.fail(f"{cmd.name}: scales differ from the golden's")
        return {w["N0"]: [w["integral"], w["integral_error"]] for w in body["witnesses"]}

    def check_identity(self, cmd, out):
        body = json.loads(out)
        checks = body["checks"]
        rng = np.random.default_rng(cmd.info["seed"])
        if len(checks) != cmd.info["samples"]:
            self.fail(f"{cmd.name}: {len(checks)} checks, want {cmd.info['samples']}")
        for c in checks:
            n = int(rng.integers(2, 65))
            t = float(rng.uniform(0.05, 0.45))
            if (c["N"], c["t"]) != (n, t):
                self.fail(f"{cmd.name}: sample ({c['N']}, {c['t']!r}) "
                          f"is not the seeded ({n}, {t!r})")
                break
            if abs(c["lhs"] - c["rhs"]["derived"]) > c["tolerance"]:
                self.fail(f"{cmd.name} N={n} t={t!r}: derived identity does not close")
        if not body["all_matched"]:
            self.fail(f"{cmd.name}: all_matched is false")
        return {"checks": len(checks), "matched_variant": body["matched_variant"]}


def csv_rows(out):
    text = out.decode() if isinstance(out, bytes) else out
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _csv_header(out):
    text = out.decode() if isinstance(out, bytes) else out
    head = {}
    for ln in text.splitlines():
        if ln.startswith("# ") and "=" in ln:
            key, _, val = ln[2:].partition("=")
            head[key] = val
    return head
