"""Run one torusl1 CLI command with spans recorded around its layers.

Usage: python tracer.py SPANS_OUT ARGV...

Wraps public functions of the torusl1 modules from outside (the package
source is untouched), calls torusl1.cli.main(ARGV), then writes the spans
and counts to SPANS_OUT as JSON.  Each function is patched in every module
that bound it, e.g. cosine_poly_points in trigsum, quadrature and
partial_sums, so calls through any import path are recorded.
Timestamps are time.perf_counter() values, which on Linux share one
monotonic clock with the parent process.
"""

import functools
import importlib
import inspect
import json
import sys
import time

T_START = time.perf_counter()


def _n(x):
    # numpy is imported lazily so that the process.import span includes it
    import numpy as np
    return int(np.size(x))


def _broadcast(a, b):
    import numpy as np
    return int(np.broadcast(np.asarray(a), np.asarray(b)).size)


# (module, qualified name, {count key: fn(args, result)}, span tag fn(args) or None);
# args maps parameter names to the values of the call
TARGETS = [
    ("trigsum", "cosine_poly_points",
     {"points": lambda a, r: _n(a["ts"]),
      "terms": lambda a, r: _n(a["ts"]) * _n(a["coeffs"])}, None),
    ("trigsum", "cosine_poly_on_cells",
     {"offsets": lambda a, r: _n(a["offsets"]),
      "cells": lambda a, r: int(a["cell_count"]),
      "terms": lambda a, r: _n(a["offsets"]) * _n(a["coeffs"]),
      "bytes": lambda a, r: 16 * _n(a["offsets"]) * _n(a["coeffs"])}, None),
    ("trigsum", "cosine_poly_grid",
     {"fft_len": lambda a, r: int(a["grid_size"]),
      "terms": lambda a, r: _n(a["coeffs"])}, None),
    ("kernels", "product_frac", {"elements": lambda a, r: _broadcast(a["n"], a["t"])}, None),
    ("kernels", "dirichlet_eval", {"points": lambda a, r: _n(a["t"])}, None),
    ("quadrature", "integrate_abs_partial_sum", {}, lambda a: int(a["N"])),
    ("quadrature", "integrate_signed", {}, None),
    ("quadrature", "residual_l1", {}, None),
    ("quadrature", "norm_trace", {}, None),
    ("partial_sums", "reference_function_grid", {}, None),
    ("partial_sums", "partial_sum_grid", {}, None),
    ("partial_sums", "residual_identity_check", {}, None),
    ("partial_sums", "partial_sum", {}, None),
    ("coefficients", "ConvexSequence.values", {"count": lambda a, r: int(a["count"])}, None),
    ("extrema", "find_extrema", {}, None),
    ("extrema", "crossing_check", {}, None),
    ("exceptional", "build_witness", {"cells": lambda a, r: len(r.Q.intervals)}, None),
    ("exceptional", "nonnegative_cells", {"cells": lambda a, r: len(r)}, None),
    ("diagnostics", "analyze_trace", {}, None),
]


class Tracer:
    """Spans [name, start, end, parent] and per-name counts, kept in memory."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.tags = {}
        self.counts = {}
        self.stack = [-1]

    def open(self, name):
        """Start a span under the innermost open one; returns its index."""
        if name not in self.names:
            self.names.append(name)
        self.spans.append([self.names.index(name), time.perf_counter(), 0.0, self.stack[-1]])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, counts, tag):
        """fn with a span around each call; counts are taken after the span."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if tag is not None or counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                if tag is not None:
                    self.tags[idx] = tag(a)
                for key, count in counts.items():
                    k = f"{name}.{key}"
                    self.counts[k] = self.counts.get(k, 0) + count(a, result)
            return result

        return traced

    def install(self, package):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for mod_name, qual, counts, tag in TARGETS:
            mod = importlib.import_module(f"{package}.{mod_name}")
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, attr)
            wrapped = self.wrap(f"{mod_name}.{qual}", orig, counts, tag)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"t_start": T_START, "names": self.names, "spans": self.spans,
                       "tags": {str(k): v for k, v in self.tags.items()},
                       "counts": self.counts}, fh)


def main(argv):
    spans_out, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    idx = tracer.open("process.import")
    import torusl1.cli
    tracer.close(idx)
    tracer.install("torusl1")
    idx = tracer.open("cli.main")
    try:
        code = torusl1.cli.main(cli_argv)
    finally:
        tracer.close(idx)
        sys.stdout.flush()
        tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
