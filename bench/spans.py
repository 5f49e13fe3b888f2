"""Spans around the public functions of gmepyramid's modules.

``install`` replaces each traced function, in every gmepyramid module that
holds a reference to it, by a wrapper that records a span: name, parent
span, op id, start and end. Spans stay in memory until the run ends. Only
the traced half of a ``--trace 1`` run installs the wrappers; the
end-to-end metrics are measured without them.

Run as a script, this file is the traced stand-in for
``python -m gmepyramid.cli`` used by traced eval-large ops::

    PYTHONPATH=src python3 bench/spans.py SPANS.json eval state.txt --json

It runs the CLI with the wrappers installed and writes its spans to
``SPANS.json`` for the parent benchmark to absorb.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from inputs import NEAR_ZERO

# Per-layer metrics: name, unit, better, the end-to-end metric it should
# move and the workload it should move it on. Values are per op, except
# cut_us (per cut), the GFLOP/s rate, the near-zero share and the per-check
# times (per call of that check). The gram and transpose figures are
# computed from cut shapes, not measured.
LAYER_METRICS = (
    ("cli.startup_ms", "ms", "lower", "latency_p50_ms", "eval-large"),
    ("cli.render_ms", "ms", "lower", "latency_p50_ms, ops_per_s", "eval-small"),
    ("cli.report_bytes", "count", "lower", "latency_p90_ms", "eval-large"),
    ("states.parse_ms", "ms", "lower", "latency_p50_ms", "eval-large"),
    ("states.amps_parsed", "count", "lower", "latency_p50_ms", "eval-large"),
    ("states.construct_ms", "ms", "lower", "ops_per_s", "verify-sweep"),
    ("bipartitions.enumerate_ms", "ms", "lower", "latency_p50_ms", "eval-small"),
    ("bipartitions.cuts", "count", "lower", "ops_per_s", "eval-small"),
    ("concurrence.spectrum_self_ms", "ms", "lower", "ops_per_s", "eval-small, verify-sweep"),
    ("concurrence.cut_calls", "count", "lower", "ops_per_s", "verify-sweep"),
    ("concurrence.cut_us", "us", "lower", "latency_p90_ms", "eval-large"),
    ("concurrence.gram_gflop", "GFLOP", "lower", "latency_p90_ms", "eval-large"),
    ("concurrence.gram_gflops_per_s", "GFLOP/s", "higher", "latency_p90_ms", "eval-large"),
    ("concurrence.transpose_mib", "MiB", "lower", "latency_p90_ms", "eval-large"),
    ("concurrence.oracle_ms", "ms", "lower", "ops_per_s", "verify-sweep"),
    ("measures.geometry_ms", "ms", "lower", "latency_p50_ms", "eval-small"),
    ("measures.near_zero_cut_share", "ratio", "lower", "latency_p90_ms", "eval-small"),
    *(
        (f"verify.check_ms.{check}", "ms", "lower", "ops_per_s", "verify-sweep")
        for check in (
            "biseparable-nullity",
            "ghz-closed-form",
            "lu-invariance",
            "n4-formula-equivalence",
            "oracle-agreement",
            "permutation-invariance",
        )
    ),
    ("verify.trials", "count", "higher", "ops_per_s", "verify-sweep"),
)

PARSE = ("states.load_state", "states.parse_state")
CONSTRUCT = (
    "states.PureState",
    "states.apply_local_unitary",
    "states.permute_subsystems",
    "verify.haar_random_state",
    "verify.random_product_state",
)
RENDER = ("cli.report_document", "cli.dumps_report")


class Tracer:
    """In-memory span store; ``op_id`` tags the spans of the current op."""

    def __init__(self) -> None:
        self.op_id = -1
        self.names: list[str] = []
        self.parent = array("q")
        self.op = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack = [-1]

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call; ``attrs(args, result)`` adds counts."""
        code = self._code(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(self._stack[-1])
            self.op.append(self.op_id)
            self.name.append(code)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if attrs is not None:
                self.attrs[sid] = attrs(args, result)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "parent": self.parent.tolist(),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }

    def absorb(self, doc: dict, op_id: int) -> None:
        """Append the spans a traced subprocess dumped, tagged with ``op_id``."""
        offset = len(self.start)
        codes = [self._code(n) for n in doc["names"]]
        for p, c, s, e in zip(doc["parent"], doc["name"], doc["start"], doc["end"]):
            self.parent.append(p + offset if p >= 0 else -1)
            self.op.append(op_id)
            self.name.append(codes[c])
            self.start.append(s)
            self.end.append(e)
        for k, v in doc["attrs"].items():
            self.attrs[int(k) + offset] = v

    def write(self, path) -> None:
        """Gzipped, one tab-separated line per span: id, parent, op, name,
        start and duration in microseconds (start relative to the first
        span), attrs."""
        t_ref = min(self.start, default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart_us\tdur_us\tattrs\n")
            for i in range(len(self.start)):
                attrs = json.dumps(self.attrs[i], sort_keys=True) if i in self.attrs else ""
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{self.names[self.name[i]]}\t"
                    f"{(self.start[i] - t_ref) * 1e6:.3f}\t"
                    f"{(self.end[i] - self.start[i]) * 1e6:.3f}\t{attrs}\n"
                )


def _parsed(args, state) -> dict:
    return {"amps": int(np.count_nonzero(state.amplitudes))}


def _cuts(args, cuts) -> dict:
    return {"cuts": len(cuts)}


def _spectrum(args, spectrum) -> dict:
    values = list(spectrum.entries.values())
    return {
        "n": len(spectrum.dims),
        "cuts": len(values),
        "near_zero": sum(v < NEAR_ZERO for v in values),
        "real": not np.any(args[0].amplitudes.imag),
    }


def _cut_cost(args, purity) -> dict:
    """Computed cost of one Gram-route cut: flops of the complex Gram product
    of the smaller side plus its Frobenius norm, and the bytes of the
    transposed copy (none when the cut is a leading block of subsystems)."""
    state, cut = args[0], args[1]
    subset = sorted(getattr(cut, "subset", cut))
    d_s = math.prod(state.dims[i - 1] for i in subset)
    small, large = sorted((d_s, state.dim // d_s))
    flop = 8 * small * small * large + 8 * small * small
    copied = 0 if subset == list(range(1, len(subset) + 1)) else 16 * state.dim
    return {"flop": flop, "copy_bytes": copied}


def _outcome(args, outcome) -> dict:
    return {"check": outcome.check, "trials": outcome.trials}


def _rendered(args, text) -> dict:
    return {"bytes": len(text)}


# (module, public function, span name, counts recorded from its arguments
# and result). Every concurrence() call goes through reduced_purity, so the
# reduced_purity span is the per-cut span.
TARGETS = (
    ("states", "parse_state", "states.parse_state", _parsed),
    ("states", "load_state", "states.load_state", None),
    ("states", "apply_local_unitary", "states.apply_local_unitary", None),
    ("states", "permute_subsystems", "states.permute_subsystems", None),
    ("verify", "haar_random_state", "verify.haar_random_state", None),
    ("verify", "random_product_state", "verify.random_product_state", None),
    ("verify", "run_check", "verify.run_check", _outcome),
    ("bipartitions", "canonical_bipartitions", "bipartitions.canonical_bipartitions", _cuts),
    ("concurrence", "full_spectrum", "concurrence.full_spectrum", _spectrum),
    ("concurrence", "reduced_purity", "concurrence.reduced_purity", _cut_cost),
    ("concurrence", "dense_oracle_purity", "concurrence.dense_oracle_purity", None),
    ("measures", "evaluate", "measures.evaluate", None),
    ("cli", "report_document", "cli.report_document", None),
    ("cli", "dumps_report", "cli.dumps_report", _rendered),
    ("cli", "main", "cli.main", None),
)


def install(tracer: Tracer):
    """Wrap every target in all loaded gmepyramid modules; returns an undo."""
    modules = [
        m for name, m in list(sys.modules.items()) if name.split(".")[0] == "gmepyramid"
    ]
    patches = []
    for module, attr, span, attrs in TARGETS:
        original = getattr(sys.modules[f"gmepyramid.{module}"], attr)
        wrapped = tracer.wrap(span, original, attrs)
        for m in modules:
            for key in [k for k, v in vars(m).items() if v is original]:
                patches.append((m, key, original))
                setattr(m, key, wrapped)
    cls = sys.modules["gmepyramid.states"].PureState
    patches.append((cls, "__init__", cls.__init__))
    cls.__init__ = tracer.wrap("states.PureState", cls.__init__)

    def restore() -> None:
        for obj, key, original in reversed(patches):
            setattr(obj, key, original)

    return restore


def analyse(tracer: Tracer) -> dict:
    """Per span name: calls, total and self seconds, and summed counts."""
    n = len(tracer.start)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            child[p] += dur[i]
    names = [tracer.names[c] for c in tracer.name]
    calls: Counter = Counter(names)
    total: defaultdict = defaultdict(float)
    self_s: defaultdict = defaultdict(float)
    counts: defaultdict = defaultdict(Counter)
    check_s: defaultdict = defaultdict(float)
    check_calls: Counter = Counter()
    spectra = []
    parse_outer = 0.0
    for i in range(n):
        name = names[i]
        total[name] += dur[i]
        self_s[name] += dur[i] - child[i]
        if name in PARSE and (tracer.parent[i] < 0 or names[tracer.parent[i]] not in PARSE):
            parse_outer += dur[i]
        attrs = tracer.attrs.get(i)
        if attrs is None:
            continue
        if name == "concurrence.full_spectrum":
            spectra.append(attrs)
        elif name == "verify.run_check":
            check_s[attrs["check"]] += dur[i]
            check_calls[attrs["check"]] += 1
            counts[name]["trials"] += attrs["trials"]
        else:
            counts[name].update(attrs)
    return {
        "calls": calls,
        "total_s": total,
        "self_s": self_s,
        "counts": counts,
        "check_s": check_s,
        "check_calls": check_calls,
        "parse_outer_s": parse_outer,
        "spectra": spectra,
    }


def layer_metrics(a: dict, ops: int, startup_ms: float) -> dict[str, float]:
    """Every LAYER_METRICS value from an ``analyse`` result over ``ops`` ops;
    a layer the workload never reaches reads 0."""
    per_op = 1.0 / ops
    calls, total, self_s, counts = a["calls"], a["total_s"], a["self_s"], a["counts"]
    cut_s = total["concurrence.reduced_purity"]
    cut_calls = calls["concurrence.reduced_purity"]
    flop = counts["concurrence.reduced_purity"]["flop"]
    nz = sum(s["near_zero"] for s in a["spectra"])
    all_cuts = sum(s["cuts"] for s in a["spectra"])
    m = {
        "cli.startup_ms": startup_ms,
        "cli.render_ms": sum(total[k] for k in RENDER) * per_op * 1e3,
        "cli.report_bytes": counts["cli.dumps_report"]["bytes"] * per_op,
        "states.parse_ms": a["parse_outer_s"] * per_op * 1e3,
        "states.amps_parsed": counts["states.parse_state"]["amps"] * per_op,
        "states.construct_ms": sum(self_s[k] for k in CONSTRUCT) * per_op * 1e3,
        "bipartitions.enumerate_ms": total["bipartitions.canonical_bipartitions"] * per_op * 1e3,
        "bipartitions.cuts": counts["bipartitions.canonical_bipartitions"]["cuts"] * per_op,
        "concurrence.spectrum_self_ms": self_s["concurrence.full_spectrum"] * per_op * 1e3,
        "concurrence.cut_calls": cut_calls * per_op,
        "concurrence.cut_us": cut_s / cut_calls * 1e6 if cut_calls else 0.0,
        "concurrence.gram_gflop": flop * per_op / 1e9,
        "concurrence.gram_gflops_per_s": flop / cut_s / 1e9 if cut_s else 0.0,
        "concurrence.transpose_mib": counts["concurrence.reduced_purity"]["copy_bytes"]
        * per_op
        / 2**20,
        "concurrence.oracle_ms": total["concurrence.dense_oracle_purity"] * per_op * 1e3,
        "measures.geometry_ms": self_s["measures.evaluate"] * per_op * 1e3,
        "measures.near_zero_cut_share": nz / all_cuts if all_cuts else 0.0,
        "verify.trials": counts["verify.run_check"]["trials"] * per_op,
    }
    for name, *_ in LAYER_METRICS:
        if name.startswith("verify.check_ms."):
            check = name.rsplit(".", 1)[1]
            k = a["check_calls"][check]
            m[name] = a["check_s"][check] / k * 1e3 if k else 0.0
    return m


def properties(a: dict) -> dict:
    """Input properties of the states whose spectrum the program computed."""
    spectra = a["spectra"]
    if not spectra:
        return {}
    return {
        "states": len(spectra),
        "real_share": statistics.fmean(bool(s["real"]) for s in spectra),
        "near_zero_state_share": statistics.fmean(s["near_zero"] > 0 for s in spectra),
        "n_histogram": dict(sorted(Counter(s["n"] for s in spectra).items())),
    }


def _launch(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    import gmepyramid.cli

    tracer = Tracer()
    tracer.op_id = 0
    install(tracer)
    try:
        return gmepyramid.cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(_launch(sys.argv[1:]))
