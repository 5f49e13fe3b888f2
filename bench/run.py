#!/usr/bin/env python3
"""Layered benchmark of gmepyramid: three seeded workloads behind one command.

    python3 bench/run.py --workload eval-small --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each exists): ``eval-large`` runs the
CLI on large state files, one subprocess per op; ``eval-small`` evaluates
and renders small states in process; ``verify-sweep`` runs the seeded
property checks in process. Every op's output is checked against the
benchmark's own reference values, and a wrong output, an exception or a
nonzero exit counts as failed.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
Latency and throughput come from each op kind's least latency in the
window (see ``best_latencies``), which repeats from run to run on a box
shared with other load; the whole-window figures are printed as well.
``--trace 1`` runs the first half of the window untraced and the second
half with spans around the public functions of every module, and reports
the per-layer metrics, the tracing overhead and the input properties.
``--replay OP`` re-runs op number OP of the seeded schedule, traced, and
prints its spans; the slowest ops of each run are listed with that command.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A results record with the
provenance of the run, and the spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated and its median reported, so one slow repetition does
# not move setup_s.
SETUP_REPEATS = 3
STARTUP_RUNS = 5
SLOWEST_LISTED = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


@dataclass
class Window:
    """Ops run in one timed window; ``seconds`` excludes output checking."""

    first_op: int
    latencies: list[float] = field(default_factory=list)
    failures: list[tuple[int, list[str]]] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ok(self) -> int:
        return self.attempted - len(self.failures)

    @property
    def ops_per_s(self) -> float:
        return self.ok / self.seconds


def attempt(wl, i: int, w: Window, tracer=None) -> float:
    """Run and check op ``i`` into ``w``; returns the seconds spent checking."""
    if tracer is not None:
        tracer.op_id = i
    t0 = time.perf_counter()
    t1 = None
    try:
        out = wl.run_op(i, tracer)
        t1 = time.perf_counter()
        problems = wl.check(i, out)
    except Exception as exc:  # a failing op or unreadable output is counted, not fatal
        t1 = t1 or time.perf_counter()
        problems = [f"{type(exc).__name__}: {exc}"]
    w.latencies.append(t1 - t0)
    if problems:
        w.failures.append((i, problems))
    return time.perf_counter() - t1


def measure(wl, seconds: float, first_op: int, tracer=None) -> Window:
    """Closed loop over whole cycles until ``seconds`` of op time have passed."""
    w = Window(first_op)
    checking = 0.0
    start = time.perf_counter()
    while w.seconds < seconds:
        for i in range(first_op + w.attempted, first_op + w.attempted + wl.cycle):
            checking += attempt(wl, i, w, tracer)
        w.seconds = time.perf_counter() - start - checking
    return w


def best_latencies(wl, w: Window) -> list[float]:
    """Each op's latency replaced by the least latency of its kind in ``w``.

    Ops of one kind repeat the same work, so their spread within a run is
    interference: on a shared box other tenants slow a core by up to ~2x for
    seconds at a time. The least latency of a kind is what the program
    costs without that interference, and it repeats from run to run.
    """
    kinds = [wl.kind(w.first_op + k) for k in range(w.attempted)]
    least: dict = {}
    for kind, latency in zip(kinds, w.latencies):
        least[kind] = min(latency, least.get(kind, latency))
    return [least[kind] for kind in kinds]


def throughput(wl, w: Window) -> float:
    """Correct ops per second of summed least latencies (see best_latencies)."""
    return w.ok / sum(best_latencies(wl, w))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):  # fmt: skip
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def provenance(np, seed: int) -> dict:
    """Machine, library and source identity of one run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def cli_startup_ms(run_cli) -> float:
    times = []
    for _ in range(STARTUP_RUNS):
        t0 = time.perf_counter()
        run_cli(["--version"])
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def slowest(wl, w: Window, args) -> list[dict]:
    ranked = sorted(range(w.attempted), key=w.latencies.__getitem__, reverse=True)
    return [
        {
            "op": w.first_op + k,
            "latency_ms": w.latencies[k] * 1e3,
            "what": wl.describe(w.first_op + k),
            "replay": f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
            f"--replay {w.first_op + k}",
        }
        for k in ranked[:SLOWEST_LISTED]
    ]


def print_spans(a: dict, ops: int) -> None:
    print(f"{'span':<40}{'calls/op':>11}{'self ms/op':>12}{'total ms/op':>13}")
    for name in sorted(a["calls"], key=lambda k: -a["self_s"][k]):
        print(
            f"{name:<40}{a['calls'][name] / ops:>11.2f}"
            f"{a['self_s'][name] / ops * 1e3:>12.4f}{a['total_s'][name] / ops * 1e3:>13.4f}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, default=None, metavar="OP")
    args = parser.parse_args(argv)

    if not (SRC / "gmepyramid" / "__init__.py").is_file():
        print(f"error: no gmepyramid sources under {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import gmepyramid as gp
    import gmepyramid.cli  # noqa: F401  (ops render through gp.cli)

    import_s = time.perf_counter() - t0
    if SRC not in Path(gp.__file__).resolve().parents:
        print(f"error: imported gmepyramid from {gp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import spans as tr
    from workloads import WORKLOADS, run_cli

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)  # fmt: skip
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        return run(args, gp, np, tr, WORKLOADS[args.workload], run_cli, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, gp, np, tr, make, run_cli, workdir: Path, import_s: float) -> int:
    setups = []
    for _ in range(1 if args.trace or args.replay is not None else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = make(gp, args.seed, workdir)
        setups.append(time.perf_counter() - t0)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(np, args.seed),
    }

    if args.replay is not None:
        tracer = tr.Tracer()
        restore = tr.install(tracer)
        try:
            w = Window(args.replay)
            attempt(wl, args.replay, w, tracer)
        finally:
            restore()
        print(f"op {args.replay}: {wl.describe(args.replay)}")
        print(f"latency {w.latencies[0] * 1e3:.3f} ms")
        for _, problems in w.failures:
            print("FAILED: " + "; ".join(problems))
        print_spans(tr.analyse(tracer), 1)
        return 1 if w.failures else 0

    if args.trace:
        untraced = measure(wl, args.seconds / 2, 0)
        tracer = tr.Tracer()
        restore = tr.install(tracer)
        try:
            w = measure(wl, args.seconds / 2, untraced.attempted, tracer)
        finally:
            restore()
        analysis = tr.analyse(tracer)
        metrics = tr.layer_metrics(analysis, w.attempted, cli_startup_ms(run_cli))
        units = {name: unit for name, unit, *_ in tr.LAYER_METRICS}
        traced_rate, untraced_rate = throughput(wl, w), throughput(wl, untraced)
        overhead = 1.0 - traced_rate / untraced_rate
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        record.update(
            untraced_ops_per_s=untraced_rate,
            traced_ops_per_s=traced_rate,
            tracing_overhead=overhead,
            properties=tr.properties(analysis),
            spans_file=str(spans_path.relative_to(ROOT)),
        )
        print_spans(analysis, w.attempted)
        print(f"tracing overhead: {overhead:.1%} (traced {traced_rate:.2f} ops/s over "
              f"{w.attempted} ops, untraced {untraced_rate:.2f} ops/s over "
              f"{untraced.attempted} ops)")  # fmt: skip
        print(f"input properties: {json.dumps(record['properties'])}")
        failures = untraced.failures + w.failures
        attempted = untraced.attempted + w.attempted
    else:
        w = measure(wl, args.seconds, 0)
        best = best_latencies(wl, w)
        p90 = percentile(best, 90)
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "ops_per_s": w.ok / sum(best),
            "latency_p50_ms": statistics.median(best) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "peak_rss_mib": peak_rss_mib(),
        }
        units = dict(END_TO_END)
        failures, attempted = w.failures, w.attempted
        record.update(
            import_s=import_s,
            setup_repeats_s=setups,
            samples=w.attempted,
            samples_beyond_p90=sum(x > p90 for x in best),
            window_s=w.seconds,
            window_ops_per_s=w.ops_per_s,
            window_latency_p50_ms=statistics.median(w.latencies) * 1e3,
            window_latency_p90_ms=percentile(w.latencies, 90) * 1e3,
        )

    record.update(
        attempted=attempted,
        failed=len(failures),
        failed_frac=len(failures) / attempted,
        failures=[{"op": i, "problems": p[:3]} for i, p in failures[:5]],
        slowest=slowest(wl, w, args),
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    )
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    moves = {name: f"  -> {m} on {on}" for name, _, _, m, on in tr.LAYER_METRICS}
    for k, v in metrics.items():
        print(f"{k:<44}{v:>16.6g} {units[k]}{moves.get(k, '')}")
    if not args.trace:
        print(f"latency samples: {record['samples']}, beyond p90: {record['samples_beyond_p90']}")
        print(f"over the whole window, interference included: "
              f"{record['window_ops_per_s']:.6g} ops/s, "
              f"p50 {record['window_latency_p50_ms']:.6g} ms, "
              f"p90 {record['window_latency_p90_ms']:.6g} ms")  # fmt: skip
    print(f"failed_frac: {record['failed_frac']:.4g} ({len(failures)} of {attempted} attempted)")
    for f in record["failures"]:
        print(f"  op {f['op']} ({wl.describe(f['op'])}): {'; '.join(f['problems'])}")
    for s in record["slowest"]:
        print(f"slow op {s['op']} {s['latency_ms']:.2f} ms ({s['what']}): {s['replay']}")
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
