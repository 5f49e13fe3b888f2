"""The three benchmark workloads.

Each is a closed loop with one client: the next op starts when the previous
one has returned and been checked. Inputs come only from the workload seed,
and op ``i`` is a pure function of (seed, i), so any op can be replayed.
Ops run in whole cycles; each cycle runs every op kind (one input, repeating
the same work) the same number of times in a seeded order, so every run
weighs the kinds alike whatever the seed.

The program is reached only through its public functions and its CLI, and
always through a module attribute looked up at call time, so that the
wrappers of a traced run see every call.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CLI_TIMEOUT_S = 120


class Schedule:
    """Op ``i`` -> position in the cycle's seeded permutation of ``size`` kinds."""

    def __init__(self, seed: int, stream: int, size: int) -> None:
        self.seed, self.stream, self.size = seed, stream, size
        self._cycle, self._order = -1, None

    def __getitem__(self, i: int) -> int:
        cycle = i // self.size
        if cycle != self._cycle:
            rng = np.random.default_rng([self.seed, self.stream, cycle])
            self._cycle, self._order = cycle, rng.permutation(self.size)
        return int(self._order[i % self.size])


def run_cli(args: list[str], script: list[str] | None = None) -> str:
    """Run the CLI (or a traced stand-in) to completion; stdout on exit 0."""
    cmd = [sys.executable, *(script or ["-m", "gmepyramid.cli"]), *args]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def check_report(verified: dict, kind, out: str, ref: inputs.Reference) -> list[str]:
    """Gate one rendered report; an output already verified for ``kind`` is
    accepted by string comparison."""
    if verified.get(kind) == out:
        return []
    problems = inputs.check_state(json.loads(out)["states"][0], ref)
    if not problems:
        verified[kind] = out
    return problems


def warm_up(wl, ops) -> None:
    """Run and check ``ops`` once before timing starts. A failure is not
    raised here: the timed window runs the same op kinds and counts it."""
    for i in ops:
        try:
            wl.check(i, wl.run_op(i))
        except Exception:  # counted when the timed window meets it again
            pass


class EvalLarge:
    """``python -m gmepyramid.cli eval FILE --json`` in a subprocess per op.

    Every op pays interpreter start-up and imports; at N = 13 the per-cut
    transpose and Gram product dominate. Real versus complex and sparse
    versus dense files separate kernel from parse costs.
    """

    name = "eval-large"
    FILES = {
        "haar11": ((2,) * 11, "haar"),
        "haar12": ((2,) * 12, "haar"),
        "haar13": ((2,) * 13, "haar"),
        "real13": ((2,) * 13, "real"),
        "ghz13": ((2,) * 13, "ghz"),
        "mixed11": ((3, 3) + (2,) * 9, "haar"),
    }
    # The cheap files run three times per cycle so that the median latency
    # falls inside one file's latency mode, not in the gap between two, and
    # rests on many repeats.
    SCHEDULE = ("haar11",) * 3 + ("mixed11",) * 3 + ("haar12", "haar13", "real13", "ghz13")
    cycle = len(SCHEDULE)

    @classmethod
    def generate(cls, seed: int) -> dict[str, tuple[tuple[int, ...], np.ndarray]]:
        """File key -> (dims, unit amplitude vector), from the seed alone."""
        rng = np.random.default_rng([seed, 0])
        draw = {
            "haar": inputs.haar,
            "real": inputs.real_gaussian,
            "ghz": lambda _, dims: inputs.ghz(len(dims)),
        }
        return {key: (dims, draw[kind](rng, dims)) for key, (dims, kind) in cls.FILES.items()}

    def __init__(self, gp, seed: int, workdir: Path) -> None:
        self.dir = workdir
        self.refs = {}
        for key, (dims, amps) in self.generate(seed).items():
            inputs.write_state(self.path(key), dims, amps)
            self.refs[key] = inputs.reference(dims, amps, gp.DEFAULT_ZERO_TOL, inputs.GME)
        self.schedule = Schedule(seed, 0, self.cycle)
        self.verified: dict[str, str] = {}
        warm_up(self, [next(i for i in range(self.cycle) if self.kind(i) == "haar11")])

    def path(self, key: str) -> Path:
        return self.dir / f"{key}.txt"

    def kind(self, i: int) -> str:
        """File that op ``i`` evaluates."""
        return self.SCHEDULE[self.schedule[i]]

    def describe(self, i: int) -> str:
        return f"eval {self.kind(i)}"

    def run_op(self, i: int, tracer=None) -> str:
        args = ["eval", str(self.path(self.kind(i))), "--json"]
        if tracer is None:
            return run_cli(args)
        with tempfile.NamedTemporaryFile(dir=self.dir, suffix=".json") as spans:
            out = run_cli(args, script=[str(BENCH / "spans.py"), spans.name])
            tracer.absorb(json.load(spans), i)
        return out

    def check(self, i: int, out: str) -> list[str]:
        return check_report(self.verified, self.kind(i), out, self.refs[self.kind(i)])


class EvalSmall:
    """``evaluate`` then ``dumps_report(report_document(...))`` in process.

    N = 3..7 with local dims in {2, 3}: per-cut Python overhead and
    rendering dominate and kernel flops are negligible. A third of the
    states are exact products across a random cut, so near-zero cuts are
    common.
    """

    name = "eval-small"
    HAAR_PER_SHAPE = 12
    PRODUCTS_PER_SHAPE = 6

    @classmethod
    def generate(cls, seed: int) -> list[tuple[tuple[int, ...], np.ndarray, str, str]]:
        """(dims, unit amplitude vector, class by construction, kind) per state.

        Every (N, number of qutrits) shape gets the same counts of Haar
        states and of products, so only amplitudes, qutrit sites and product
        cuts depend on the seed.
        """
        rng = np.random.default_rng([seed, 1])
        pool = []
        for n in range(3, 8):
            for threes in range(3):
                dims = [2] * n
                for site in rng.choice(n, size=threes, replace=False):
                    dims[site] = 3
                dims = tuple(dims)
                for _ in range(cls.HAAR_PER_SHAPE):
                    pool.append((dims, inputs.haar(rng, dims), inputs.GME, "haar"))
                for j in range(cls.PRODUCTS_PER_SHAPE):
                    k = int(rng.integers(1, n // 2 + 1))
                    sites = tuple(sorted(int(s) + 1 for s in rng.choice(n, size=k, replace=False)))
                    real = j % 2 == 1
                    kind = f"{'real ' if real else ''}product across {inputs.label(sites)}"
                    amps = inputs.product(rng, dims, sites, real)
                    pool.append((dims, amps, inputs.BISEPARABLE, kind))
            pool.append(((2,) * n, inputs.ghz(n), inputs.GME, "ghz"))
            pool.append(((2,) * n, inputs.w(n), inputs.GME, "w"))
        return pool

    def __init__(self, gp, seed: int, workdir: Path) -> None:
        self.gp, self.cli = gp, gp.cli
        self.zero_tol = gp.DEFAULT_ZERO_TOL
        self.pool = []  # (state id, PureState, Reference, description)
        for dims, amps, expected, kind in self.generate(seed):
            ref = inputs.reference(dims, amps, self.zero_tol, expected)
            sid = f"s{len(self.pool):03d}"
            self.pool.append((sid, gp.PureState(dims, amps), ref, f"{kind} dims {dims}"))
        self.cycle = len(self.pool)
        self.schedule = Schedule(seed, 1, self.cycle)
        self.verified: dict[int, str] = {}
        warm_up(self, range(self.cycle))

    def kind(self, i: int) -> int:
        """Pool index of the state that op ``i`` evaluates."""
        return self.schedule[i]

    def describe(self, i: int) -> str:
        sid, _, _, what = self.pool[self.kind(i)]
        return f"evaluate {sid}: {what}"

    def run_op(self, i: int, tracer=None) -> str:
        sid, state, _, _ = self.pool[self.kind(i)]
        report = self.gp.evaluate(state, sid)
        return self.cli.dumps_report(self.cli.report_document([report], self.zero_tol))

    def check(self, i: int, out: str) -> list[str]:
        return check_report(self.verified, self.kind(i), out, self.pool[self.kind(i)][2])


class VerifySweep:
    """``run_check(name, TrialConfig(dims, trials, seed))`` in process.

    The only workload that builds fresh states every trial (Haar states,
    local unitaries, permutations, products) and calls ``full_spectrum``
    many times on states of one shape. The dense oracle stays at N <= 6.
    """

    name = "verify-sweep"
    # Few trials per op keep ops short, so each kind repeats many times a run.
    TRIALS = 2
    COMBOS = [
        *((check, n, mixed)
          for check in ("lu-invariance", "permutation-invariance", "biseparable-nullity")
          for n in range(4, 8) for mixed in (False, True)),
        *(("oracle-agreement", n, mixed) for n in range(4, 7) for mixed in (False, True)),
        *(("n4-formula-equivalence", 4, mixed) for mixed in (False, True)),
        ("ghz-closed-form", 4, False),  # fixed N = 4..8 whatever the dims
    ]  # fmt: skip
    cycle = len(COMBOS)

    def __init__(self, gp, seed: int, workdir: Path) -> None:
        self.gp, self.seed = gp, seed
        self.schedule = Schedule(seed, 2, self.cycle)
        first = {self.config(i)[0]: i for i in reversed(range(self.cycle))}
        warm_up(self, first.values())

    def kind(self, i: int) -> int:
        """Index of op ``i``'s combination; ops of one kind are identical."""
        return self.schedule[i]

    def config(self, i: int) -> tuple[str, tuple[int, ...], int]:
        check, n, mixed = self.COMBOS[self.kind(i)]
        rng = np.random.default_rng([self.seed, 2, self.kind(i)])
        dims = [2] * n
        if mixed:
            for site in rng.choice(n, size=2, replace=False):
                dims[site] = 3
        return check, tuple(dims), int(rng.integers(2**31))

    def describe(self, i: int) -> str:
        check, dims, trial_seed = self.config(i)
        return f"{check} dims {dims} trials {self.TRIALS} seed {trial_seed}"

    def run_op(self, i: int, tracer=None):
        check, dims, trial_seed = self.config(i)
        return self.gp.run_check(check, self.gp.TrialConfig(dims, self.TRIALS, trial_seed))

    def check(self, i: int, outcome) -> list[str]:
        if outcome.passed:
            return []
        return [f"{outcome.check} failed: max deviation {outcome.max_deviation!r} "
                f"> {outcome.tolerance!r} at trial {outcome.worst_trial}"]  # fmt: skip


WORKLOADS = {w.name: w for w in (EvalLarge, EvalSmall, VerifySweep)}
