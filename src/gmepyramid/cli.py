"""Command-line front end.

Subcommands: ``eval`` computes the measures of a state file, ``bipartitions``
streams the canonical cuts, ``paper`` evaluates the built-in benchmark states
against their published reference values, and ``random`` runs one of the
seeded property checks. Exit status is 0 only when everything requested
succeeded; parse failures and failed checks are nonzero. Human-readable
output prints 4 decimals; ``--json`` carries full precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

from . import __version__
from .bipartitions import _cut_table, _label, _subsets
from .catalog import PAPER_STATES, PUBLISHED_TOL, benchmark_states
from .measures import DEFAULT_ZERO_TOL, MeasureReport, check_tolerance, evaluate
from .states import MAX_PARTIES, StateFormatError, _plain, check_subsystem_count, load_state
from .verify import CHECK_NAMES, TrialConfig, TrialOutcome, run_check

REPORT_SCHEMA = "gme-pyramid-report/1"


def _state_json(report: MeasureReport) -> dict:
    spectrum = report.spectrum
    labels = _cut_table(spectrum.n).labels
    return {
        "id": report.state_id,
        "dims": list(spectrum.dims),
        "volume": report.volume,
        "c_gme": report.c_gme,
        "triangle": report.triangle,
        "classification": report.classification,
        "concurrences": dict(zip(labels, spectrum.values)),
        "zero_cuts": [cut.label() for cut in report.zero_cuts],
        "notes": list(report.notes),
    }


def report_document(
    states: list[MeasureReport],
    zero_tol: float,
    paper_rows: list[dict] | None = None,
    checks: list[TrialOutcome] | None = None,
) -> dict:
    doc = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "tolerances": {"zero": zero_tol},
        "states": [_state_json(r) for r in states],
    }
    if paper_rows is not None:
        doc["paper_rows"] = paper_rows
    if checks is not None:
        doc["checks"] = [dataclasses.asdict(outcome) for outcome in checks]
    return doc


_encode_str = json.encoder.encode_basestring_ascii


def _render(value, indent: str) -> str:
    if isinstance(value, float):
        return float.__repr__(value) if -math.inf < value < math.inf else json.dumps(value)
    if isinstance(value, str):
        return _encode_str(value)
    if type(value) is int:  # a bool is named below, other int subclasses go to json.dumps
        return int.__repr__(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        # A concurrence block of n parties holds its table's 2^(n-1) - 1 labels
        # in order, "1" first. A float sum is finite only if every term is.
        if type(value) is dict and next(iter(value)) == "1" and (n := len(value).bit_length() + 1) <= MAX_PARTIES:
            table = _cut_table(n)
            if tuple(value) == table.labels:
                order, keys, templates = table.frame
                row = order(tuple(value.values()))
                if set(map(type, row)) == {float} and math.isfinite(sum(row)):
                    if indent not in templates:
                        templates[indent] = f"{{\n{inner}" + (",\n" + inner).join(keys) + f"\n{indent}}}"
                    return templates[indent] % row
        body = (",\n" + inner).join(
            [f"{_encode_str(k)}: {_render(v, inner)}" for k, v in sorted(value.items())]
        )
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        body = (",\n" + inner).join([_render(v, inner) for v in value])
        return f"[\n{inner}{body}\n{indent}]"
    if value is None or type(value) is bool:
        return {None: "null", True: "true", False: "false"}[value]
    return json.dumps(value)


def dumps_report(doc: dict) -> str:
    """Canonical JSON rendering, byte-identical to ``json.dumps(doc, indent=2,
    sort_keys=True)`` for every document whose keys are strings (every report
    is), so parsing and re-dumping is byte-identical too.

    One recursive join: keys and strings go through json's C string encoder,
    finite floats and plain ints through their ``__repr__``, None and bools
    to their names and every other scalar through ``json.dumps``; ``indent``
    alone would select json's pure-Python encoder. A plain dict whose key
    tuple is a report's concurrence block, and whose values are all finite
    floats of type ``float``, is rendered from the frame of its party
    count's cut table (``bipartitions._CutTable.frame``): one %-format.
    Only a plain dict whose first key is ``"1"`` reads the table.
    """
    return _render(doc, "")


def _print_report(report: MeasureReport) -> None:
    spectrum = report.spectrum
    print(f"state: {report.state_id} (dims {'x'.join(str(d) for d in spectrum.dims)})")
    print(f"classification: {report.classification}")
    if report.volume is not None:
        print(f"volume: {report.volume:.4f}")
    print(f"c_gme: {report.c_gme:.4f}")
    if report.triangle is not None:
        print(f"triangle: {report.triangle:.4f}")
    print("concurrences:")
    for label, value in zip(_cut_table(spectrum.n).labels, spectrum.values):
        print(f"  {label:<12} {value:.4f}")
    if report.zero_cuts:
        print("zero cuts: " + "; ".join(cut.label() for cut in report.zero_cuts))
    else:
        print("zero cuts: none")
    for note in report.notes:
        print(f"note: {note}")


def cmd_eval(args: argparse.Namespace) -> int:
    """Evaluate first, then print a view of the report. A measure the
    state's party count lacks is ``None`` in the report (the volume below 3
    parties, the triangle at other than 3): ``--json`` prints it as null,
    the text of ``--measure all`` leaves it out, and a single ``--measure``
    that asks for it exits 2 with nothing on stdout."""
    try:
        state = load_state(args.file, normalize=args.normalize)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StateFormatError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    report = evaluate(state, state_id=str(args.file), zero_tol=args.tol)
    if args.json:
        print(dumps_report(report_document([report], args.tol)))
        return 0
    if args.measure == "all":
        _print_report(report)
        return 0
    value = {"volume": report.volume, "cgme": report.c_gme, "triangle": report.triangle}[args.measure]
    if value is None:
        print(
            "error: no pyramid volume is defined for 2 parties; rerun with --measure cgme for the single-cut concurrence"
            if args.measure == "volume"
            else "error: the triangle measure needs exactly 3 parties",
            file=sys.stderr,
        )
        return 2
    print(f"{value:.4f}")
    return 0


def cmd_bipartitions(args: argparse.Namespace) -> int:
    try:
        n = check_subsystem_count(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Streamed from the plain subsets: no cut object is built and no cache filled.
    for size, group in itertools.groupby(_subsets(n), key=len):
        sys.stdout.write(f"# k={size}\n")
        sys.stdout.writelines(_label(subset) + "\n" for subset in group)
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    reports = []
    rows = []
    for state_id, state in benchmark_states().items():
        report = evaluate(state, state_id=state_id, zero_tol=args.tol)
        reports.append(report)
        for quantity, expected in PAPER_STATES[state_id][1].items():
            value = getattr(report, quantity)
            deviation = abs(value - expected)
            rows.append(
                {
                    "id": state_id,
                    "quantity": quantity,
                    "expected": expected,
                    "computed": value,
                    "deviation": deviation,
                    "flagged": deviation > PUBLISHED_TOL[quantity],
                }
            )
    if args.json:
        print(dumps_report(report_document(reports, args.tol, paper_rows=rows)))
        return 0
    print(f"{'state':<11}{'quantity':<9}{'published':>10}{'computed':>10}{'deviation':>11}")
    for row in rows:
        marker = "  <- not reproduced by the defining formulas" if row["flagged"] else ""
        print(
            f"{row['id']:<11}{row['quantity']:<9}{row['expected']:>10.4f}"
            f"{row['computed']:>10.4f}{row['deviation']:>11.2e}{marker}"
        )
    return 0


def cmd_random(args: argparse.Namespace) -> int:
    try:
        dims = tuple(int(d) for d in _plain(args.dims.split(",")))
    except ValueError:
        print(f"error: --dims expects comma-separated integers, got {args.dims!r}", file=sys.stderr)
        return 2
    try:
        config = TrialConfig(dims=dims, trials=args.trials, seed=args.seed, tol=args.tol)
        outcome = run_check(args.check, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(dumps_report(report_document([], DEFAULT_ZERO_TOL, checks=[outcome])))
    else:
        status = "pass" if outcome.passed else "FAIL"
        print(
            f"{outcome.check}: {status} (trials {outcome.trials}, "
            f"max deviation {outcome.max_deviation:.3e}, tolerance {outcome.tolerance:.1e}, "
            f"worst trial {outcome.worst_trial})"
        )
    return 0 if outcome.passed else 1


def _tolerance_arg(text: str) -> float:
    try:
        return check_tolerance(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(text: str) -> int:
    """An integer argument in plain ASCII digits, as ``--dims`` and state files take them."""
    try:
        return int(_plain([text])[0])
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmepyramid",
        description="Geometric multipartite entanglement measures from concurrence pyramid volumes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one state file")
    p_eval.add_argument("file", help="state file (see the states module for the format)")
    p_eval.add_argument(
        "--measure", choices=("volume", "cgme", "triangle", "all"), default="all"
    )
    p_eval.add_argument("--tol", type=_tolerance_arg, default=DEFAULT_ZERO_TOL, help="zero-concurrence cutoff")
    p_eval.add_argument("--normalize", action="store_true", help="rescale the input to unit norm")
    p_eval.add_argument("--json", action="store_true", help="machine-readable report")
    p_eval.set_defaults(func=cmd_eval)

    p_bip = sub.add_parser("bipartitions", help="list the canonical cuts of an N-party system")
    p_bip.add_argument("n", type=_int_arg)
    p_bip.set_defaults(func=cmd_bipartitions)

    p_paper = sub.add_parser(
        "paper", help="evaluate the built-in benchmark states against published values"
    )
    p_paper.add_argument("--tol", type=_tolerance_arg, default=DEFAULT_ZERO_TOL, help="zero-concurrence cutoff")
    p_paper.add_argument("--json", action="store_true")
    p_paper.set_defaults(func=cmd_paper)

    p_rand = sub.add_parser("random", help="run a seeded property check")
    p_rand.add_argument("--dims", required=True, help="comma-separated subsystem dimensions")
    p_rand.add_argument("--seed", type=_int_arg, default=0)
    p_rand.add_argument("--trials", type=_int_arg, default=100)
    p_rand.add_argument("--check", required=True, choices=CHECK_NAMES)
    p_rand.add_argument("--tol", type=_tolerance_arg, default=None, help="override the check's tolerance")
    p_rand.add_argument("--json", action="store_true")
    p_rand.set_defaults(func=cmd_random)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # reader gone (`| head`): quiet the exit flush (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
