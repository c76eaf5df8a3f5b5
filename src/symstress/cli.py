"""Command line interface.

Subcommands:

* ``analyze`` — run the symbolic counting rule on framework files;
* ``verify``  — cross-check the counting rule against the numeric engine;
* ``gen``     — write a catalog framework to a JSON file;
* ``render``  — draw a framework (optionally with a self-stress or
  mechanism) as deterministic SVG.

Exit codes: 0 success; 2 invalid input (parse errors, two joints at one
point, unknown names, bad arguments, planarity violations under
``--strict-planar``); 3 the declared symmetry does not hold; 4 the symbolic
cross-check failed; 5 numeric verification failed.  With multiple inputs
the worst (highest) code wins.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
from pathlib import Path

from . import __version__
from .errors import (
    ClassMismatch,
    CrossCheckFailure,
    NonIntegerMultiplicity,
    NotSymmetric,
    SymstressError,
    UnknownEntry,
)
from .catalog import generate
from .counting import analyze
from .framework import check_planarity, framework_to_json, parse_framework_json
from .numeric import RANK_TOL, mechanism_basis, self_stress_basis, verify
from .render import render_svg
from .symmetry import (
    SYM_TOL,
    GroupSpec,
    group_spec_from_json,
    group_spec_to_json,
    parse_group_arg,
    resolve_group,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_SYMMETRIC = 3
EXIT_CROSS_CHECK = 4
EXIT_VERIFY = 5


def _add_common(parser: argparse.ArgumentParser, many_inputs: bool) -> None:
    if many_inputs:
        parser.add_argument("inputs", nargs="+", metavar="FILE", help="framework JSON file(s)")
    else:
        parser.add_argument("input", metavar="FILE", help="framework JSON file")
    parser.add_argument(
        "--group",
        default="auto",
        help="symmetry group: auto | C1 | Cs[:angle_deg] | Cn:<n> | Cnv:<n>[:angle_deg] "
        "(default: the file's group field, else auto-detection)",
    )
    parser.add_argument(
        "--tol-sym",
        type=float,
        default=SYM_TOL,
        help=f"relative tolerance for symmetry matching (default {SYM_TOL:g})",
    )
    parser.add_argument(
        "--tol-rank",
        type=float,
        default=RANK_TOL,
        help=f"relative singular-value cutoff for numeric ranks (default {RANK_TOL:g})",
    )
    parser.add_argument("-o", "--output", metavar="PATH", help="write output to PATH instead of stdout")


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symstress",
        description="Symmetry-extended counting of self-stresses and mechanisms "
        "in planar bar-joint frameworks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run the symbolic counting rule")
    _add_common(p_an, many_inputs=True)
    p_an.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    p_an.add_argument(
        "--strict-planar",
        action="store_true",
        help="treat crossing bars / joints on bar interiors as invalid input (exit 2)",
    )
    p_an.add_argument("--jobs", type=int, default=1, metavar="N", help="process N files in parallel")

    p_ve = sub.add_parser("verify", help="cross-check the counts against the numeric engine")
    _add_common(p_ve, many_inputs=True)
    p_ve.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    p_ve.add_argument(
        "--strict-planar",
        action="store_true",
        help="treat crossing bars / joints on bar interiors as invalid input (exit 2)",
    )
    p_ve.add_argument("--jobs", type=int, default=1, metavar="N", help="process N files in parallel")

    p_ge = sub.add_parser("gen", help="write a built-in catalog framework as JSON")
    p_ge.add_argument("name", nargs="?", help="catalog entry name (see --list)")
    p_ge.add_argument("--list", action="store_true", help="list catalog entry names and exit")
    p_ge.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="entry parameter, e.g. --param delta=0.05 (repeatable)",
    )
    p_ge.add_argument("-o", "--output", metavar="PATH", help="write output to PATH instead of stdout")

    p_re = sub.add_parser("render", help="render a framework as deterministic SVG")
    _add_common(p_re, many_inputs=False)
    p_re.add_argument("--stress", type=int, metavar="N", help="overlay the N-th self-stress (0-based)")
    p_re.add_argument("--mechanism", type=int, metavar="N", help="overlay the N-th mechanism (0-based)")
    p_re.add_argument("--no-highlight", action="store_true", help="do not highlight unshifted bars")
    p_re.add_argument("--title", help="SVG title element")
    return parser


def _load(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_framework_json(text)


def _choose_spec(arg_text: str, file_group) -> GroupSpec:
    spec = parse_group_arg(arg_text)
    if spec.is_auto and file_group is not None:
        return group_spec_from_json(file_group)
    return spec


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _error_payload(path: str, code: int, message: str) -> dict:
    return {
        "schema_version": 1,
        "kind": "error",
        "input": path,
        "exit_code": code,
        "error": message,
    }


def _run_report(command: str, path: str, args_dict: dict) -> tuple[int, object, str]:
    """Analyze or verify one file.

    Returns (exit code, payload, stderr message); payload is a report dict
    (json mode) or report text (text mode), or None after an error.
    """
    fmt = args_dict["format"]
    try:
        fw, file_group = _load(path)
        spec = _choose_spec(args_dict["group"], file_group)
    except (OSError, ValueError) as exc:
        msg = f"{path}: {exc}"
        payload = _error_payload(path, EXIT_INVALID, str(exc)) if fmt == "json" else None
        return EXIT_INVALID, payload, msg

    try:
        if command == "analyze":
            report = analyze(fw, spec, tol=args_dict["tol_sym"])
        else:
            report = verify(fw, spec, tol=args_dict["tol_sym"], rel_tol=args_dict["tol_rank"])
        if args_dict["strict_planar"]:
            if command == "analyze":
                count = report.planarity_violations or 0
            else:
                # verify works from the census and never checks geometry
                count = len(check_planarity(fw))
            if count:
                msg = f"{path}: {count} planarity violation(s) under --strict-planar"
                payload = _error_payload(path, EXIT_INVALID, msg) if fmt == "json" else None
                return EXIT_INVALID, payload, msg
    except (NotSymmetric, ClassMismatch) as exc:
        msg = f"{path}: not symmetric: {exc}"
        payload = _error_payload(path, EXIT_NOT_SYMMETRIC, str(exc)) if fmt == "json" else None
        return EXIT_NOT_SYMMETRIC, payload, msg
    except (CrossCheckFailure, NonIntegerMultiplicity) as exc:
        msg = f"{path}: cross-check failed: {exc}"
        payload = _error_payload(path, EXIT_CROSS_CHECK, str(exc)) if fmt == "json" else None
        return EXIT_CROSS_CHECK, payload, msg
    except (SymstressError, ValueError) as exc:
        msg = f"{path}: {exc}"
        payload = _error_payload(path, EXIT_INVALID, str(exc)) if fmt == "json" else None
        return EXIT_INVALID, payload, msg

    code = EXIT_OK
    if command == "verify" and not report.passed:
        code = EXIT_VERIFY
    payload = report.to_dict(input_name=path) if fmt == "json" else report.to_text()
    err = "" if code == EXIT_OK else f"{path}: verification failed"
    return code, payload, err


def _run_report_task(task: tuple) -> tuple[int, object, str]:
    return _run_report(*task)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_analyze_verify(command: str, args: argparse.Namespace) -> int:
    args_dict = {
        "group": args.group,
        "tol_sym": args.tol_sym,
        "tol_rank": args.tol_rank,
        "strict_planar": args.strict_planar,
        "format": args.format,
    }
    tasks = [(command, path, args_dict) for path in args.inputs]
    if args.jobs > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_report_task, tasks))
    else:
        results = [_run_report(*task) for task in tasks]

    worst = EXIT_OK
    chunks: list[str] = []
    payloads: list[object] = []
    for (code, payload, err), path in zip(results, args.inputs):
        worst = max(worst, code)
        if err:
            print(err, file=sys.stderr)
        if payload is None:
            continue
        if args.format == "json":
            payloads.append(payload)
        else:
            if len(args.inputs) > 1:
                chunks.append(f"# {path}\n")
            chunks.append(payload if isinstance(payload, str) else str(payload))

    if args.format == "json":
        out = _json_text(payloads[0] if len(args.inputs) == 1 and payloads else payloads)
        if len(args.inputs) == 1 and not payloads:
            out = ""
    else:
        out = "\n".join(chunks) if chunks else ""
    if out:
        _emit(out, args.output)
    return worst


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError(f"--param expects KEY=VALUE, got {text!r}")
    key, _, raw = text.partition("=")
    value: object
    try:
        value = int(raw)
    except ValueError:
        try:
            value = float(raw)
        except ValueError:
            value = raw
    return key.strip(), value


def _cmd_gen(args: argparse.Namespace) -> int:
    from .catalog import names

    if args.list:
        _emit("\n".join(names()) + "\n", args.output)
        return EXIT_OK
    if not args.name:
        print("gen: a catalog entry name is required (try --list)", file=sys.stderr)
        return EXIT_INVALID
    try:
        params = dict(_parse_param(p) for p in args.param)
        entry = generate(args.name, **params)
    except (UnknownEntry, ValueError, TypeError) as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if entry.framework is None:
        print(
            f"gen: catalog entry {args.name!r} is census-only and has no joint coordinates",
            file=sys.stderr,
        )
        return EXIT_INVALID
    group_json = group_spec_to_json(entry.group) if entry.group is not None else None
    _emit(framework_to_json(entry.framework, group=group_json), args.output)
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    try:
        fw, file_group = _load(args.input)
        spec = _choose_spec(args.group, file_group)
    except (OSError, ValueError) as exc:
        print(f"render: {exc}", file=sys.stderr)
        return EXIT_INVALID

    group = None
    center = None
    try:
        group, center = resolve_group(spec, fw, tol=args.tol_sym)
    except NotSymmetric as exc:
        print(f"render: not symmetric: {exc}", file=sys.stderr)
        return EXIT_NOT_SYMMETRIC

    stress = mechanism = None
    try:
        if args.stress is not None:
            basis = self_stress_basis(fw, rel_tol=args.tol_rank)
            if not 0 <= args.stress < basis.shape[0]:
                raise ValueError(
                    f"stress index {args.stress} out of range (framework has "
                    f"{basis.shape[0]} self-stresses)"
                )
            stress = basis[args.stress]
        if args.mechanism is not None:
            basis = mechanism_basis(fw, rel_tol=args.tol_rank)
            if not 0 <= args.mechanism < basis.shape[0]:
                raise ValueError(
                    f"mechanism index {args.mechanism} out of range (framework "
                    f"has {basis.shape[0]} mechanisms)"
                )
            mechanism = basis[args.mechanism]
    except ValueError as exc:
        print(f"render: {exc}", file=sys.stderr)
        return EXIT_INVALID

    svg = render_svg(
        fw,
        group=group if group.order > 1 else None,
        center=center,
        stress=stress,
        mechanism=mechanism,
        highlight_fixed=not args.no_highlight,
        title=args.title,
        tol=args.tol_sym,
    )
    _emit(svg, args.output)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments and 0 on --help/--version
        return int(exc.code or 0)
    if args.command in ("analyze", "verify"):
        return _cmd_analyze_verify(args.command, args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_render(args)


if __name__ == "__main__":
    sys.exit(main())
