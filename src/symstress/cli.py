"""Command line interface.

Subcommands:

* ``analyze`` — run the symbolic counting rule on framework files;
* ``verify``  — cross-check the counting rule against the numeric engine;
* ``gen``     — write a catalog framework to a JSON file;
* ``render``  — draw a framework (optionally with a self-stress or
  mechanism) as deterministic SVG.

Exit codes: 0 success; 2 invalid input (parse errors, two joints at one
point, unknown names, bad arguments, planarity violations under
``--strict-planar``, a ``render`` title XML 1.0 cannot hold); 3 the
declared symmetry does not hold; 4 the symbolic cross-check failed; 5
numeric verification failed.  With multiple inputs the worst (highest)
code wins.

Each command loads only the modules it runs: ``analyze`` never imports
``numeric``, ``catalog`` or ``render``; ``verify`` imports ``numeric``;
``gen`` imports ``catalog``; ``render`` imports ``render``, and ``numeric``
only for ``--stress`` or ``--mechanism``.  ``concurrent.futures`` loads only
when ``--jobs`` runs several files in parallel.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import repeat
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
from .counting import RANK_TOL, _resolve, analyze
from .framework import Framework, _check_tolerance, check_planarity, framework_to_json, parse_framework_json
from .symmetry import (
    SYM_TOL,
    GroupSpec,
    group_spec_from_json,
    group_spec_to_json,
    parse_group_arg,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_SYMMETRIC = 3
EXIT_CROSS_CHECK = 4
EXIT_VERIFY = 5

# The exit code and stderr prefix of each kind of failure, tried in order.
_FAILURES = (
    ((NotSymmetric, ClassMismatch), EXIT_NOT_SYMMETRIC, "not symmetric: "),
    ((CrossCheckFailure, NonIntegerMultiplicity), EXIT_CROSS_CHECK, "cross-check failed: "),
    ((OSError, ValueError, SymstressError), EXIT_INVALID, ""),
)
_CAUGHT = tuple(kind for kinds, _, _ in _FAILURES for kind in kinds)


def _tolerance(text: str) -> float:
    """The argparse type of ``--tol-sym`` and ``--tol-rank``: a finite
    number >= 0."""
    try:
        return _check_tolerance("tolerance", float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a finite number >= 0, got {text!r}"
        ) from None


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
        type=_tolerance,
        default=SYM_TOL,
        help=f"relative tolerance for symmetry matching (default {SYM_TOL:g})",
    )
    parser.add_argument(
        "--tol-rank",
        type=_tolerance,
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

    for command, help_text in (
        ("analyze", "run the symbolic counting rule"),
        ("verify", "cross-check the counts against the numeric engine"),
    ):
        p = sub.add_parser(command, help=help_text)
        _add_common(p, many_inputs=True)
        p.add_argument("--format", choices=("text", "json"), default="text", help="report format")
        p.add_argument(
            "--strict-planar",
            action="store_true",
            help="treat crossing bars / joints on bar interiors as invalid input (exit 2)",
        )
        p.add_argument("--jobs", type=int, default=1, metavar="N", help="process N files in parallel")

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


def _load(path: str, group_arg: str) -> tuple[Framework, GroupSpec]:
    """The framework in file ``path`` and the group to analyse it under:
    ``group_arg``, unless that is auto and the file declares a group."""
    fw, file_group = parse_framework_json(Path(path).read_text(encoding="utf-8"))
    spec = parse_group_arg(group_arg)
    if spec.is_auto and file_group is not None:
        spec = group_spec_from_json(file_group)
    return fw, spec


def _failure(exc: Exception) -> tuple[int, str]:
    """The exit code and stderr prefix of an exception in ``_CAUGHT``: the
    first row of ``_FAILURES`` whose kinds it is an instance of."""
    return next((code, prefix) for kinds, code, prefix in _FAILURES if isinstance(exc, kinds))


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


def _run_report(path: str, args: argparse.Namespace) -> tuple[int, object, str]:
    """Analyze or verify one file.

    Returns (exit code, payload, stderr message); payload is a report or
    error dict in json mode, and the report text or None after an error in
    text mode.
    """
    json_mode = args.format == "json"
    try:
        fw, spec = _load(path, args.group)
        if args.command == "analyze":
            report = analyze(fw, spec, tol=args.tol_sym)
        else:
            from .numeric import verify

            report = verify(fw, spec, tol=args.tol_sym, rel_tol=args.tol_rank)
        if args.strict_planar:
            if args.command == "analyze":
                count = report.planarity_violations or 0
            else:
                # verify works from the census and never checks geometry
                count = len(check_planarity(fw))
            if count:
                msg = f"{path}: {count} planarity violation(s) under --strict-planar"
                payload = _error_payload(path, EXIT_INVALID, msg) if json_mode else None
                return EXIT_INVALID, payload, msg
    except _CAUGHT as exc:
        code, prefix = _failure(exc)
        payload = _error_payload(path, code, str(exc)) if json_mode else None
        return code, payload, f"{path}: {prefix}{exc}"

    code = EXIT_VERIFY if args.command == "verify" and not report.passed else EXIT_OK
    payload = report.to_dict(input_name=path) if json_mode else report.to_text()
    return code, payload, "" if code == EXIT_OK else f"{path}: verification failed"


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` to the file ``output`` in UTF-8, else to stdout.  A
    file name given as bytes that do not decode is held as surrogate
    escapes; ``surrogateescape`` writes those bytes back as given."""
    if output:
        Path(output).write_text(text, encoding="utf-8", errors="surrogateescape")
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode(sys.stdout.encoding, "surrogateescape"))
    else:
        sys.stdout.write(text)


def _cmd_analyze_verify(args: argparse.Namespace) -> int:
    if args.jobs > 1 and len(args.inputs) > 1:
        import concurrent.futures

        # The pool starts all its workers at once, so start no more than files.
        workers = min(args.jobs, len(args.inputs))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_report, args.inputs, repeat(args)))
    else:
        results = list(map(_run_report, args.inputs, repeat(args)))

    chunks: list[str] = []
    payloads: list[object] = []
    for (_, payload, err), path in zip(results, args.inputs):
        if err:
            print(err, file=sys.stderr)
        if args.format == "json":
            payloads.append(payload)
        elif payload is not None:
            if len(args.inputs) > 1:
                chunks.append(f"# {path}\n")
            chunks.append(payload)

    if args.format == "json":
        out = _json_text(payloads[0] if len(payloads) == 1 else payloads)
    else:
        out = "\n".join(chunks)
    if out:
        _emit(out, args.output)
    return max(code for code, _, _ in results)


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
    from .catalog import generate, names

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


def _overlay_row(fw: Framework, index: int | None, name: str, rel_tol: float):
    """Row ``index`` of the self-stress (``name`` "stress") or mechanism basis
    of ``fw`` for ``render --stress``/``--mechanism``, or None without an
    index; ValueError when the row does not exist."""
    if index is None:
        return None
    from .numeric import mechanism_basis, self_stress_basis

    basis_of, plural = (
        (self_stress_basis, "self-stresses") if name == "stress" else (mechanism_basis, "mechanisms")
    )
    basis = basis_of(fw, rel_tol=rel_tol)
    if not 0 <= index < basis.shape[0]:
        raise ValueError(
            f"{name} index {index} out of range (framework has {basis.shape[0]} {plural})"
        )
    return basis[index]


def _cmd_render(args: argparse.Namespace) -> int:
    from .render import render_svg

    try:
        fw, spec = _load(args.input, args.group)
        action = _resolve(fw, spec, args.tol_sym)
        svg = render_svg(
            fw,
            stress=_overlay_row(fw, args.stress, "stress", args.tol_rank),
            mechanism=_overlay_row(fw, args.mechanism, "mechanism", args.tol_rank),
            highlight_fixed=not args.no_highlight,
            title=args.title,
            action=action,
        )
    except _CAUGHT as exc:
        code, prefix = _failure(exc)
        print(f"render: {prefix}{exc}", file=sys.stderr)
        return code
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
        return _cmd_analyze_verify(args)
    if args.command == "gen":
        return _cmd_gen(args)
    return _cmd_render(args)


if __name__ == "__main__":
    sys.exit(main())
