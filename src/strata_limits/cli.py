"""Command-line interface.

Subcommands:

- ``validate``: check an action file (and optionally a multicurve file).
- ``build``: construct the limit stable graph from an action and a
  multicurve file and print it as text, DOT or JSON.
- ``pyramid classify`` / ``pyramid build``: the dihedral pyramid family.
- ``dim``: dimension of a boundary stratum from a signature and a number
  of pinched curves.

Exit codes: 0 success, 1 usage or parse error (or stdout closed before
all output was written), 2 validation failure, 3 internal audit failure.
Results go to stdout, diagnostics to stderr.
``validate`` collects the action's recorded violations and runs the
multicurve validator itself; every other subcommand leaves validation to
:func:`build_stratum_graph`.  Either way the violations arrive as one
:class:`InvalidInputError`, reported as one violation per stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .files import _check_digit_limit, load_action, load_multicurve
from .groups import Subgroup, _shown
from .limit_graphs import (
    AuditError,
    InvalidInputError,
    LabeledStratumGraph,
    build_stratum_graph,
)
from .multicurves import validate_multicurve
from .orbifolds import NoSuchStratumError, OrbifoldSignature, stratum_dimension
from .oracle import audit_graph
from .pyramids import (
    FAMILIES,
    PyramidMulticurveParams,
    VARIANTS,
    classify,
    make_multicurve,
    pyramid_action,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_AUDIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_build_output_options(parser: argparse.ArgumentParser) -> None:
    """``--format`` and ``--audit``/``--no-audit``, shared by both build commands."""
    parser.add_argument("--format", choices=("text", "dot", "json"), default="text")
    audit = parser.add_mutually_exclusive_group()
    audit.add_argument("--audit", dest="audit", action="store_true", default=True)
    audit.add_argument("--no-audit", dest="audit", action="store_false")


def _int_option(text: str) -> int:
    """An integer option's value.  A refusal shows the value cut short, so
    a value of thousands of digits gives one short error line."""
    try:
        _check_digit_limit(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}: {exc}") from None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_shown(text)}") from None


def _build_parser() -> _Parser:
    parser = _Parser(prog="strata-limits", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate an action (and multicurve) file")
    validate.add_argument("--action", required=True, metavar="FILE")
    validate.add_argument("--multicurve", metavar="FILE")
    validate.set_defaults(run=_cmd_validate)

    build = sub.add_parser("build", help="build the limit stable graph from files")
    build.add_argument("--action", required=True, metavar="FILE")
    build.add_argument("--multicurve", required=True, metavar="FILE")
    _add_build_output_options(build)
    build.set_defaults(run=_cmd_build)

    pyramid = sub.add_parser("pyramid", help="the dihedral pyramid family")
    psub = pyramid.add_subparsers(dest="pyramid_command", required=True)

    pclassify = psub.add_parser("classify", help="all distinct limit graphs for n")
    pclassify.add_argument("--n", type=_int_option, required=True)
    pclassify.add_argument("--include-unproven", action="store_true")
    pclassify.add_argument("--format", choices=("text", "json"), default="text")
    pclassify.set_defaults(run=_cmd_pyramid_classify)

    pbuild = psub.add_parser("build", help="build one pyramid multicurve's graph")
    pbuild.add_argument("--n", type=_int_option, required=True)
    pbuild.add_argument("--family", required=True, choices=FAMILIES)
    pbuild.add_argument("--variant", default=None)
    pbuild.add_argument("--param", type=_int_option, default=0, help="winding parameter")
    pbuild.add_argument("--cycle-length", type=_int_option, default=None)
    _add_build_output_options(pbuild)
    pbuild.set_defaults(run=_cmd_pyramid_build)

    dim = sub.add_parser("dim", help="dimension of a boundary stratum")
    dim.add_argument("--signature", required=True, metavar="SIG",
                     help="closed signature, e.g. '0;2,2,2,2,5'")
    dim.add_argument("--pinched", type=_int_option, required=True, metavar="K")
    dim.set_defaults(run=_cmd_dim)
    return parser


def _parse_signature(text: str) -> OrbifoldSignature:
    body = text.strip().strip("()")
    genus_part, _, cone_part = body.partition(";")
    parts = [genus_part, *(cone_part.split(",") if cone_part.strip() else ())]
    try:
        for part in parts:
            _check_digit_limit(part)
        genus, *orders = map(int, parts)
        return OrbifoldSignature(genus=genus, cone_orders=tuple(orders))
    except ValueError as exc:
        raise _UsageError(f"bad signature {_shown(text)}: {exc}") from exc


def _graph_json(graph: LabeledStratumGraph) -> dict:
    group = graph.action.group
    degrees, weights = graph.underlying.degrees(), dict(graph.underlying.vertices)
    vertices = [
        {
            "id": number,
            "piece": piece,
            "coset": group.names[coset],
            "degree": degrees[number],
            "weight": weights[number],
        }
        for (piece, coset), number in sorted(graph.vertices.items())
    ]
    edges = [
        {
            "curve": curve_id,
            "coset": group.names[rep],
            "ends": sorted(graph.vertices[v] for v in ends),
        }
        for (curve_id, rep), ends in sorted(graph.edges.items())
    ]
    return {
        "vertex_count": graph.vertex_count,
        "edge_count": graph.edge_count,
        "genus": graph.underlying.genus(),
        "stable": graph.underlying.is_stable(),
        "vertices": vertices,
        "edges": edges,
    }


def _subgroup_line(kind: str, label, subgroup: Subgroup) -> str:
    names = ", ".join(subgroup.element_names())
    return f"{kind} {label}: image subgroup of order {subgroup.order} = {{{names}}}"


def _print_build(
    graph: LabeledStratumGraph,
    fmt: str,
    audit: bool,
    out,
    header_lines: list[str] | None = None,
) -> int:
    mc = graph.multicurve
    report = audit_graph(graph) if audit else None
    if fmt == "json":
        payload = {"graph": _graph_json(graph)}
        if header_lines is not None:
            payload["parameters"] = header_lines
        payload["subgroups"] = {
            "pieces": {
                str(p.id): list(graph.piece_subgroups[p.id].element_names())
                for p in mc.pieces
            },
            "curves": {
                c.id: list(graph.curve_subgroups[c.id].element_names())
                for c in mc.curves
            },
        }
        if report is not None:
            payload["audit"] = report.to_json_dict()
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    elif fmt == "dot":
        out.write(graph.underlying.to_dot())
        if report is not None:
            for line in report.to_text().splitlines():
                out.write(f"// {line}\n")
    else:
        if header_lines:
            for line in header_lines:
                out.write(line + "\n")
        for piece in mc.pieces:
            out.write(_subgroup_line("piece", piece.id, graph.piece_subgroups[piece.id]) + "\n")
        for curve in mc.curves:
            out.write(_subgroup_line("curve", curve.id, graph.curve_subgroups[curve.id]) + "\n")
        out.write(graph.underlying.to_text())
        if report is not None:
            out.write(report.to_text())
    if report is not None and not report.ok:
        return EXIT_AUDIT
    return EXIT_OK


def _cmd_validate(args, out) -> int:
    action = load_action(args.action)
    problems = list(action.violations)
    multicurve = None
    if args.multicurve is not None:
        multicurve = load_multicurve(args.multicurve, action)
        problems += validate_multicurve(action, multicurve)
    if problems:
        raise InvalidInputError(problems)
    out.write("action: ok\n")
    if multicurve is not None:
        out.write("multicurve: ok\n")
    return EXIT_OK


def _cmd_build(args, out) -> int:
    action = load_action(args.action)
    graph = build_stratum_graph(action, load_multicurve(args.multicurve, action))
    return _print_build(graph, args.format, args.audit, out)


def _cmd_pyramid_classify(args, out) -> int:
    entries = classify(args.n, include_unproven=args.include_unproven)
    if args.format == "json":
        payload = [
            {
                "description": e.description,
                "witness": {
                    "family": e.witness.family,
                    "variant": e.witness.variant,
                    "winding": e.witness.winding,
                    "cycle_length": e.witness.cycle_length,
                },
                "count": e.count,
                "vertex_count": e.graph.vertex_count,
                "edge_count": e.graph.edge_count,
                "genus": e.graph.genus(),
                "weights": sorted(w for _, w in e.graph.vertices),
                "graph": e.graph.to_text().splitlines(),
            }
            for e in entries
        ]
        out.write(json.dumps({"n": args.n, "classes": payload}, indent=2) + "\n")
    else:
        out.write(f"n={args.n}: {len(entries)} distinct stable graphs\n")
        for i, e in enumerate(entries, 1):
            out.write(
                f"[{i}] v={e.graph.vertex_count} e={e.graph.edge_count} "
                f"genus={e.graph.genus()} "
                f"weights={sorted(w for _, w in e.graph.vertices)} "
                f"witness={e.description} ({e.witness.label()}) count={e.count}\n"
            )
            for line in e.graph.to_text().splitlines():
                out.write(f"    {line}\n")
    return EXIT_OK


def _cmd_pyramid_build(args, out) -> int:
    family = pyramid_action(args.n)
    params = PyramidMulticurveParams(
        family=args.family,
        variant=VARIANTS[args.family][0] if args.variant is None else args.variant,
        winding=args.param,
        cycle_length=args.cycle_length,
    )
    graph = build_stratum_graph(family.action, make_multicurve(family, params))
    header = [f"n={args.n} {params.label()}"]
    return _print_build(graph, args.format, args.audit, out, header)


def _cmd_dim(args, out) -> int:
    signature = _parse_signature(args.signature)
    try:
        dim = stratum_dimension(signature, args.pinched)
    except NoSuchStratumError:
        dim = "no such stratum"
    try:
        line = f"{dim}\n"
    except ValueError:  # str() refuses an integer past Python's digit limit.
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"dimension {_shown(dim)} is over the limit of {limit} digits") from None
    out.write(line)
    return EXIT_OK


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, out)
    except InvalidInputError as exc:
        for v in exc.violations:
            err.write(v + "\n")
        return EXIT_VALIDATION
    except AuditError as exc:
        err.write(f"audit failure: {exc}\n")
        return EXIT_AUDIT
    except (_UsageError, ValueError) as exc:
        # Includes SpecFormatError, which is a ValueError.
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


def entry() -> None:
    try:
        status = main()
        # Flush here, so that a closed pipe raises inside this block.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``| head``).  Point stdout at
        # os.devnull so the interpreter's final flush stays quiet, and exit
        # 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(status)


if __name__ == "__main__":
    entry()
