"""Command-line interface.

Subcommands::

    gens           minimal generators of the order-t cover ideal of a graph
    check-cwl      componentwise-linearity verdict (exit 0 yes / 1 no)
    betti          coarse and multigraded Betti tables
    quotients      linear-quotients certificate for a generator ordering
    polymatroidal  exchange-condition check per degree component
    search         sweep graphs in range and report verdicts

Graphs come from ``--graph FILE`` (format: ``graph <n>`` then ``u v`` lines),
``--complete N`` or ``--counterexample``; ideal-consuming commands also accept
``--ideal FILE`` (format: ``vars <n>`` then one monomial per line, e.g.
``x1^2*x3``).  Exit codes: 0 property holds, 1 property fails, 2 usage or
input error, 3 capacity (a size cap or the search row budget), 141 stdout
closed by its reader (as if killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap

from .errors import CapacityError
from .graphs import (
    SimpleGraph,
    complete_graph,
    counterexample_graph,
    cover_ideal,
    load_graph,
    theorem_order,
)
from .monomials import MonomialIdeal, format_monomial, load_ideal
from .resolution import (
    betti_table,
    find_linear_quotient_order,
    is_componentwise_linear,
    linear_quotients_check,
    parse_field,
    polymatroidal_check,
)
from .search import ROW_BUDGET, SweepConfig, sweep, to_csv, to_jsonl


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # The stock help goes through _print_message, which swallows OSError,
        # so help into a closed unbuffered stdout was lost with exit 0.
        (file or sys.stdout).write(self.format_help())


def _add_graph_source(parser: argparse.ArgumentParser, with_ideal: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="FILE", help="graph file")
    group.add_argument("--complete", type=int, metavar="N", help="complete graph K_N")
    group.add_argument(
        "--counterexample",
        action="store_true",
        help="the 4-vertex chordal graph with edges ab,ac,bc,bd,cd",
    )
    if with_ideal:
        group.add_argument("--ideal", metavar="FILE", help="ideal file")
    parser.add_argument("--t", type=int, help="cover order t >= 1 (graph sources)")


def _add_field(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--field", default="Q", help="coefficient field: Q (default) or a prime p / Fp"
    )


def _add_format(parser: argparse.ArgumentParser, formats=("table", "json")) -> None:
    parser.add_argument(
        "--format", choices=formats, default=formats[0], help="output format"
    )


def _resolve_graph(args) -> SimpleGraph:
    if args.complete is not None:
        return complete_graph(args.complete)
    if args.counterexample:
        return counterexample_graph()
    return load_graph(args.graph)


def _resolve_ideal(args) -> MonomialIdeal:
    if getattr(args, "ideal", None):
        if args.t is not None:
            raise ValueError("--t only applies to graph sources")
        return load_ideal(args.ideal)
    if args.t is None:
        raise ValueError("graph sources need --t")
    return cover_ideal(_resolve_graph(args), args.t)


def _wrap(items: list[str]) -> str:
    return textwrap.fill(
        ", ".join(items), width=80, initial_indent="  ", subsequent_indent="  "
    )


def _cmd_gens(args) -> int:
    if args.t is None or args.t < 1:
        raise ValueError("gens needs --t >= 1")
    ideal = cover_ideal(_resolve_graph(args), args.t)
    gens = [format_monomial(g) for g in ideal.generators]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "vars": ideal.nvars,
                    "t": args.t,
                    "count": len(gens),
                    "generators": gens,
                },
                sort_keys=True,
            )
        )
    else:
        print(f"{len(gens)} minimal generators (vars x1..x{ideal.nvars}, t={args.t}):")
        print(_wrap(gens))
    return 0


def _cmd_check_cwl(args) -> int:
    field = parse_field(args.field)
    ideal = _resolve_ideal(args)
    report = is_componentwise_linear(ideal, field, engine=args.engine)
    certificate = None
    if report.overall and not report.vacuous:
        certificate = find_linear_quotient_order(ideal)
    if args.format == "json":
        out = report.to_json_dict()
        out["certificate"] = [str(m) for m in certificate] if certificate else None
        print(json.dumps(out, sort_keys=True))
    else:
        for v in report.verdicts:
            line = f"degree {v.degree}: {v.status}"
            if v.offending:
                line += f" (offending beta at i={v.offending[0]}, j={v.offending[1]})"
            print(line)
        print(
            "componentwise linear"
            if report.overall
            else f"NOT componentwise linear (first failure at degree {report.failing_degree()})"
        )
        if certificate:
            print("linear-quotients certificate:")
            print(_wrap([str(m) for m in certificate]))
    return 0 if report.overall else 1


def _cmd_betti(args) -> int:
    field = parse_field(args.field)
    ideal = _resolve_ideal(args)
    if args.component is not None:
        ideal = ideal.component(args.component)
    table = betti_table(ideal, field, engine=args.engine)
    if args.format == "json":
        # the multigraded entries of a Koszul table are expanded only if read
        out = table.to_json_dict() if args.multigraded else {
            "field": field.label, "coarse": [list(e) for e in table.coarse_entries()]}
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"coarse Betti numbers over {field.label}:")
        for i, j, r in table.coarse_entries():
            print(f"  beta[{i},{j}] = {r}")
        if args.multigraded:
            print("multigraded:")
            for i, _, a, r in sorted(
                (i, sum(a), a, r) for (i, a), r in table.multigraded.items()
            ):
                print(f"  beta[{i},{a}] = {r}")
    return 0


def _cmd_quotients(args) -> int:
    searched = args.order != "theorem"
    if searched:
        ideal = _resolve_ideal(args)
        order = list(ideal.generators)
        if args.order == "backtracking":
            # a failed search reports the deglex listing's first bad step
            order = find_linear_quotient_order(ideal, "backtracking") or order
    else:
        if args.complete is None:
            raise ValueError("--order theorem applies to --complete graphs only")
        if args.t is None:
            raise ValueError("--order theorem needs --t")
        order = theorem_order(args.complete, args.t)
    result = linear_quotients_check(order)
    if args.format == "json":
        if searched and not result.ok:
            out = {"ok": False, "order": None}
        else:
            out = {
                "ok": result.ok,
                "order": [str(m) for m in order],
                "steps": [[str(m) for m in step] for step in result.steps],
            }
        if not result.ok:
            out["failing_index"] = result.failing_index
            out["offending"] = str(result.offending)
        print(json.dumps(out, sort_keys=True))
    elif result.ok:
        print("linear quotients hold for the order:")
        print(_wrap([str(m) for m in order]))
        for k, step in enumerate(result.steps, start=2):
            print(f"  step {k}: colon = <{', '.join(str(m) for m in step)}>")
    else:
        if searched:
            print(f"no linear-quotients order found (strategy {args.order})")
        print(
            f"{'deglex order' if searched else 'order'} fails at position "
            f"{result.failing_index}: colon generator {result.offending} has degree != 1"
        )
    return 0 if result.ok else 1


def _cmd_polymatroidal(args) -> int:
    ideal = _resolve_ideal(args)
    if ideal.is_zero():
        raise ValueError("zero ideal has no degree components to check")
    if args.component is not None:
        degrees = [args.component]
    else:
        degrees = list(range(ideal.min_degree(), ideal.max_degree() + 1))
    results = []
    overall = True
    for d in degrees:
        comp = ideal.component(d)
        if comp.is_zero():
            results.append({"degree": d, "ok": True, "witness": None, "zero": True})
            continue
        ok, witness = polymatroidal_check(comp)
        overall &= ok
        results.append(
            {
                "degree": d,
                "ok": ok,
                "witness": (
                    None
                    if witness is None
                    else {
                        "u": str(witness[0]),
                        "v": str(witness[1]),
                        "i": witness[2],
                    }
                ),
            }
        )
    if args.format == "json":
        print(json.dumps({"overall": overall, "components": results}, sort_keys=True))
    else:
        for row in results:
            line = f"degree {row['degree']}: {'exchange holds' if row['ok'] else 'FAILS'}"
            if row["witness"]:
                w = row["witness"]
                line += f" (witness u={w['u']}, v={w['v']}, i={w['i']})"
            print(line)
    return 0 if overall else 1


def _parse_t_set(text: str) -> tuple[int, ...]:
    try:
        return tuple(sorted({int(part) for part in text.split(",") if part.strip()}))
    except ValueError:
        raise ValueError(f"bad --t list {text!r}: expected comma-separated integers") from None


def _cmd_search(args) -> int:
    field = parse_field(args.field)
    n_min = args.n if args.n is not None else args.n_min
    n_max = args.n if args.n is not None else args.n_max
    config = SweepConfig(
        n_min=n_min,
        n_max=n_max,
        t_set=_parse_t_set(args.t),
        chordal_only=args.chordal_only,
        connected_only=args.connected_only,
        complete_only=args.complete_only,
        field=field,
        row_budget=args.budget,
    )
    records, summary = sweep(config)
    include_timing = not args.no_timing
    if args.format == "csv":
        sys.stdout.write(to_csv(records, summary, include_timing))
    else:
        sys.stdout.write(to_jsonl(records, summary, include_timing))
    failures = sum(1 for rec in records if rec.status == "ok" and rec.cwl is False)
    return 1 if failures else 0


def _configure_gens(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p, with_ideal=False)
    _add_format(p)
    p.set_defaults(func=_cmd_gens)


def _configure_check_cwl(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p, with_ideal=True)
    p.add_argument("--engine", choices=("auto", "taylor", "koszul"), default="auto")
    _add_field(p)
    _add_format(p)
    p.set_defaults(func=_cmd_check_cwl)


def _configure_betti(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p, with_ideal=True)
    p.add_argument("--component", type=int, metavar="D", help="restrict to degree D")
    p.add_argument("--multigraded", action="store_true", help="include multidegrees")
    p.add_argument("--engine", choices=("auto", "taylor", "koszul"), default="auto")
    _add_field(p)
    _add_format(p)
    p.set_defaults(func=_cmd_betti)


def _configure_quotients(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p, with_ideal=True)
    p.add_argument(
        "--order",
        choices=("deglex", "theorem", "backtracking"),
        default="deglex",
        help="ordering to certify",
    )
    _add_format(p)
    p.set_defaults(func=_cmd_quotients)


def _configure_polymatroidal(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p, with_ideal=True)
    p.add_argument("--component", type=int, metavar="D", help="single degree D")
    _add_format(p)
    p.set_defaults(func=_cmd_polymatroidal)


def _configure_search(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, help="single vertex count")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--t", default="1", help="comma-separated t values")
    p.add_argument("--chordal-only", action="store_true")
    p.add_argument("--connected-only", action="store_true")
    p.add_argument("--complete-only", action="store_true")
    p.add_argument("--no-timing", action="store_true", help="omit wall times")
    p.add_argument(
        "--budget",
        type=int,
        default=ROW_BUDGET,
        metavar="N",
        help="skip a row once its degree components hold more than N "
        "generators in all (default %(default)s; 0 = no budget)",
    )
    _add_field(p)
    _add_format(p, formats=("jsonl", "csv"))
    p.set_defaults(func=_cmd_search)


# (name, help, configure) per subcommand
_COMMANDS = (
    ("gens", "minimal generators of the cover ideal", _configure_gens),
    ("check-cwl", "componentwise linearity verdict", _configure_check_cwl),
    ("betti", "Betti tables", _configure_betti),
    ("quotients", "linear-quotients certificate", _configure_quotients),
    ("polymatroidal", "exchange condition per component", _configure_polymatroidal),
    ("search", "sweep graphs and report verdicts", _configure_search),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coverideals",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, configure in _COMMANDS:
        configure(sub.add_parser(name, help=help_text))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse with a parser of only the command ``argv[0]`` names, if any: under
    its subparser's prog it writes the same help and errors, but for unknown
    arguments, which the full parser reports, as it parses every other argv."""
    for name, _, configure in _COMMANDS:
        if argv and argv[0] == name:
            parser = _Parser(prog=f"coverideals {name}")
            configure(parser)
            args, unknown = parser.parse_known_args(argv[1:])
            if not unknown:
                return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _parse_args(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        else:
            status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader of stdout went away.  Exit as a process killed by
        # SIGPIPE would (128 + 13), silently: the output left in the buffer
        # goes to the null device when Python flushes it at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
