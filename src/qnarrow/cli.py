"""Command-line driver for rule files.

Exit codes: 0 solutions found / checks pass, 1 nothing found or a check
refuted, 2 usage, parse or input errors (terms nested too deep, over-long
number literals and degrees too large to represent included).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .frontend import (
    GtrsError,
    ProblemFile,
    parse_file,
    parse_term_text,
    parse_terms_text,
    render_check_report,
    render_rewrite_trace,
    render_solution,
    render_trace,
    _quote,
)
from .narrow import ORDERS, STRATEGIES, NarrowError, SolveResult, derivations, solve
from .oracle import (
    CONFIRMED,
    INCONCLUSIVE,
    OracleBounds,
    OracleError,
    enumerate_best_unifiers,
    verify_solution,
)
from .quantale import QuantaleError
from .rewrite import TrsError, check_trs, innermost_rewrite_steps, rewrite_search, rewrite_steps
from .term import App, is_ground, position_to_str, vars_of

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_USAGE = 2


def _count(text: str) -> int:
    """A non-negative integer option value (a search bound), in ASCII
    digits.  As in the rule file reader, its digits are counted before int()
    reads them: more digits than sys.maxsize has make it invalid, and an
    invalid value too long to quote is named by its length."""
    try:
        digits = text.strip().lstrip("+-")
        if not (digits.isascii() and digits.isdecimal()) or \
                len(digits.lstrip("0")) > len(str(sys.maxsize)):
            raise ValueError
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count: {_quote(text)}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _load(args) -> ProblemFile:
    return parse_file(args.file)


def _solve_problem(pf: ProblemFile, problem, args):
    return solve(
        pf.trs, problem.left, problem.right,
        threshold=problem.threshold,
        strategy=getattr(args, "strategy", "eager-su"),
        order=getattr(args, "order", "bfs"),
        max_steps=getattr(args, "max_steps", 10),
        max_solutions=getattr(args, "max_solutions", None),
        max_configs=args.max_configs,
    )


def cmd_solve(args) -> int:
    pf = _load(args)
    if not pf.problems:
        print("error: no solve declarations in file", file=sys.stderr)
        return EXIT_USAGE
    found = False
    payload = []
    for problem in pf.problems:
        result = _solve_problem(pf, problem, args)
        found = found or bool(result.solutions)
        if args.json:
            def encode(sol):
                entry = {
                    "substitution": {str(x): str(t) for x, t in sol.subst.items()},
                    "degree": str(sol.degree),
                    "dominated": sol.dominated,
                }
                if args.trace:
                    entry["trace"] = render_trace(sol.trace)
                return entry

            payload.append({
                "left": str(problem.left),
                "right": str(problem.right),
                "threshold": None if problem.threshold is None else str(problem.threshold),
                "solutions": [encode(sol) for sol in result.solutions],
                **{f.name: getattr(result, f.name) for f in fields(SolveResult)
                   if f.name != "solutions"},
            })
            continue
        header = f"problem {problem.left} =? {problem.right}"
        if problem.threshold is not None:
            header += f" threshold {problem.threshold}"
        print(header)
        for sol in result.solutions:
            print(render_solution(sol))
            if args.trace:
                for line in render_trace(sol.trace):
                    print(f"  {line}")
        print(f"({len(result.solutions)} solutions, search {result.stopped})")
    if args.json:
        print(json.dumps({"problems": payload}, indent=2, sort_keys=True))
    return EXIT_FOUND if found else EXIT_NONE


def cmd_rewrite(args) -> int:
    pf = _load(args)
    term = parse_term_text(pf, args.term)
    if args.steps == 1:
        steps = (innermost_rewrite_steps if args.innermost else rewrite_steps)(pf.trs, term)
        for step in steps:
            print(f"{position_to_str(step.position)}: {term} -> "
                  f"{step.result} @ {step.degree}")
        return EXIT_FOUND if steps else EXIT_NONE
    reached = rewrite_search(pf.trs, term, args.steps, innermost=args.innermost)
    lines = []
    for result, entries in reached.items():
        for degree, trace in entries:
            lines.append((str(result), pf.quantale.sort_key(degree), result, degree, trace))
    lines.sort(key=lambda row: (row[1], row[0]))
    for text, _, result, degree, trace in lines:
        print(f"{result} @ {degree} in {len(trace)} steps")
        if args.trace:
            for line in render_rewrite_trace(term, trace):
                print(f"  {line}")
    return EXIT_FOUND if len(reached) > 1 else EXIT_NONE


def cmd_narrow(args) -> int:
    pf = _load(args)
    term = parse_term_text(pf, args.term)
    scope = vars_of(term)
    rows = {}
    for deriv in derivations(pf.trs, term, args.steps, basic_only=args.basic):
        if not deriv.steps:
            continue
        sigma = deriv.substitution().restrict(scope)
        degree = deriv.degree(pf.quantale)
        rows.setdefault((str(deriv.end), str(sigma), str(degree)),
                        (deriv.end, sigma, degree))
    for key in sorted(rows):
        end, sigma, degree = rows[key]
        print(f"{end}  unifier {sigma}  degree {degree}")
    return EXIT_FOUND if rows else EXIT_NONE


def cmd_oracle(args) -> int:
    pf = _load(args)
    if not pf.problems:
        print("error: no solve declarations in file", file=sys.stderr)
        return EXIT_USAGE
    bounds = OracleBounds(max_term_depth=args.depth)
    if args.pool:
        pool = parse_terms_text(pf, args.pool)
        if not all(is_ground(term) for term in pool):
            print("error: pool terms must be ground", file=sys.stderr)
            return EXIT_USAGE
    else:
        pool = tuple(App(c) for c in pf.signature.constants())
    exit_code = EXIT_FOUND
    for problem in pf.problems:
        print(f"problem {problem.left} =? {problem.right}")
        if args.verify:
            result = _solve_problem(pf, problem, args)
            refuted = False
            for sol in result.solutions:
                verdict = verify_solution(pf.trs, problem.left, problem.right,
                                          sol.subst, sol.degree,
                                          pool=pool, bounds=bounds)
                status = verdict.status
                if status == INCONCLUSIVE:
                    status = "INCONCLUSIVE(bounds)"
                print(f"{status} {render_solution(sol)}")
                witnesses = [c for c in verdict.checks if c.status == CONFIRMED]
                if witnesses and witnesses[0].outcome.path:
                    for edge in witnesses[0].outcome.path:
                        arrow = "->" if edge.forward else "<-"
                        print(f"  {position_to_str(edge.position)}: {edge.source} "
                              f"{arrow} {edge.target} @ {edge.degree}")
                refuted = refuted or verdict.status == "REFUTED"
            if refuted:
                exit_code = EXIT_NONE
            if not result.solutions:
                print("(no solutions to verify)")
                exit_code = EXIT_NONE
            if result.stopped == "config-limit":
                print("(search config-limit)")
        else:
            ranked = enumerate_best_unifiers(pf.trs, problem.left, problem.right,
                                             pool, bounds)
            for rank, (sigma, degree) in enumerate(ranked, start=1):
                print(f"{rank}. {sigma} degree {degree}")
            if not ranked:
                exit_code = EXIT_NONE
    return exit_code


def cmd_check(args) -> int:
    pf = _load(args)
    for line in render_check_report(pf.trs, check_trs(pf.trs)):
        print(line)
    return EXIT_FOUND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnarrow",
        description="Graded quantitative rewriting and narrowing over quantales.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve the file's unification problems")
    p_solve.add_argument("file")
    p_solve.add_argument("--strategy", choices=STRATEGIES, default="eager-su")
    p_solve.add_argument("--order", choices=ORDERS, default="bfs")
    p_solve.add_argument("--max-steps", type=_count, default=10)
    p_solve.add_argument("--max-solutions", type=_count, default=None)
    p_solve.add_argument("--max-configs", type=_count, default=None,
                         help="stop each search after expanding N configurations")
    p_solve.add_argument("--trace", action="store_true")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(handler=cmd_solve)

    p_rw = sub.add_parser("rewrite", help="list rewrite steps or reachable terms")
    p_rw.add_argument("file")
    p_rw.add_argument("--term", required=True)
    p_rw.add_argument("--steps", type=_count, default=1)
    p_rw.add_argument("--innermost", action="store_true")
    p_rw.add_argument("--trace", action="store_true")
    p_rw.set_defaults(handler=cmd_rewrite)

    p_nr = sub.add_parser("narrow", help="list narrowing results from a term")
    p_nr.add_argument("file")
    p_nr.add_argument("--term", required=True)
    p_nr.add_argument("--steps", type=_count, default=1)
    p_nr.add_argument("--basic", action="store_true")
    p_nr.set_defaults(handler=cmd_narrow)

    p_or = sub.add_parser("oracle", help="rank unifiers or verify solver output")
    p_or.add_argument("file")
    p_or.add_argument("--pool", default=None,
                      help="comma-separated ground terms for variable instantiation")
    p_or.add_argument("--depth", type=_count, default=10)
    p_or.add_argument("--verify", action="store_true")
    p_or.add_argument("--max-steps", type=_count, default=8)
    p_or.add_argument("--max-configs", type=_count, default=None,
                      help="with --verify, stop each search after N configurations")
    p_or.set_defaults(handler=cmd_oracle)

    p_ck = sub.add_parser("check", help="print the attribute report of a file")
    p_ck.add_argument("file")
    p_ck.set_defaults(handler=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except RecursionError:
        print("error: terms are nested too deeply", file=sys.stderr)
        return EXIT_USAGE
    except (GtrsError, TrsError, NarrowError, OracleError, QuantaleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
