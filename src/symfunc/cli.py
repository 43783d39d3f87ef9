"""Command-line interface.

Subcommands:

  expand  EXPR --basis B          rewrite an expression in one basis
  apply   EXPR --op NAME [--a A --k K] [--basis B]   apply a vertex operator
  inner   EXPR1 EXPR2             Hall inner product
  count   --n N --k K [--method M]   same-shape tableau pairs of height <= k
  verify  [--max-degree D] [--suite NAME]   run invariant suites

Results go to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
verification failure, 2 bad input (argparse's usage text for malformed argv,
else ``error: <message>``, the library's own refusal), 3 internal faults (a
broken integrality check, or out of memory).

Each subcommand imports only the modules it runs.  The parser reads its
choices from symfunc.names; count loads tableaux; expand and inner load the
expression reader and the ring; apply loads those and the vertex operators;
verify alone loads symfunc.verify, the one module that knows the suite
names, and with it the second routes in oracles and polyoracle.  json is
loaded only for --json and --verbose.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .names import BASES, OPERATORS, PAIR_METHODS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symfunc",
        description="Exact symmetric-function arithmetic, vertex operators, "
        "and bounded-height tableau counting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="expand an expression in a basis")
    p_expand.add_argument("expr", help="expression, e.g. '3/2*s[2,1] - p[3]*h[1]'")
    p_expand.add_argument("--basis", choices=BASES, default="p")
    p_expand.add_argument("--json", action="store_true")

    p_apply = sub.add_parser("apply", help="apply a vertex operator")
    p_apply.add_argument("expr")
    p_apply.add_argument("--op", choices=tuple(OPERATORS), required=True)
    p_apply.add_argument("--a", type=int, default=None)
    p_apply.add_argument("--k", type=int, default=None)
    p_apply.add_argument("--basis", choices=BASES, default="p")
    p_apply.add_argument("--json", action="store_true")

    p_inner = sub.add_parser("inner", help="Hall inner product of two expressions")
    p_inner.add_argument("expr1")
    p_inner.add_argument("expr2")

    p_count = sub.add_parser(
        "count", help="pairs of same-shape standard tableaux of bounded height"
    )
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--method", choices=PAIR_METHODS, default=PAIR_METHODS[0])
    p_count.add_argument(
        "--verbose", action="store_true", help="also print per-composition terms as JSON"
    )

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--max-degree", type=int, default=4)
    p_verify.add_argument(
        "--suite", action="append", help="run only this suite (repeatable)"
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in ("expand", "apply"):
            from .expressions import parse_expression
            from .ring import expand

            op = None
            if args.command == "apply":
                from .vertex import named_operator

                # bound before parsing: a parameter or range error wins over a parse error
                op = named_operator(args.op, args.a, args.k)
            g = parse_expression(args.expr)
            expansion = expand(g if op is None else op(g), args.basis)
            if args.json:
                import json

                print(json.dumps(expansion.to_json_obj(), indent=2))
            else:
                print(expansion.to_text())
            return 0

        if args.command == "inner":
            from .expressions import parse_expression
            from .ring import inner_product

            value = inner_product(
                parse_expression(args.expr1), parse_expression(args.expr2)
            )
            print(value)
            return 0

        if args.command == "count":
            from .tableaux import bounded_height_pairs, closed_form_terms

            print(bounded_height_pairs(args.n, args.k, args.method))
            if args.verbose:
                import json

                terms = [
                    {"composition": list(s), "term": str(value)}
                    for s, value in closed_form_terms(args.n, args.k)
                ]
                print(json.dumps(terms, indent=2))
            return 0

        # verify: a subcommand is required, so it is the only one left
        from . import verify

        ok = verify.run_suites(args.suite, verify.Bounds(args.max_degree))
        return 0 if ok else 1

    except ValueError as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("internal error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
