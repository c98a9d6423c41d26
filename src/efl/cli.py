"""Command-line front end.

Exit codes: 0 when the subcommand's assertion holds, 1 when a coloring method
or golden comparison fails, 2 for input errors (unreadable files, parse or
flag problems), 3 when a resource limit is exceeded.  All output is
deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import CoreSizeLimitError, EflError, ParseError
from .export import export_coloring, export_dot, serialize_instance
from .generators import (
    EXAMPLE_FINAL_MATRIX,
    GenSpec,
    build_random,
    example_instance,
    gen_dense,
    gen_disjoint,
)
from .greedy import HypothesisReport, check_sy1, check_sy2_all, run_greedy
from .instance import (
    Instance,
    core_subgraph,
    degree_profile,
    parse_instance,
    validate,
)
from .matrix_engine import (
    ColorMatrix,
    EngineConfig,
    render_trace,
    run_matrix_method,
)
from .oracle import (
    chromatic_number_exact,
    corollary_bound_check,
    theorem_identity,
)


def _read_instance(path: str, *, require_validity: bool = True) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read(), require_validity=require_validity)


def cmd_validate(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file, require_validity=False)
    report = validate(inst)
    print(f"instance: n={inst.n}, vertices={len(inst.vertices)}")
    print(f"valid: {'yes' if report.ok else 'no'}")
    for v in report.violations:
        print(f"violation: {v.message}")
    return 0 if report.ok else 1


def cmd_color(args: argparse.Namespace) -> int:
    if args.method == "greedy" and args.budget is not None:
        raise ParseError("--budget applies to --method matrix only")
    if args.method == "greedy" and args.trace:
        raise ParseError("--trace applies to --method matrix only")
    inst = _read_instance(args.file)
    if args.method == "matrix":
        cfg = EngineConfig(repair_budget=args.budget, trace_enabled=args.trace)
        result = run_matrix_method(inst, cfg)
    else:
        result = run_greedy(inst)
    coloring = result.coloring
    if args.dot and coloring is not None:
        # written before any output, so a write that fails leaves stdout empty
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(export_dot(inst, coloring))
    if args.trace and result.trace:
        print(render_trace(result.trace))
    if coloring is None:
        print(f"method: {args.method}")
        print("status: failed")
        print(f"reason: {result.reason}")
        return 1
    if args.out == "structured":
        sys.stdout.write(export_coloring(coloring, inst.n))
    else:
        print(f"method: {args.method}")
        print("status: success")
        print(f"colors used: {len(set(coloring.values()))}")
        for v in sorted(coloring):
            print(f"{v} {coloring[v]}")
    return 0


def cmd_chromatic(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    core = core_subgraph(inst)
    chi = chromatic_number_exact(core, vertex_limit=args.limit)
    print(f"core vertices: {len(core.vertices)}")
    print(f"core chromatic number: {chi}")
    if chi <= inst.n:
        print(f"verdict: n-colorable (n = {inst.n})")
        return 0
    print(f"verdict: not n-colorable (core needs {chi} > n = {inst.n})")
    return 1


def _print_hypothesis(title: str, report: HypothesisReport) -> None:
    print(f"{title} ({report.parameter}):")
    for row in report.per_clique:
        status = "ok" if row.ok else "FAIL"
        print(f"  clique {row.clique}: count {row.count}, bound {row.bound}, {status}")
    if report.first_failing_d is not None:
        print(f"  first failing d: {report.first_failing_d}")
    print(f"  holds: {'yes' if report.holds else 'no'}")


def cmd_stats(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    print(f"n: {inst.n}")
    print(f"vertices: {len(inst.vertices)}")
    print("degree histogram:")
    for d, count in degree_profile(inst).histogram.items():
        print(f"  {d}: {count}")
    ident = theorem_identity(inst)
    print(
        f"identity: sum C(d,2) = {ident.lhs}, intersecting pairs = {ident.rhs}, "
        f"all pairs intersect: {'yes' if ident.all_pairs_intersect else 'no'}"
    )
    identity_ok = ident.lhs == ident.rhs
    print(f"identity holds: {'yes' if identity_ok else 'no'}")
    bound = corollary_bound_check(inst)
    print("degree-count bound:")
    for row in bound.rows:
        status = "ok" if row.ok else "FAIL"
        print(
            f"  m={row.m}: count {row.count}, weighted {row.weighted}, "
            f"bound {row.bound}, {status}"
        )
    print(f"bound holds: {'yes' if bound.ok else 'no'}")
    _print_hypothesis("sqrt-n condition", check_sy1(inst))
    _print_hypothesis("degree-threshold condition", check_sy2_all(inst))
    return 0 if identity_ok and bound.ok else 1


def cmd_gen(args: argparse.Namespace) -> int:
    if args.kind != "random" and args.seed is not None:
        raise ParseError("--seed applies to --kind random only")
    if args.kind != "random" and args.merges is not None:
        raise ParseError("--merges applies to --kind random only")
    if args.kind == "disjoint":
        inst = gen_disjoint(args.n)
        extra = ""
    elif args.kind == "dense":
        inst = gen_dense(args.n)
        extra = ""
    else:
        if args.seed is None:
            raise ParseError("--seed is required for --kind random")
        merges = args.merges or 0
        built = build_random(GenSpec(kind="random", n=args.n, seed=args.seed, merges=merges))
        inst = built.instance
        extra = (
            f" merges: requested={merges} achieved={built.merges_done}"
            f" extensions={built.extensions_done}"
        )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))
    print(
        f"wrote {args.output}: kind={args.kind} n={inst.n} "
        f"vertices={len(inst.vertices)}{extra}"
    )
    return 0


def cmd_trace_example(args: argparse.Namespace) -> int:
    inst = example_instance()
    result = run_matrix_method(inst, EngineConfig(trace_enabled=True))
    if result.trace:
        print(render_trace(result.trace))
    final = result.final_matrix
    print("final matrix:")
    print(final.render())
    expected = ColorMatrix.from_text(EXAMPLE_FINAL_MATRIX)
    mismatches = [
        (i, j, final.get(i, j), expected.get(i, j))
        for i in range(1, final.n + 1)
        for j in range(1, final.n + 1)
        if final.get(i, j) != expected.get(i, j)
    ]
    if not result.ok or mismatches:
        for i, j, got, want in mismatches:
            print(f"cell ({i},{j}): got {got}, expected {want}")
        print("golden match: FAIL")
        return 1
    print("golden match: ok")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efl",
        description="Clique covers of Erdos-Faber-Lovasz type: color, verify, generate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a .efl file against the cover invariants")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("color", help="color an instance with n colors")
    p.add_argument("file")
    p.add_argument("--method", choices=("matrix", "greedy"), required=True)
    p.add_argument(
        "--trace", action="store_true", help="print the engine event log (matrix only)"
    )
    p.add_argument("--budget", type=int, default=None, help="repair budget (matrix only)")
    p.add_argument("--out", choices=("text", "structured"), default="text")
    p.add_argument("--dot", metavar="FILE", default=None, help="write a colored DOT file")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("chromatic", help="exact chromatic number of the core graph")
    p.add_argument("file")
    p.add_argument("--limit", type=int, default=40, help="max core vertices for exact search")
    p.set_defaults(func=cmd_chromatic)

    p = sub.add_parser("stats", help="degree histogram, identity, bounds, conditions")
    p.add_argument("file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--kind", choices=("disjoint", "dense", "random"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="generator seed (random only)")
    p.add_argument("--merges", type=int, default=None, help="merges, default 0 (random only)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "trace-example",
        help="run the bundled example through the matrix method and diff the result",
    )
    p.set_defaults(func=cmd_trace_example)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoreSizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (EflError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
