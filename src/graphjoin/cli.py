"""Command-line front end.

Subcommands: ``generate`` (synthetic data files), ``join`` (file pair x
file pair through the reference or optimized implementation),
``verify`` (randomized law checking), ``bench`` (scaling table).

Every command exits 0 on success, 1 on a verification or assertion
failure, 2 on usage errors, 3 on I/O and data-format errors.  A
``--config`` file supplies key=value defaults for any long flag;
explicit flags win.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

from .engine import explain, prepare, prepare_files, run_join
from .graphio import (
    GeneratorParams,
    build_graph,
    generate,
    load_graph_pair,
    read_config,
    write_join_result,
)
from .logical import CONJUNCTIVE, DISJUNCTIVE, JoinSpec, graph_join
from .model import DataFormatError, GraphJoinError, PropertyGraph
from .relational import ThetaPredicate

_SEMANTICS = {
    "conjunctive": CONJUNCTIVE,
    "conj": CONJUNCTIVE,
    "disjunctive": DISJUNCTIVE,
    "disj": DISJUNCTIVE,
}


class _UsageError(Exception):
    pass


def _require(args, parser_hint: str, *names: str) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise _UsageError(f"{parser_hint}: missing required option(s): {flags}")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphjoin",
        description="Property-graph joins over indexed multisets.",
    )
    parser.add_argument("--config", help="key=value defaults file")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic vertex/edge file pair")
    g.add_argument("--scale", type=int, help="log2 vertex count")
    g.add_argument("--seed", type=int, default=1)
    g.add_argument("--edge-factor", type=int, default=2)
    g.add_argument("--dob-values", type=int, default=365)
    g.add_argument("--company-values", type=int, default=512)
    g.add_argument("--attr-suffix", default="", help="appended to attribute names")
    g.add_argument("--out", default=".", help="output directory")
    g.add_argument("--basename", default="graph")

    j = sub.add_parser("join", help="join two vertex/edge file pairs")
    j.add_argument("--left-vertices")
    j.add_argument("--left-edges")
    j.add_argument("--right-vertices")
    j.add_argument("--right-edges")
    j.add_argument(
        "--on",
        help="comma-separated attribute equalities, e.g. dob=dob,company=company",
    )
    j.add_argument("--semantics", choices=sorted(_SEMANTICS), default="conjunctive")
    j.add_argument("--engine", choices=("optimized", "oracle"), default="optimized")
    j.add_argument("--out", default="join-out", help="result directory")
    j.add_argument("--explain", action="store_true", help="print the cost report")

    v = sub.add_parser("verify", help="randomized law checking")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--max-vertices", type=int, default=8)
    v.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("bench", help="scaling table over generated data")
    b.add_argument("--scales", default="10,12,14", help="comma-separated log2 sizes")
    b.add_argument("--semantics", choices=("both", "conjunctive", "disjunctive"), default="both")
    b.add_argument("--repeat", type=int, default=1)
    timeout_help = "skip a cell's remaining repeats once one took longer than this many seconds"
    b.add_argument("--timeout", type=float, default=60.0, help=timeout_help)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--edge-factor", type=int, default=2)
    b.add_argument("--dob-values", type=int, default=365)
    b.add_argument("--company-values", type=int, default=512)
    b.add_argument("--out", default=".", help="report directory")

    # each subcommand parses into a fresh namespace, so config values
    # must be planted as defaults on every subparser to survive
    if defaults:
        for p in (parser, g, j, v, b):
            p.set_defaults(**defaults)
    return parser


def _parse_on(raw: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition("=")
        if not sep or not left.strip() or not right.strip():
            raise GraphJoinError(f"--on expects attr=attr pairs, got {chunk!r}")
        pairs.append((left.strip(), right.strip()))
    if not pairs:
        raise GraphJoinError("--on produced no attribute pairs")
    return tuple(pairs)


def _echo_table(rows: list[tuple[str, object]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def cmd_generate(args) -> int:
    _require(args, "generate", "scale")
    params = GeneratorParams(
        scale=args.scale,
        seed=args.seed,
        edge_factor=args.edge_factor,
        dob_values=args.dob_values,
        company_values=args.company_values,
        attr_suffix=args.attr_suffix,
    )
    vp, ep = generate(params, args.out, args.basename)
    print(vp)
    print(ep)
    return 0


def cmd_join(args) -> int:
    _require(args, "join", "left-vertices", "left-edges", "right-vertices", "right-edges", "on")
    pairs = _parse_on(args.on)
    semantics = _SEMANTICS[args.semantics]

    left_pair = (args.left_vertices, args.left_edges)
    right_pair = (args.right_vertices, args.right_edges)
    counters = None
    timings = {}
    if args.engine == "optimized":
        t0 = time.perf_counter()
        ia, ib = prepare_files(
            left_pair, right_pair, [p[0] for p in pairs], [p[1] for p in pairs]
        )
        timings["prepare_files"] = time.perf_counter() - t0
        t1 = time.perf_counter()
        run = run_join(ia, ib, semantics)
        timings["join"] = time.perf_counter() - t1
        result = run
        # the engine knows its result size before the vertices and edges
        # exist
        n_vertices, n_edges = run.n_vertices, run.n_edges
        counters = run.counters.as_dict()
        if args.explain:
            print(explain(run).render())
            print()
    else:
        t0 = time.perf_counter()
        db = PropertyGraph()
        left = load_graph_pair(db, *left_pair)
        right = load_graph_pair(db, *right_pair)
        timings["load_files"] = time.perf_counter() - t0
        theta = ThetaPredicate.equalities(pairs)
        t1 = time.perf_counter()
        result = graph_join(left, right, JoinSpec(theta, semantics))
        timings["join"] = time.perf_counter() - t1
        n_vertices, n_edges = len(result.vertices), len(result.edges)

    vertex_path, edge_path = write_join_result(result, args.out)

    report = {
        "command": "join",
        "engine": args.engine,
        "semantics": semantics,
        "on": ["=".join(p) for p in pairs],
        "timings_s": {k: round(v, 6) for k, v in timings.items()},
        "counters": counters,
        "result": {
            "vertices": n_vertices,
            "edges": n_edges,
            "vertex_file": vertex_path,
            "edge_file": edge_path,
        },
    }
    report_path = os.path.join(args.out, "join_report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = [
        ("engine", args.engine),
        ("semantics", semantics),
        ("on", report["on"]),
        ("result vertices", n_vertices),
        ("result edges", n_edges),
        ("report", report_path),
    ]
    rows.extend((f"time {k} (s)", f"{v:.4f}") for k, v in sorted(timings.items()))
    if counters:
        rows.extend(sorted(counters.items()))
    print(_echo_table(rows))
    return 0


def cmd_verify(args) -> int:
    # imported here so that the other commands never load it
    from .verify import run_suites

    if args.trials <= 0:
        print("warning: 0 trials requested; nothing was checked", file=sys.stderr)
        print("PASS (vacuous)")
        return 0
    results = run_suites(trials=args.trials, max_vertices=args.max_vertices, seed=args.seed)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.trials - r.failures}/{r.trials}")
        if not r.passed:
            failed = True
            print(f"  first counterexample: {r.first_counterexample}")
    return 1 if failed else 0


def _bench_operands(scale, args):
    """Both generated graphs of one scale, in one database; every cell
    of the scale joins them.  The sides get disjoint attribute
    namespaces so only the key equality constrains the merge, as in
    the reference workload."""
    db = PropertyGraph()
    common = dict(
        scale=scale,
        edge_factor=args.edge_factor,
        dob_values=args.dob_values,
        company_values=args.company_values,
    )
    left = build_graph(db, GeneratorParams(seed=args.seed, attr_suffix="1", **common))
    right = build_graph(db, GeneratorParams(seed=args.seed + 1, attr_suffix="2", **common))
    return left, right


def _bench_cell(left, right, semantics):
    """Timed prepare and join of one cell, and the join's counters.
    The heap is collected before preparing, so that the cell is not
    charged for garbage left by generation or earlier cells.  The
    operands live through the join unchanged, so they are frozen once
    built: the join's collections then scan what the join allocates,
    not millions of operand objects again."""
    gc.collect()
    t0 = time.perf_counter()
    ia = prepare(left, ["dob1", "company1"])
    ib = prepare(right, ["dob2", "company2"])
    t_prepare = time.perf_counter() - t0
    gc.freeze()
    try:
        t1 = time.perf_counter()
        run = run_join(ia, ib, semantics)
        # the timed join includes materializing the result
        run.graph
        t_join = time.perf_counter() - t1
    finally:
        gc.unfreeze()
    return t_prepare, t_join, run.counters


def cmd_bench(args) -> int:
    # imported here: it loads decimal, fractions and random, which no
    # other command uses
    import statistics

    try:
        scales = [int(s) for s in args.scales.split(",") if s.strip()]
    except ValueError:
        raise GraphJoinError(f"--scales expects integers, got {args.scales!r}") from None
    if not scales:
        raise GraphJoinError("--scales produced no scales")
    semantics_list = (
        [CONJUNCTIVE, DISJUNCTIVE]
        if args.semantics == "both"
        else [_SEMANTICS[args.semantics]]
    )
    table_rows = []
    report_cells = []
    violation = None
    for scale in scales:
        left, right = _bench_operands(scale, args)
        totals = {}
        for semantics in semantics_list:
            times = []
            timed_out = False
            for _ in range(max(1, args.repeat)):
                t_prepare, t_join, cell_counters = _bench_cell(left, right, semantics)
                total = t_prepare + t_join
                times.append((t_prepare, t_join, total))
                if total > args.timeout:
                    timed_out = True
                    break
            tot = [t[2] for t in times]
            cell = {
                "scale": scale,
                "semantics": semantics,
                "timed_out": timed_out,
                "prepare_s": round(min(t[0] for t in times), 6),
                "join_s": round(min(t[1] for t in times), 6),
                "total_min_s": round(min(tot), 6),
                "total_median_s": round(statistics.median(tot), 6),
                "counters": cell_counters.as_dict(),
            }
            report_cells.append(cell)
            totals[semantics] = cell_counters
            shown = f">{args.timeout:g}s" if timed_out else f"{min(tot):.3f}s"
            table_rows.append(
                (
                    f"2^{scale} {semantics}",
                    f"prepare {cell['prepare_s']:.3f}s  "
                    f"join {cell['join_s']:.3f}s  total {shown}  "
                    f"comparisons {cell_counters.comparison_total}",
                )
            )
        # free this scale's graphs before the next scale is generated
        del left, right
        if CONJUNCTIVE in totals and DISJUNCTIVE in totals:
            if totals[CONJUNCTIVE].comparison_total > totals[DISJUNCTIVE].comparison_total:
                violation = (
                    f"scale 2^{scale}: conjunctive comparisons exceed disjunctive "
                    f"({totals[CONJUNCTIVE].comparison_total} > "
                    f"{totals[DISJUNCTIVE].comparison_total})"
                )

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "bench_report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "command": "bench",
                "repeat": args.repeat,
                "timeout_s": args.timeout,
                "cells": report_cells,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")

    print(_echo_table(table_rows))
    print(f"report: {report_path}")
    if violation:
        print(f"assertion failed: {violation}", file=sys.stderr)
        return 1
    return 0


_CONFIG_DESTS = {
    "scale", "seed", "edge_factor", "dob_values", "company_values", "out",
    "basename", "semantics", "engine", "trials", "max_vertices",
    "scales", "repeat", "timeout", "on",
}
_INT_DESTS = {
    "scale", "seed", "edge_factor", "dob_values", "company_values",
    "trials", "max_vertices", "repeat",
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]

    # pre-scan for --config so its values become parser defaults
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    try:
        known, _ = pre.parse_known_args(argv)
    except SystemExit:
        return 2
    defaults = {}
    if known.config:
        try:
            cfg = read_config(known.config)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except DataFormatError as exc:
            print(f"error: {known.config}: {exc}", file=sys.stderr)
            return 3
        for key, value in cfg.items():
            dest = key.replace("-", "_")
            if dest not in _CONFIG_DESTS:
                print(f"error: unknown config key {key!r}", file=sys.stderr)
                return 2
            if dest in _INT_DESTS:
                try:
                    value = int(value)
                except ValueError:
                    print(f"error: config key {key!r} expects an integer", file=sys.stderr)
                    return 2
            elif dest == "timeout":
                try:
                    value = float(value)
                except ValueError:
                    print(f"error: config key {key!r} expects a number", file=sys.stderr)
                    return 2
            defaults[dest] = value
    parser = build_parser(defaults)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # argparse checks choices only on the command line, so a value that
    # breaks them came from the config file
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    for action in commands[args.command]._actions:
        if action.choices is not None and getattr(args, action.dest) not in action.choices:
            allowed = ", ".join(action.choices)
            print(f"error: config key {action.dest!r} expects one of: {allowed}", file=sys.stderr)
            return 2

    try:
        if args.command == "generate":
            return cmd_generate(args)
        if args.command == "join":
            return cmd_join(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bench":
            return cmd_bench(args)
        print(f"error: unknown command {args.command!r}", file=sys.stderr)
        return 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GraphJoinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
