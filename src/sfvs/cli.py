"""Command-line interface: solve, kernelize, oracle, verify, gen, bench.

Single-instance commands print one JSON object to standard output; ``gen``
prints an instance file.  Exit codes: 0 for YES/valid/success, 1 for a NO
or invalid answer, 2 for usage or parse errors, 3 when a structural guard
rejects the input (non-chordal, non-split, oracle size cap); guard
rejections carry a certificate in the JSON.

``bench`` reads a JSON array of generator specs and writes one CSV row per
instance, ordered by instance id, with the fixed column set::

    instance_id, family, n, m, terminals, k, answer, kernel_kind,
    kernel_clique_side, kernel_vertices, nodes_visited, gen_ms,
    kernelize_ms, solve_ms, status

Per-instance failures land in the status column and the suite continues.
An existing output file is appended to without repeating the header.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from .chordal import NotChordalError, NotSplitError
from .generators import FAMILIES, GenError, GenSpec, generate, generate_text
from .graph import (
    GraphError,
    Instance,
    ParseError,
    format_instance,
    parse_instance,
    solution_defect,
)
from .kernel import kernelize
from .oracle import ORACLE_VERTEX_CAP, OracleGuardError, oracle_decide
from .solver import solve

BENCH_COLUMNS = [
    "instance_id",
    "family",
    "n",
    "m",
    "terminals",
    "k",
    "answer",
    "kernel_kind",
    "kernel_clique_side",
    "kernel_vertices",
    "nodes_visited",
    "gen_ms",
    "kernelize_ms",
    "solve_ms",
    "status",
]

KERNEL_FAMILIES = {"split-random", "vc-reduction"}


def _emit(payload: dict, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _read_instance(args) -> Instance:
    text = Path(args.input).read_text() if args.input != "-" else sys.stdin.read()
    inst = parse_instance(text)
    if args.k is not None:
        inst.k = args.k
    inst.validate()
    return inst


def _answer_word(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_solve(args) -> int:
    inst = _read_instance(args)
    start = time.perf_counter()
    res = solve(inst)
    wall = (time.perf_counter() - start) * 1000.0
    _emit(
        {
            "answer": _answer_word(res.answer),
            "solution": sorted(res.solution) if res.solution is not None else None,
            "nodes_visited": res.nodes_visited,
            "max_depth": res.max_depth,
            "pruned": res.pruned,
            "wall_ms": round(wall, 3),
            "trace": [e.to_dict() for e in res.trace],
        },
        args,
    )
    return 0 if res.answer else 1


def cmd_kernelize(args) -> int:
    inst = _read_instance(args)
    start = time.perf_counter()
    out = kernelize(inst)
    wall = (time.perf_counter() - start) * 1000.0
    payload = {
        "kind": out.kind,
        "n": out.instance.graph.n if out.instance else None,
        "m": out.instance.graph.m if out.instance else None,
        "k": out.instance.k if out.instance else None,
        "clique_side": len(out.clique_side) if out.clique_side is not None else None,
        "wall_ms": round(wall, 3),
        "trace": [e.to_dict() for e in out.trace],
        "kernel_file": None,
    }
    if args.emit_kernel and out.instance is not None:
        Path(args.emit_kernel).write_text(format_instance(out.instance))
        payload["kernel_file"] = args.emit_kernel
    _emit(payload, args)
    return 1 if out.kind == "no" else 0


def cmd_oracle(args) -> int:
    inst = _read_instance(args)
    start = time.perf_counter()
    answer, witness = oracle_decide(inst, max_n=args.max_oracle_n)
    wall = (time.perf_counter() - start) * 1000.0
    _emit(
        {
            "answer": _answer_word(answer),
            "witness": sorted(witness) if witness is not None else None,
            "wall_ms": round(wall, 3),
        },
        args,
    )
    return 0 if answer else 1


def cmd_verify(args) -> int:
    inst = _read_instance(args)
    defect = solution_defect(inst, _parse_solution(args.solution))
    reason, cycle = defect or (None, None)
    _emit({"valid": defect is None, "witness_cycle": cycle, "reason": reason}, args)
    return 0 if defect is None else 1


def _parse_solution(text: str) -> set[int]:
    text = text.strip()
    if not text:
        return set()
    try:
        return {int(part) for part in text.replace(",", " ").split()}
    except ValueError as exc:
        raise ParseError(f"bad solution list {text!r}") from exc


def _spec_from_mapping(entry: dict, default_seed: int = 0) -> GenSpec:
    known = {"family", "n", "k", "seed", "clique_side", "edge_prob", "terminal_frac"}
    extra = set(entry) - known - {"id"}
    if extra:
        raise GenError(f"unknown generator fields {sorted(extra)}")
    try:
        return GenSpec(
            family=entry["family"],
            n=int(entry.get("n", 0)),
            k=int(entry.get("k", 0)),
            seed=int(entry.get("seed", default_seed)),
            clique_side=int(entry.get("clique_side", 0)),
            edge_prob=float(entry.get("edge_prob", 0.3)),
            terminal_frac=float(entry.get("terminal_frac", 0.4)),
        )
    except KeyError as exc:
        raise GenError(f"generator spec missing field {exc}") from exc


def cmd_gen(args) -> int:
    spec = GenSpec(
        family=args.family,
        n=args.n,
        k=args.k if args.k is not None else 0,
        seed=args.seed,
        clique_side=args.clique_side,
        edge_prob=args.edge_prob,
        terminal_frac=args.terminal_frac,
    )
    sys.stdout.write(generate_text(spec))
    return 0


def _bench_row(entry: dict, index: int) -> dict:
    row = {col: "" for col in BENCH_COLUMNS}
    row["status"] = "ok"
    row["instance_id"] = f"entry-{index}"
    try:
        if not isinstance(entry, dict):
            raise GenError("suite entries must be JSON objects")
        row["family"] = str(entry.get("family", ""))
        spec = _spec_from_mapping(entry, default_seed=index)
        row["instance_id"] = str(entry.get("id", f"{spec.family}-{spec.seed}"))
        row["family"] = spec.family
        start = time.perf_counter()
        inst = generate(spec)
        row["gen_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        row["n"] = inst.graph.n
        row["m"] = inst.graph.m
        row["terminals"] = len(inst.terminals)
        row["k"] = inst.k
        if spec.family in KERNEL_FAMILIES:
            start = time.perf_counter()
            out = kernelize(inst.copy())
            row["kernelize_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
            row["kernel_kind"] = out.kind
            if out.kind == "reduced":
                row["kernel_clique_side"] = len(out.clique_side)
                row["kernel_vertices"] = out.instance.graph.n
        start = time.perf_counter()
        res = solve(inst.copy())
        row["solve_ms"] = round((time.perf_counter() - start) * 1000.0, 3)
        row["answer"] = _answer_word(res.answer)
        row["nodes_visited"] = res.nodes_visited
    except Exception as exc:  # noqa: BLE001 - suite must keep going
        row["status"] = f"error:{type(exc).__name__}"
    return row


def cmd_bench(args) -> int:
    entries = json.loads(Path(args.suite).read_text())
    if not isinstance(entries, list):
        raise GenError("suite file must hold a JSON array of generator specs")
    rows = [_bench_row(entry, i) for i, entry in enumerate(entries)]
    rows.sort(key=lambda r: r["instance_id"])
    if args.out:
        path = Path(args.out)
        fresh = not path.exists() or path.stat().st_size == 0
        with path.open("a", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=BENCH_COLUMNS)
            if fresh:
                writer.writeheader()
            writer.writerows(rows)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=BENCH_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return 0


def _add_input_flags(sub) -> None:
    sub.add_argument("--input", "-i", required=True, help="instance file, or - for stdin")
    sub.add_argument("--k", type=int, default=None, help="override the budget from the file")
    sub.add_argument("--json", action="store_true", help="compact single-line JSON")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfvs",
        description="Subset feedback vertex set tools for chordal and split graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_solve = subs.add_parser("solve", help="exact branch-and-reduce decision")
    _add_input_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_kern = subs.add_parser("kernelize", help="split-graph kernelization")
    _add_input_flags(p_kern)
    p_kern.add_argument("--emit-kernel", metavar="PATH", help="write the reduced instance here")
    p_kern.set_defaults(func=cmd_kernelize)

    p_oracle = subs.add_parser("oracle", help="brute-force reference decision")
    _add_input_flags(p_oracle)
    p_oracle.add_argument(
        "--max-oracle-n",
        type=int,
        default=ORACLE_VERTEX_CAP,
        help="vertex cap guarding the exponential oracle",
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_verify = subs.add_parser("verify", help="check a proposed solution set")
    _add_input_flags(p_verify)
    p_verify.add_argument(
        "--solution",
        required=True,
        help="vertex ids, comma or space separated; empty string for the empty set",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_gen = subs.add_parser("gen", help="write a generated instance to stdout")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", type=int, required=True, help="vertex count parameter")
    p_gen.add_argument("--k", type=int, default=None, help="budget parameter")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--clique-side", type=int, default=0, dest="clique_side")
    p_gen.add_argument("--edge-prob", type=float, default=0.3, dest="edge_prob")
    p_gen.add_argument("--terminal-frac", type=float, default=0.4, dest="terminal_frac")
    p_gen.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = subs.add_parser("bench", help="run a suite of generated instances")
    p_bench.add_argument("--suite", required=True, help="JSON array of generator specs")
    p_bench.add_argument("--out", help="CSV path; appended to when it exists")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError, GenError, GraphError, OSError, UnicodeDecodeError, json.JSONDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotChordalError as exc:
        print(json.dumps({"error": "not-chordal", "certificate": list(exc.cycle)}))
        return 3
    except NotSplitError as exc:
        print(
            json.dumps(
                {"error": "not-split", "kind": exc.kind, "certificate": list(exc.witness)}
            )
        )
        return 3
    except OracleGuardError as exc:
        print(json.dumps({"error": "oracle-guard", "detail": str(exc)}))
        return 3


if __name__ == "__main__":
    sys.exit(main())
