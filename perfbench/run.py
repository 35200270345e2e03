#!/usr/bin/env python3
"""Closed-loop benchmark of the sfvs package, run from outside the package.

One process and one thread: a single caller decides instances one after
another, as ``sfvs bench`` does.  Each op is ``parse_instance(text)``
followed by ``solve(inst)`` or ``kernelize(inst)``, as the instance's plan
says.  The instance texts are
generated from ``--seed`` during set-up and every op's output is checked
against answers the benchmark derives on its own (see ``refs.py``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload split --seed 1 --seconds 55 --trace 0

``--trace 0`` makes passes over the workload's instances, at least three
whole ones and at least ``--seconds`` seconds of op time, and reports the
end-to-end metrics over each instance's fastest run.  Set-up is repeated
after every pass, so its median covers the whole run.  ``--trace 1`` runs
every instance once traced and once untraced and reports per-layer counts
and self times plus the tracing overhead; its spans are written to
``perfbench/out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import refs
from tracer import TRACED, Tracer
from workloads import WORKLOADS, build_text, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_PASSES = 3
# stop early rather than overrun the 180 s a run may take
WALL_LIMIT_S = 150.0

KERNEL_RULES = (
    "decide-yes",
    "decide-no",
    "delete-isolated",
    "no-terminal-neighbor",
    "delete-bridge",
    "pick-clique-terminal",
    "max-matching",
    "degree-bound",
    "packing-exceeds-budget",
    "bound-k0",
    "bound-k1",
)


def load_sfvs():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    init = ROOT / "src" / "sfvs" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init.relative_to(ROOT)} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import sfvs

    return sfvs


class Bench:
    """One workload on one seed: planned items, their texts and the op loop."""

    def __init__(self, sfvs, workload, seed: int):
        self.sfvs = sfvs
        self.wl = workload
        self.items = plan(sfvs, workload, seed)
        self.setup_times = []
        self.texts = self.build()
        self.seen: dict[int, tuple] = {}
        self.failures: Counter = Counter()
        self.attempted = 0

    def build(self) -> list[str]:
        """Build every instance text (the timed set-up); a rebuild must
        reproduce the first build exactly."""
        start = perf_counter()
        texts = [build_text(self.sfvs, item) for item in self.items]
        self.setup_times.append(perf_counter() - start)
        if self.setup_times[1:] and texts != self.texts:
            raise RuntimeError("rebuilding the instance texts gave different texts")
        return texts

    def op(self, i: int):
        """Run op ``i``; returns (output or exception, parse seconds, decide seconds)."""
        sfvs = self.sfvs
        start = perf_counter()
        try:
            inst = sfvs.parse_instance(self.texts[i])
            mid = perf_counter()
            out = sfvs.solve(inst) if self.items[i].op == "solve" else sfvs.kernelize(inst)
        except Exception as exc:  # noqa: BLE001 - a raising op is a counted failure
            end = perf_counter()
            return exc, end - start, 0.0
        end = perf_counter()
        return out, mid - start, end - mid

    def record(self, i: int, out) -> None:
        """Check op ``i``'s output and count a failure if it is wrong."""
        self.attempted += 1
        if isinstance(out, Exception):
            self.failures[f"raised {type(out).__name__}"] += 1
            return
        key = self.fingerprint(i, out)
        if i in self.seen:
            problem = None if self.seen[i] == key else "output differs from an earlier run of the same text"
        else:
            problem = self.check(i, out)
            self.seen[i] = key
        if problem is not None:
            self.failures[f"{self.items[i].label}: {problem}"] += 1

    def fingerprint(self, i: int, out) -> tuple:
        if self.items[i].op == "solve":
            sol = None if out.solution is None else tuple(sorted(out.solution))
            return (out.answer, sol, out.nodes_visited, out.max_depth, tuple(out.trace.steps))
        return (out.kind, tuple(out.trace.steps))

    def check(self, i: int, out) -> str | None:
        if self.items[i].op == "solve":
            expect = self.items[i].expect
            if out.answer != expect:
                return f"answer {out.answer}, expected {expect}"
            plain = refs.read_text(self.texts[i])
            if out.answer and (out.solution is None or not refs.is_solution(plain, out.solution)):
                return "YES witness is not a solution of size <= k"
            return None
        if out.kind in ("yes", "no"):
            return self.check_decision(i, out)
        return self.check_kernel(i, out)

    def check_decision(self, i: int, out) -> str | None:
        """A kernel decision must match the input's certificate, if any, and
        be certified on the instance its trace leads to."""
        item = self.items[i]
        said = out.kind == "yes"
        if item.expect is not None and said != item.expect:
            return f"kernel decided {out.kind}, certificate says {'yes' if item.expect else 'no'}"
        final = refs.apply_trace(refs.read_text(self.texts[i]), out.trace)
        kside = set(range(1, item.clique_side + 1)) & final.adj.keys()
        if refs.split_decision(final, kside) != said:
            return f"kernel decided {out.kind} on a final state no certificate decides that way"
        return None

    def check_kernel(self, i: int, out) -> str | None:
        kern = out.instance
        g, k = kern.graph, kern.k
        if k < 1:
            return "reduced kernel has a budget below 1"
        if len(out.clique_side) > 10 * k:
            return "kernel clique side exceeds 10k"
        if any(len(g.neighbors(v) & out.indep_side) > k for v in out.clique_side):
            return "kernel vertex keeps more than k independent neighbours"
        if g.n > 10 * k + 10 * k * k:
            return "kernel exceeds 10k + 10k^2 vertices"
        replayed = self.sfvs.replay(self.sfvs.parse_instance(self.texts[i]), out.trace)
        if (replayed.graph, replayed.terminals, replayed.k) != (g, kern.terminals, k):
            return "replaying the trace does not give the returned kernel"
        return None

    @property
    def answers_digest(self) -> str:
        """Digest of every checked output (answers, witnesses, nodes, traces)."""
        return hashlib.sha256(repr(sorted(self.seen.items())).encode()).hexdigest()[:16]

    def result(self, metrics: dict) -> dict:
        failed = sum(self.failures.values())
        return {
            "correct": failed == 0,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": metrics,
        }


def tail_rank(count: int, pct: float) -> int:
    """1-based nearest rank of the ``pct`` percentile among ``count`` samples."""
    return min(count, max(1, math.ceil(pct * count)))


def measure(bench: Bench, seconds: float, started: float) -> dict:
    """Passes over the instances until at least ``MIN_PASSES`` whole passes
    and at least ``seconds`` of op time are done (tracing off).

    Each instance's latency is its fastest run.  Other tenants of the
    machine slow every op down by up to 1.7x for stretches of seconds to
    minutes; a pass takes about 3 s, so each instance is run many times,
    spread over the run, and its fastest run falls outside the slow
    stretches as long as the run has any.  Set-up is rebuilt after every
    pass, so its median samples the same stretches.
    """
    n = len(bench.texts)
    best = [math.inf] * n
    busy = 0.0
    passes = 0
    gc.collect()
    while True:
        for i in range(n):
            out, parse_s, decide_s = bench.op(i)
            best[i] = min(best[i], parse_s + decide_s)
            busy += parse_s + decide_s
            bench.record(i, out)
            if passes >= MIN_PASSES and busy >= seconds:
                break
            if perf_counter() - started > WALL_LIMIT_S:
                print(f"warning: wall limit reached in pass {passes + 1}", file=sys.stderr)
                break
        else:
            passes += 1
            bench.build()
            continue
        break
    lat = sorted(t for t in best if t < math.inf)
    rank = tail_rank(len(lat), bench.wl.tail_pct)
    if len(lat) - rank < 10:
        print(f"warning: only {len(lat) - rank} samples beyond the tail percentile", file=sys.stderr)
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (lat[rank - 1] * 1e3, "ms"),
        "setup_s": (statistics.median(bench.setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_layers(bench: Bench, seed: int) -> dict:
    """One pass over the instances, each op run once traced and once not.

    The two runs of an op alternate in order, so warm-up favours neither
    side of the tracing-overhead ratio.
    """
    n = len(bench.texts)
    tracer = Tracer()
    outs = []
    traced_s = untraced_s = solve_s = 0.0
    gc.collect()
    for i in range(n):
        for traced in (True, False) if i % 2 == 0 else (False, True):
            if traced:
                tracer.op = i
                with tracer.patched():
                    out, parse_s, decide_s = bench.op(i)
                traced_s += parse_s + decide_s
                outs.append(out)
            else:
                out, parse_s, decide_s = bench.op(i)
                untraced_s += parse_s + decide_s
                if bench.items[i].op == "solve":
                    solve_s += decide_s
            bench.record(i, out)

    m: dict[str, tuple[float, str]] = {}
    for name in sorted({name for name, _, _ in TRACED}):
        m[f"{name}.calls"] = (tracer.calls[name], "count")
        m[f"{name}.self_ms"] = (tracer.self_s[name] * 1e3, "ms")

    fired: Counter = Counter()
    kern_n = in_n = 0
    nodes = depth = 0
    bound_ratio = 0.0
    for i, out in enumerate(outs):
        if isinstance(out, Exception):
            continue
        if bench.items[i].op == "kernelize":
            fired.update(out.trace.rules())
            if out.kind == "reduced":
                kern_n += out.instance.graph.n
                in_n += len(refs.read_text(bench.texts[i]).adj)
        else:
            nodes += out.nodes_visited
            depth = max(depth, out.max_depth)
            bound_ratio = max(bound_ratio, out.nodes_visited / 2 ** (bench.items[i].k + 2))
    for rule in KERNEL_RULES:
        m[f"kernel.rule.{rule}.fired"] = (fired[rule], "count")
    mm_calls = tracer.calls["kernel.rule_max_matching"]
    m["kernel.rule_max_matching.calls"] = (mm_calls, "count")
    m["kernel.rule_max_matching.hit_ratio"] = (fired["max-matching"] / mm_calls if mm_calls else 0.0, "ratio")
    m["kernel.size_ratio"] = (kern_n / in_n if in_n else 0.0, "ratio")
    m["solver.nodes"] = (nodes, "count")
    m["solver.max_depth"] = (depth, "count")
    m["solver.ms_per_node"] = (solve_s * 1e3 / nodes if nodes else 0.0, "ms")
    m["solver.node_bound_ratio"] = (bound_ratio, "ratio")
    m["trace.traced_ops_per_s"] = (n / traced_s, "1/s")
    m["trace.untraced_ops_per_s"] = (n / untraced_s, "1/s")
    m["trace.ops_per_s_ratio"] = (untraced_s / traced_s, "ratio")
    m["trace.spans"] = (len(tracer.span_name), "count")

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{bench.wl.name}-seed{seed}.tsv.gz"
    tracer.write(path)
    print(f"spans: {path.relative_to(ROOT)} ({len(tracer.span_name)} recorded, {tracer.dropped} dropped)")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()
    sfvs = load_sfvs()
    bench = Bench(sfvs, WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics = measure_layers(bench, args.seed)
    else:
        metrics = measure(bench, args.seconds, started)
    print(
        f"{args.workload} seed={args.seed} instances={len(bench.items)} "
        f"ops={bench.attempted} answers_digest={bench.answers_digest}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    if not args.trace:
        failed = sum(bench.failures.values())
        print(f"  failed_frac = {failed / bench.attempted:.6g} ratio")
    for reason, count in sorted(bench.failures.items()):
        print(f"  FAILED x{count}: {reason}")
    payload = bench.result({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()})
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
