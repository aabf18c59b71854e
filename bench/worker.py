"""One benchmark run of one workload, in a fresh interpreter started by run.py.

Protocol on standard output: the line ``READY FACTOR SAMPLED_S`` as soon as
set-up (import, input generation and, for cache-reuse, building the cache)
is done, with the host's speed factor during set-up and the seconds that
sampling it took; then, unless ``--setup-only``, one JSON line with the
run's results and notes.

The timed region is a closed loop of passes over the workload's inputs, one
item at a time, until ``--seconds`` have elapsed (the pass under way is
finished).  With ``--trace 1`` passes alternate between untraced and traced,
so both see the same machine; the difference of their median CPU time per
pass is the tracing overhead.  Outputs are checked after the timed region.

Every pass also samples the host's speed (``calibrate``).  The end-to-end
times are the pass's measured times, less the sampling, multiplied by the
pass's speed factor: times at the reference speed.  The measured times
are kept in the result's ``info``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402  (imports skeinkit: part of set-up)


SETUP_SPEED_SAMPLES = 30  # kernel runs at the end of set-up


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "min"), default="full")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def code_digest() -> str:
    """Digest of the program and benchmark sources: counters are compared per digest."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_passes(wl, seconds: float, trace: bool):
    """Passes until `seconds` elapse; returns (passes, reference, tracer or None).

    After each pass, outside its timing, its outputs are compared with the
    reference outputs and dropped, so memory does not grow with the number
    of passes.  Equal polynomials have identical canonical text, so this is
    the byte-for-byte comparison.
    """
    passes = []
    reference = None
    t_begin = time.perf_counter()

    def one(tracer):
        nonlocal reference
        first_item = sum(len(p.latencies) for p in passes)
        gc.collect()  # every pass starts from the same collector state
        speed = calibrate.Speed()
        speed.sample(calibrate.EDGE_SAMPLES)
        sampled_wall, sampled_cpu = speed.wall_s, speed.cpu_s
        c0, w0 = time.process_time(), time.perf_counter()
        result = wl.run_pass(tracer, first_item, speed)
        result.wall_s = time.perf_counter() - w0 - (speed.wall_s - sampled_wall)
        if result.cpu_s is None:
            result.cpu_s = time.process_time() - c0 - (speed.cpu_s - sampled_cpu)
        speed.sample(calibrate.EDGE_SAMPLES)
        result.speed = speed.factor()
        result.traced = tracer is not None
        if reference is None:
            reference = wl.reference(result)
        result.differs = [
            i for i, out in enumerate(result.outputs)
            if result.errors[i] is None and out != reference[i]
        ]
        result.outputs = None
        passes.append(result)

    tracer = tracing.Tracer() if trace else None
    while len(passes) < (2 if trace else 1) or time.perf_counter() - t_begin < seconds:
        if trace and len(passes) % 2:
            tracer.install(tracing.TARGETS)
            try:
                one(tracer)
            finally:
                tracer.uninstall()
        else:
            one(None)
    return passes, reference, tracer


def tail_percentile(items_per_pass: int) -> int:
    """Highest whole percentile with at least ten of one pass's items beyond it.

    The choice depends on the workload's pass size only, never on how many
    passes a run completes, so the tail names the same item rank on every
    commit.  Below 11 items per pass it is the maximum.
    """
    if items_per_pass < 11:
        return 100
    return math.floor(100 * (1 - 10 / items_per_pass))


def nearest_rank(sorted_values: list, q: int) -> float:
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def check_counters(passes, key: str, out_dir: Path) -> list:
    """Counters must repeat exactly across passes and across runs of one code and seed."""
    problems = []
    first = passes[0].counters
    for i, p in enumerate(passes[1:], 1):
        if p.counters != first:
            problems.append(f"counters of pass {i} differ from pass 0: {p.counters} vs {first}")
    store = out_dir / "counters.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known and known[key] != first:
        problems.append(f"counters differ from an earlier run of this code and seed: {known[key]}")
    known.setdefault(key, first)
    tmp = store.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


def evaluate(wl, passes, reference, out_dir: Path, args) -> dict:
    """Check outputs, count failures, and compute the run's metrics.

    An item fails in a pass when it raised, when its output differs from
    the reference, when the checks found the reference output wrong, or
    when the pass broke a condition on its counters.
    """
    n = len(passes[0].latencies)
    problems = {i: found for i, found in wl.verify(reference).items() if found}
    problems.update({i: ["no reference output"] for i, out in enumerate(reference) if out is None})
    notes = [f"item {i}: {'; '.join(found)}" for i, found in sorted(problems.items())]
    failed = 0
    for k, p in enumerate(passes):
        bad = set(problems) | set(p.differs)
        bad.update(i for i, err in enumerate(p.errors) if err is not None)
        notes += [f"pass {k} item {i}: {err}" for i, err in enumerate(p.errors) if err is not None]
        notes += [f"pass {k} item {i}: output differs from the reference" for i in p.differs]
        for problem in wl.pass_problems(p.counters):
            bad = set(range(n))
            notes.append(f"pass {k}: {problem}")
        failed += len(bad)
    attempted = n * len(passes)
    key = f"{wl.name}/{args.size}/seed{args.seed}/{code_digest()}"
    counter_problems = check_counters(passes, key, out_dir)
    notes += counter_problems

    untraced = [p for p in passes if not p.traced]
    latencies = sorted(x * p.speed for p in untraced for x in p.latencies)
    q = tail_percentile(n)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "items_per_s": (n / statistics.median(p.wall_s * p.speed for p in untraced), "1/s"),
        "item_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "item_tail_ms": (nearest_rank(latencies, q) * 1000, "ms"),
        "cpu_s": (statistics.median(p.cpu_s * p.speed for p in untraced), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    beyond = len(latencies) - math.ceil(q / 100 * len(latencies))
    measured = sorted(x for p in untraced for x in p.latencies)
    info = {
        "inputs_sha256": hashlib.sha256(
            json.dumps(wl.inputs, sort_keys=True).encode()
        ).hexdigest(),
        "seed_applied": wl.seed_applied,
        "items_per_pass": n,
        "passes": len(untraced),
        "traced_passes": len(passes) - len(untraced),
        "item_tail": f"p{q} of {len(latencies)} samples, {beyond} beyond it",
        "cpu_s": "median user+system CPU seconds per pass",
        "times": "at the reference speed: measured times times the pass's speed factor",
        "speed_factor": {
            "median": statistics.median(p.speed for p in untraced),
            "min": min(p.speed for p in untraced),
            "max": max(p.speed for p in untraced),
        },
        "measured": {
            "items_per_s": n / statistics.median(p.wall_s for p in untraced),
            "item_p50_ms": statistics.median(measured) * 1000,
            "item_tail_ms": nearest_rank(measured, q) * 1000,
            "cpu_s": statistics.median(p.cpu_s for p in untraced),
        },
        "fail_ratio": failed / attempted,
        "counters": passes[0].counters,
        "code_digest": key.rsplit("/", 1)[1],
    }
    correct = failed == 0 and not counter_problems
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
        "notes": notes,
    }


def layer_metrics(tracer, passes) -> dict:
    """Per-layer metrics per traced pass, plus the counters and the tracing overhead."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    k = len(traced)
    totals = tracer.totals()
    out = {}
    for name, (calls, self_s) in totals.items():
        out[f"{name}.calls"] = (calls / k, "count")
        out[f"{name}.self_s"] = (self_s / k, "s")
    c = traced[0].counters
    hits, nodes = c["skein.memo_hits"], c["skein.nodes"]
    out.update({
        "skein.nodes": (nodes, "count"),
        "skein.memo_hits": (hits, "count"),
        "skein.hit_ratio": (hits / (hits + nodes) if hits + nodes else 0.0, "ratio"),
        "skein.memo_size": (c["skein.memo_size"], "count"),
        "skein.preloaded": (c["skein.preloaded"], "count"),
        "skein.cache_entries": (c["skein.cache_entries"], "count"),
        "skein.cache_bytes": (c["skein.cache_bytes"], "B"),
        "trace.overhead_cpu_s": (
            statistics.median(p.cpu_s for p in traced) - statistics.median(p.cpu_s for p in untraced),
            "s",
        ),
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = Path(args.out_dir)
    speed = calibrate.Speed()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, out_dir, speed)
    try:
        speed.sample(SETUP_SPEED_SAMPLES)
        print(f"READY {speed.factor()!r} {speed.wall_s!r}", flush=True)
        if args.setup_only:
            return 0
        passes, reference, tracer = run_passes(wl, args.seconds, bool(args.trace))
        result = evaluate(wl, passes, reference, out_dir, args)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, passes)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.bin"
            if tracer.span_start:
                result["info"]["spans_file"] = str(spans_path.relative_to(ROOT))
                result["info"]["spans"] = tracer.write_spans(spans_path)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        wl.close()


if __name__ == "__main__":
    sys.exit(main())
