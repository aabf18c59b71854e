"""skeinkit benchmark: one workload per run, every metric by name with its unit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|min]
    python3 bench/run.py --workload all --seed N --seconds S   # every workload in turn

Run it from the root of a source checkout: the program is imported from
``src/`` there, and scratch files (the cache-reuse cache, counters, spans)
go to ``.bench_out/``.  Workloads, metrics and units are those of
``BENCHMARK.json``; ``bench/baseline.json`` records what each layer metric
should move and the numbers measured on the seed code.

Each run is single-process and closed-loop: one item at a time, in a fresh
interpreter.  Set-up time is the median of three to nine set-ups (more
than three while they have taken under ``SETUP_BUDGET_S``), each in a
fresh interpreter, timed from its launch to its READY line less the time
the set-up spent sampling the host's speed, and brought to the reference
speed with those samples (see ``calibrate``; every time metric is reported
at that speed).  The last line of standard output is the JSON result:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  A run exits with code 0 whether or not the outputs are
correct (``correct`` says which); it exits with another code, printing no
result, when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("satellite-cold", "cache-reuse", "braid-oracles", "verify-all")
SETUP_SAMPLES = (3, 9)  # fewest and most set-ups per run
SETUP_BUDGET_S = 1.5  # more than the fewest set-ups only while they took less
RUN_LIMIT_S = 170  # a run must exit within 180 s
# A fixed hash seed takes one source of speed difference between processes
# (the layout of dicts keyed by bytes, such as the skein memo) out of the
# comparison between runs.
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "min"), default="full",
                   help="min: a few small inputs per workload, for the self-test")
    return p.parse_args(argv)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "skeinkit" / "__init__.py").is_file():
        raise BenchError(f"no skeinkit sources under {ROOT / 'src'}")
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def spawn(args, workload: str, setup_only: bool, deadline: float):
    """Start a worker; return (seconds from launch to READY less the speed
    sampling, the host's speed factor during set-up, result dict or None)."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--out-dir", str(OUT_DIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=WORKER_ENV, start_new_session=True
    )
    # On overrun, kill the worker and any verify child it started.
    timer = threading.Timer(
        max(1.0, deadline - time.monotonic()), os.killpg, (proc.pid, signal.SIGKILL)
    )
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    ready = first.split()
    if rc != 0 or len(ready) != 3 or ready[0] != "READY":
        raise BenchError(f"worker for {workload} exited with code {rc}")
    result = None if setup_only else json.loads(rest.strip().splitlines()[-1])
    return setup_s - float(ready[2]), float(ready[1]), result


def run_workload(args, spec: dict, workload: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups, t0 = [], time.perf_counter()
    while len(setups) < SETUP_SAMPLES[0] - 1 or (
        len(setups) < SETUP_SAMPLES[1] - 1 and time.perf_counter() - t0 < SETUP_BUDGET_S
    ):
        setups.append(spawn(args, workload, True, deadline)[:2])
    setup_s, factor, result = spawn(args, workload, False, deadline)
    setups.append((setup_s, factor))
    result["metrics"]["setup_s"] = (statistics.median(s * f for s, f in setups), "s")
    result["info"]["setup_samples_s"] = [s for s, _ in setups]
    result["info"]["setup_speed_factors"] = [f for _, f in setups]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = result["layers"] if args.trace else result["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            raise BenchError(f"{workload}: metric {m['name']} was not measured")
        value, unit = source[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{workload}: {m['name']} measured in {unit}, declared {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
        "info": result["info"],
        "notes": result["notes"],
    }


def report(workload: str, args, res: dict) -> None:
    info = res["info"]
    print(f"workload {workload}  seed {args.seed}"
          f"{'' if info['seed_applied'] else ' (not applied: the suites fix their inputs)'}"
          f"  size {args.size}  trace {args.trace}")
    for name, m in res["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {info['fail_ratio']:>14.6g}"
          f"  ({res['failed']} of {res['attempted']} items)")
    print(f"  item_tail_ms is {info['item_tail']}; cpu_s is the {info['cpu_s']}")
    print(f"  setup samples as measured (s): {', '.join(f'{s:.4f}' for s in info['setup_samples_s'])}"
          f"; speed factors {', '.join(f'{f:.3f}' for f in info['setup_speed_factors'])}")
    print(f"  as measured: {', '.join(f'{k} {v:.6g}' for k, v in info['measured'].items())}"
          f"; speed factor {info['speed_factor']['median']:.3f}"
          f" ({info['speed_factor']['min']:.3f} to {info['speed_factor']['max']:.3f})")
    print("info " + json.dumps(info, sort_keys=True))
    for note in res["notes"][:20]:
        print(f"  note: {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        OUT_DIR.mkdir(exist_ok=True)
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = {w: run_workload(args, spec, w) for w in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for w, res in results.items():
        report(w, args, res)
    if len(results) == 1:
        res = next(iter(results.values()))
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
