"""Self-test of the benchmark on minimal-size workloads (about a minute).

    python3 bench/selftest.py

For every workload, at ``--size min``: two runs with one seed (untraced and
traced) and one with another seed.  Checks that every metric named in
BENCHMARK.json is emitted with its unit, that outputs are correct, that
one seed always gives the same inputs and that two seeds give different
inputs (verify-all, whose suites fix their inputs, must say the seed does
not apply).  Last, the benchmark must refuse to run, printing no result,
in a directory holding only BENCHMARK.json and the benchmark's own files.
Exits with code 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "min"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def parsed(proc):
    lines = proc.stdout.strip().splitlines()
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    return json.loads(lines[-1]), info


def expect(ok: bool, what: str) -> None:
    print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def check_metrics(result: dict, declared: list, label: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{label}: every declared metric, with its unit")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           f"{label}: numeric values")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct, {result['attempted']} attempted, {result['failed']} failed")


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        print(name)
        plain, traced, other = (run(ROOT, name, s, t) for s, t in ((1, 0), (1, 1), (2, 0)))
        for label, proc in (("seed 1", plain), ("seed 1 traced", traced), ("seed 2", other)):
            expect(proc.returncode == 0, f"{label}: exit code {proc.returncode} {proc.stderr[-500:]}")
        (r1, i1), (rt, it), (r2, i2) = parsed(plain), parsed(traced), parsed(other)
        check_metrics(r1, SPEC["end_to_end"], "untraced")
        check_metrics(rt, SPEC["per_layer"], "traced")
        check_metrics(r2, SPEC["end_to_end"], "seed 2")
        expect(i1["inputs_sha256"] == it["inputs_sha256"], "one seed gives the same inputs")
        if i1["seed_applied"]:
            expect(i1["inputs_sha256"] != i2["inputs_sha256"], "two seeds give different inputs")
        else:
            expect(i1["inputs_sha256"] == i2["inputs_sha256"], "seed recorded as not applied")
        expect(i1["counters"] == it["counters"], "counters repeat under tracing")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 1, 0)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the sources: exit code {proc.returncode}, no result")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
