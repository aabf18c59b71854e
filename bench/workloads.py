"""The four benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload makes its inputs from the seed alone: ``random.Random`` is
seeded with the workload name and the seed, so one seed always gives the
same inputs.  The seed varies only what leaves the cost of a pass and the
spread of its item latencies unchanged (the order of the satellite
companions; small torus braids and braid signs); ``satellite_draw``,
``random_words`` and ``BraidOracles`` say what else was tried and why it
was dropped.

A workload exposes:

* ``__init__(seed, size, out_dir, speed)``: set-up; ``speed`` (a
  ``calibrate.Speed``) samples the host's speed during a long set-up;
* ``inputs``: a JSON description of every input; the self-test compares
  its digest across seeds;
* ``run_pass(tracer, first_item, speed)``: one closed-loop pass over the
  inputs in a fixed order, one item after the other, returning a ``Pass``;
  ``speed`` (a ``calibrate.Speed``) samples the host's speed between items;
* ``reference(first_pass)``: the outputs that every pass must repeat byte
  for byte;
* ``verify(outputs)``: independent checks of those reference outputs,
  returning {item index: [problems]};
* ``pass_problems(counters)``: conditions on a pass's counters;
* ``close()``: removes the files the workload wrote.

Library calls go through module attributes (``skein.SkeinEngine``, not an
imported name) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from skeinkit import diagram, hecke, jones, satellite, skein
from skeinkit.braid import BraidWord, quasitoric_beta, toric

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

COUNTER_KEYS = (
    "skein.nodes",
    "skein.memo_hits",
    "skein.memo_size",
    "skein.preloaded",
    "skein.cache_entries",
    "skein.cache_bytes",
    "hecke.calls",
    "bracket.calls",
)

# Satellite companions as closed braids, with their crossing numbers c(K):
# framed doubles have max_z = 2c(K) - 1 and Whitehead doubles 2c(K).  Both
# chiralities of the trefoil and figure-eight are drawn, because the skein
# recursion is not mirror-symmetric in cost (the mirrored figure-eight
# window expands 4x the nodes); a coin per companion would make the cost of
# a pass depend on the seed.  The mirror of T(2,5) (529 nodes, 1.4 s per
# window) is left out to keep a pass near 3 s.  Random 3-strand words are
# left out for the same reason: the cost of their doubles spans two orders
# of magnitude (under 0.1 s to over 10 s per framing window).  What the
# seed varies is in satellite_draw.
COMPANIONS = (
    ("2: 1 1 1", 3),  # trefoil
    ("2: -1 -1 -1", 3),  # its mirror
    ("3: 1 -2 1 -2", 4),  # figure-eight
    ("3: -1 2 -1 2", 4),  # its mirror diagram
    ("2: 1 1 1 1 1", 5),  # T(2,5)
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


@dataclass
class Pass:
    """One pass over a workload's inputs."""

    outputs: list | None  # raw output per item, None where the item raised
    errors: list  # error text per item, None where it succeeded
    latencies: list  # seconds per item
    counters: dict
    cpu_s: float | None = None  # set when the work ran in a child process
    wall_s: float = 0.0
    speed: float = 1.0  # the host's speed factor during the pass (calibrate)
    traced: bool = False
    differs: list = field(default_factory=list)  # items whose output differs from the reference


def _counters(engine=None, values=None) -> dict:
    out = dict.fromkeys(COUNTER_KEYS, 0)
    if engine is not None:
        c = engine.counters()
        out["skein.nodes"] = c["nodes"]
        out["skein.memo_hits"] = c["memo_hits"]
        out["skein.memo_size"] = c["memo_size"]
        out["skein.preloaded"] = c["preloaded"]
    out.update(values or {})
    return out


def _run_items(items, evaluate, tracer, first_item: int, speed):
    outputs, errors, latencies = [], [], []
    clock = time.perf_counter
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = first_item + i
        t0 = clock()
        try:
            out, err = evaluate(item), None
        except Exception as exc:  # a raised error is a failed item, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        outputs.append(out)
        errors.append(err)
        speed.maybe()
    return outputs, errors, latencies


def _framing_specs(word: str, lo: int, hi: int) -> list:
    specs = []
    for m in range(lo, hi + 1):
        specs += [("double", word, m), ("whitehead", word, m, 1), ("whitehead", word, m, -1)]
    return specs


def satellite_draw(seed: int, size: str):
    """Satellite inputs: the doubled Borromean rings of both signs, then framed
    doubles and Whitehead doubles of both clasps over the five framings
    w-2..w+2 around each companion's writhe w.  The seed draws the order of
    the companions.

    The seed varies nothing else, because everything else tried moved the
    per-item latencies from seed to seed: shifting the framing windows moved
    the 87th-percentile latency by a third; running a window's framings
    downwards moved the median by a fifth (the first item of a window pays
    for the pieces the others share); and rotating a braid word (the same
    diagram with other arc labels, so other skein basepoints) changed the
    cost of the mirrored figure-eight's window by up to 3x.

    Returns (specs, {companion word: c(K)}).
    """
    rng = _rng("satellite-cold", seed)
    full = size == "full"
    companions = list(COMPANIONS if full else (COMPANIONS[0], COMPANIONS[2]))
    rng.shuffle(companions)
    specs = [("double-closure", 2, 1), ("double-closure", 2, -1)] if full else []
    half = 2 if full else 0
    for word, _ in companions:
        w = BraidWord.parse_text(word).exponent_sum()
        specs += _framing_specs(word, w - half, w + half)
    return specs, dict(companions)


class Workload:
    """Defaults shared by the workloads."""

    seed_applied = True

    def reference(self, first: Pass) -> list:
        return first.outputs

    def pass_problems(self, counters: dict) -> list:
        return []

    def close(self) -> None:
        pass


class SatelliteCold(Workload):
    """Cold skein evaluation: each pass evaluates every satellite in turn in
    one fresh SkeinEngine with no disk cache, building each diagram first."""

    name = "satellite-cold"

    def __init__(self, seed: int, size: str, out_dir: Path, speed):
        self.specs, self.crossing_numbers = satellite_draw(seed, size)
        self.inputs = {"satellites": self.specs}

    def run_pass(self, tracer, first_item: int, speed) -> Pass:
        engine = skein.SkeinEngine()
        outputs, errors, latencies = _run_items(
            self.specs, lambda s: engine.homfly(checks.satellite_diagram(s)),
            tracer, first_item, speed,
        )
        return Pass(outputs, errors, latencies, _counters(engine))

    def verify(self, outputs: list) -> dict:
        return {
            i: checks.check_satellite(spec, self.crossing_numbers.get(spec[1]), p)
            for i, (spec, p) in enumerate(zip(self.specs, outputs))
            if p is not None
        }


class CacheReuse(SatelliteCold):
    """Warm reuse of a disk cache that holds more than one pass queries.

    Set-up evaluates the satellite-cold inputs of the same seed plus a
    superset (two more framings on each side of every window) in one
    cold engine and writes the cache.  A pass loads the cache into a new
    engine, evaluates the satellite-cold inputs and saves the cache back.
    """

    name = "cache-reuse"

    def __init__(self, seed: int, size: str, out_dir: Path, speed):
        super().__init__(seed, size, out_dir, speed)
        extra = []
        for word in self.crossing_numbers:
            w = BraidWord.parse_text(word).exponent_sum()
            extra += _framing_specs(word, w - 4, w - 3) + _framing_specs(word, w + 3, w + 4)
        self.inputs = {"satellites": self.specs, "superset": extra}
        self.path = out_dir / f"cache-reuse-{os.getpid()}.cache"
        engine = skein.SkeinEngine()
        self.cold = []
        for s in self.specs:
            self.cold.append(engine.homfly(checks.satellite_diagram(s)))
            speed.maybe()
        for s in extra:
            engine.homfly(checks.satellite_diagram(s))
            speed.maybe()
        engine.save_cache(str(self.path))

    def run_pass(self, tracer, first_item: int, speed) -> Pass:
        engine = skein.SkeinEngine(cache_path=str(self.path))
        outputs, errors, latencies = _run_items(
            self.specs, lambda s: engine.homfly(checks.satellite_diagram(s)),
            tracer, first_item, speed,
        )
        entries = engine.save_cache()
        counters = _counters(
            engine, {"skein.cache_entries": entries, "skein.cache_bytes": os.path.getsize(self.path)}
        )
        return Pass(outputs, errors, latencies, counters)

    def reference(self, first: Pass) -> list:
        return self.cold

    def pass_problems(self, counters: dict) -> list:
        if counters["skein.nodes"]:
            return [f"the warm pass expanded {counters['skein.nodes']} skein nodes"]
        return []

    def close(self) -> None:
        self.path.unlink(missing_ok=True)


def random_words(size: str) -> list:
    """A fixed draw of random 12-letter words, 25 on each of 4 to 7 strands.

    The draw does not depend on the workload seed.  Draws per seed made the
    cost of a pass heavy-tailed in the seed: a 7-strand word costs the
    Hecke engine anywhere from 0.2 to 60 ms, and even a rotation of one word
    (the same closure) can change that cost 5x, which moved the median item
    latency by a fifth from seed to seed.
    """
    rng = random.Random("braid-oracles:random-words")
    words = []
    for n in (4, 5, 6, 7) if size == "full" else (4,):
        for _ in range(25 if size == "full" else 2):
            words.append(BraidWord(n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(12)]))
    return words


class BraidOracles(Workload):
    """Hecke and bracket on closed braids; no skein, no canonical codes.

    Braids: T(3,q) and T(4,q) with q drawn from p+1..p+3; T(4,11..15),
    T(5,6), T(5,7), T(5,8), T(6,7) and T(7,8), never mirrored (the mirror
    of T(7,8) costs the Hecke engine 3 s against 1 s); quasitoric braids
    r = 2..5 with a drawn top sign and r = 6 with both signs; and
    the random words of ``random_words``.  Every braid gives a Hecke item
    (the HOMFLYPT value and its Jones specialization) and, up to
    BRACKET_MAX_CROSSINGS, a bracket item on its closure.  T(7,8) (48
    crossings) is left to the Hecke engine: its bracket takes 4.5 s, so it
    runs once, in the checks.  Two bracket items on doubled
    quasitoric closures (r = 2, 3; 24 and 36 crossings, drawn signs) join
    them.  Every Hecke item starts from an empty trace cache, as a fresh
    process does; that also keeps an item's cost independent of the items
    before it.

    The T(4,11..15), T(5,q) and r = 6 items put the tail percentile (the
    11th or 12th slowest item of a pass) in the middle of ten items of 45
    to 90 ms: with a gap in cost at that rank, the tail jumped between 6
    and 10 ms from run to run.
    """

    name = "braid-oracles"
    BRACKET_MAX_CROSSINGS = 45

    def __init__(self, seed: int, size: str, out_dir: Path, speed):
        rng = _rng(self.name, seed)
        full = size == "full"
        braids = [toric(p, p + rng.randint(1, 3)) for p in ((3, 4) if full else (3,))]
        if full:
            braids += [toric(4, q) for q in range(11, 16)]
            braids += [toric(5, 6), toric(5, 7), toric(5, 8), toric(6, 7), toric(7, 8)]
        for r in (2, 3, 4, 5) if full else (2,):
            braids.append(quasitoric_beta(r, rng.choice((1, -1))))
        if full:
            braids += [quasitoric_beta(6, 1), quasitoric_beta(6, -1)]
        braids += random_words(size)
        self.items = []
        for b in braids:
            self.items.append(("hecke", b))
            if len(b) <= self.BRACKET_MAX_CROSSINGS:
                self.items.append(("bracket", b))
        for r in (2, 3) if full else (2,):
            self.items.append(("bracket-double", r, rng.choice((1, -1))))
        self.inputs = {
            "items": [
                [kind, *(a.format_text() if isinstance(a, BraidWord) else a for a in rest)]
                for kind, *rest in self.items
            ]
        }

    @staticmethod
    def _evaluate(item):
        kind = item[0]
        if kind == "hecke":
            trace_cache = getattr(hecke, "_trace_cache", None)
            if trace_cache is not None:
                trace_cache.clear()
            p = hecke.homfly_closed_braid(item[1])
            return p, jones.specialize_homfly_to_jones(p)
        if kind == "bracket":
            return jones.jones_via_bracket(diagram.from_braid_closure(item[1]))
        d = satellite.blackboard_double(satellite.quasitoric_closure(item[1], item[2]))
        return jones.jones_via_bracket(d)

    def run_pass(self, tracer, first_item: int, speed) -> Pass:
        outputs, errors, latencies = _run_items(self.items, self._evaluate, tracer, first_item, speed)
        hecke_calls = sum(1 for it in self.items if it[0] == "hecke")
        counters = _counters(
            values={"hecke.calls": hecke_calls, "bracket.calls": len(self.items) - hecke_calls}
        )
        return Pass(outputs, errors, latencies, counters)

    def verify(self, outputs: list) -> dict:
        problems = {}
        bracket_of = {
            item[1]: i for i, item in enumerate(self.items) if item[0] == "bracket"
        }
        for i, item in enumerate(self.items):
            if outputs[i] is None:
                continue
            if item[0] == "hecke":
                k = bracket_of.get(item[1])
                bracket = None if k is None else outputs[k]
                if k is not None and bracket is None:
                    continue  # the bracket item failed already
                p, j = outputs[i]
                found = checks.check_braid(item[1], p, j, bracket)
                problems[i] = found
                if k is not None:
                    problems[k] = found
            elif item[0] == "bracket-double":
                problems[i] = checks.check_doubled_closure_bracket(item[1], item[2], outputs[i])
        return problems


class VerifyAll(Workload):
    """``skeinkit verify --suite all --out json`` in a fresh process per item.

    The suites fix their own inputs, so the seed does not apply.  An item
    is one invocation, timed from outside; its CPU time and peak memory are
    the child's.  An untraced child samples the host's speed itself, during
    the invocation; its samples join the pass's and the time they took is
    taken off the item's wall and CPU time.  The reference output is the
    report with every ``ms`` field removed.
    """

    name = "verify-all"
    seed_applied = False
    CHILD_TIMEOUT_S = 150

    def __init__(self, seed: int, size: str, out_dir: Path, speed):
        self.suite = "all" if size == "full" else "props"
        self.out_dir = out_dir
        self.inputs = {"argv": ["verify", "--suite", self.suite, "--out", "json"]}
        self.env = {k: v for k, v in os.environ.items() if k != "SKEINKIT_CACHE"}
        self.side = out_dir / f"verify-side-{os.getpid()}.json"

    def run_pass(self, tracer, first_item: int, speed) -> Pass:
        cmd = [sys.executable, str(BENCH_DIR / "verify_child.py"), "--suite", self.suite]
        cmd += ["--side", str(self.side), "--item", str(first_item)]
        if tracer is not None:
            cmd += ["--spans", str(self.out_dir / f"spans-verify-all-item{first_item}.bin")]
        self.side.unlink(missing_ok=True)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT, timeout=self.CHILD_TIMEOUT_S
            )
            output, error = self._content(proc)
        except subprocess.TimeoutExpired:
            output, error = None, f"no exit within {self.CHILD_TIMEOUT_S} s"
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        side = json.loads(self.side.read_text()) if self.side.exists() else {}
        sampled = side.get("speed")
        if sampled:
            speed.samples += sampled["samples"]
            speed.wall_s += sampled["wall_s"]  # so it is taken off the pass's wall time too
            wall -= sampled["wall_s"]
            cpu -= sampled["cpu_s"]
        counters = _counters(values=side.get("counters"))
        if tracer is not None:
            for name, (calls, self_s) in side.get("layers", {}).items():
                nid = tracer.name_id(name)
                tracer.calls[nid] += calls
                tracer.self_s[nid] += self_s
        return Pass([output], [error], [wall], counters, cpu_s=cpu)

    @staticmethod
    def _content(proc):
        if proc.returncode != 0:
            return None, f"exit code {proc.returncode}"
        try:
            reports = json.loads(proc.stdout)
        except ValueError as exc:
            return None, f"report is not JSON: {exc}"
        for rep in reports:
            rep.pop("ms", None)
        return json.dumps(reports, sort_keys=True), None

    def verify(self, outputs: list) -> dict:
        statuses = [c["status"] for rep in json.loads(outputs[0]) for c in rep["checks"]]
        bad = [s for s in statuses if s != "PASS"]
        return {0: [f"{len(bad)} checks did not pass"] if bad or not statuses else []}

    def close(self) -> None:
        self.side.unlink(missing_ok=True)


WORKLOADS = {
    w.name: w for w in (SatelliteCold, CacheReuse, BraidOracles, VerifyAll)
}
