"""One ``skeinkit verify --suite SUITE --out json`` invocation, as a CLI user runs it.

The report goes to standard output.  The side file gets the skein engine
counters and the Hecke and bracket call counts, and, with ``--spans``, the
per-layer call counts and self times of a traced invocation, whose spans go
to the named file.  Without ``--spans`` it also gets the host's speed
samples (``calibrate``), taken before and after the command and, at most
every ``calibrate.INTERVAL_S``, after the calls in ``tracing.SPEED_POINTS``,
with the wall and CPU seconds they took.

    python3 bench/verify_child.py --suite all --side SIDE.json [--item N] [--spans FILE]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import calibrate  # noqa: E402  (the benchmark's own modules, beside this file)
import tracing  # noqa: E402
from skeinkit import cli, skein  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--suite", required=True)
    parser.add_argument("--side", required=True)
    parser.add_argument("--item", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    engines = []
    engine_init = skein.SkeinEngine.__init__

    def capture(self, *a, **kw):
        engine_init(self, *a, **kw)
        engines.append(self)

    skein.SkeinEngine.__init__ = capture
    counts = tracing.Tracer()
    counts.install(tracing.COUNTED)
    speed = calibrate.Speed()
    ticks = tracing.Tracer()
    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracer.item = args.item
        tracer.install(tracing.TARGETS)
    else:
        ticks.after_call = speed.maybe
        ticks.install(tracing.SPEED_POINTS)
        speed.sample(calibrate.EDGE_SAMPLES)
    try:
        rc = cli.main(["verify", "--suite", args.suite, "--out", "json"])
    finally:
        if tracer is not None:
            tracer.uninstall()
        ticks.uninstall()
        counts.uninstall()
        skein.SkeinEngine.__init__ = engine_init
    if tracer is None:
        speed.sample(calibrate.EDGE_SAMPLES)
    sys.stdout.flush()

    counters = {key: n for key, (n, _) in counts.totals().items()}
    for key in ("nodes", "memo_hits", "memo_size", "preloaded"):
        counters[f"skein.{key}"] = sum(e.counters()[key] for e in engines)
    side = {"counters": counters}
    if speed.samples:
        side["speed"] = {"samples": speed.samples, "wall_s": speed.wall_s, "cpu_s": speed.cpu_s}
    if tracer is not None:
        side["layers"] = tracer.totals()
        side["spans"] = tracer.write_spans(args.spans)
    Path(args.side).write_text(json.dumps(side))
    return rc


if __name__ == "__main__":
    sys.exit(main())
