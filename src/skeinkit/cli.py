"""Command-line interface.

Subcommands:

* ``homfly``  compute one polynomial from a braid word, PD file, or
              half-twist matrix, optionally doubled or Whitehead-doubled.
* ``stats``   diagram statistics only (crossings, Seifert circles, writhe,
              components, degree bound, canonical genus); ``--out json``
              prints them as one object, ``--out csv`` as a header and a row.
* ``verify``  run verification suites; exit 0 iff all selected checks pass.
* ``cache``   inspect or compact a polynomial cache file.

Exit codes: 0 all checks pass; 1 check failure (or, with ``--strict``, a
budget skip, or a reader that closed standard output early); 2 usage error.
The default cache path comes from the ``SKEINKIT_CACHE`` environment
variable when set.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

from .braid import BraidWord
from .diagram import LinkDiagram, from_braid_closure
from .errors import DiagramError, SkeinKitError
from .hecke import homfly_closed_braid
from .jones import jones_via_bracket, specialize_homfly_to_jones
from .report import FAIL, PASS, SKIP, reports_to_csv, reports_to_json
from .satellite import blackboard_double, build_K_A, canonical_double, canonical_whitehead
from .skein import SkeinEngine
from .suites import SUITES, SuiteConfig, _record, _report, run_suites

__all__ = ["main"]

CACHE_ENV = "SKEINKIT_CACHE"


class UsageError(Exception):
    pass


def _add_input_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--braid", metavar="WORD", help='braid word, e.g. "3: 2 -1 2 -1 2 -1"')
    p.add_argument("--pd", metavar="FILE", help="file with a PD[...] diagram ('-' for stdin)")
    p.add_argument("--k-a", metavar="FILE", help="r x 3 comma-separated half-twist matrix")
    p.add_argument("--double", action="store_true", help="take the doubled link diagram")
    p.add_argument("--whitehead", choices=["+", "-"], help="take the Whitehead double")
    p.add_argument("--twists-to", type=int, metavar="M", help="framing target for the double")


def _add_budget_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache", metavar="PATH", help="polynomial cache file")
    p.add_argument("--nodes", type=_positive_int, default=10**8, help="skein nodes per evaluation")
    p.add_argument(
        "--timeout", type=_positive_seconds, metavar="SECONDS", help="wall seconds per evaluation"
    )
    p.add_argument("--out", choices=["text", "json", "csv"], default="text")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skeinkit", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_h = sub.add_parser("homfly", help="compute a HOMFLYPT polynomial")
    _add_input_options(p_h)
    p_h.add_argument("--engine", choices=["skein", "hecke", "both"], default="skein")
    p_h.add_argument("--check", choices=["jones"], help="cross-check against the bracket oracle")
    _add_budget_options(p_h)

    p_s = sub.add_parser("stats", help="diagram statistics")
    _add_input_options(p_s)
    p_s.add_argument("--out", choices=["text", "json", "csv"], default="text")

    p_v = sub.add_parser("verify", help="run verification suites")
    p_v.add_argument(
        "--suite",
        default="all",
        choices=sorted(SUITES) + ["all"],
        help="which suite to run",
    )
    p_v.add_argument(
        "--r-max",
        type=_positive_int,
        default=2,
        help="largest r for the main suite, at least 1 (3: the 36-crossing run)",
    )
    p_v.add_argument("--strict", action="store_true", help="budget skips fail the run")
    _add_budget_options(p_v)

    p_c = sub.add_parser("cache", help="inspect or compact a cache file")
    p_c.add_argument("action", choices=["inspect", "compact"])
    p_c.add_argument("--cache", metavar="PATH", help="cache file (default from environment)")

    return parser


def _cache_path(args) -> str | None:
    """The cache path, refused before any work if it could not be saved to."""
    path = getattr(args, "cache", None) or os.environ.get(CACHE_ENV)
    if path and os.path.isdir(path):
        raise UsageError(f"cache path {path} is a directory")
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise UsageError(f"cache path {path} is not in an existing directory")
    return path


def _skein_engine(args) -> SkeinEngine:
    return SkeinEngine(
        node_budget=args.nodes, wall_seconds=args.timeout, cache_path=_cache_path(args)
    )


def _read_matrix(path: str) -> list:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([int(tok) for tok in line.split(",")])
    return rows


def _base_diagram(args) -> tuple:
    if sum(1 for s in (args.braid, args.pd, args.k_a) if s) != 1:
        raise UsageError("exactly one of --braid, --pd, --k-a is required")
    try:
        if args.braid:
            word = BraidWord.parse_text(args.braid)
            return from_braid_closure(word), f"braid({args.braid.strip()})", word
        if args.pd:
            text = sys.stdin.read() if args.pd == "-" else Path(args.pd).read_text("utf-8")
            return LinkDiagram.from_pd_text(text), f"pd({args.pd})", None
        matrix = _read_matrix(args.k_a)
        return build_K_A(matrix), f"k-a({args.k_a})", None
    except (ValueError, SkeinKitError) as exc:
        raise UsageError(f"malformed input: {exc}") from exc


def _construct(args) -> tuple:
    d, desc, word = _base_diagram(args)
    if args.whitehead and args.double:
        raise UsageError("--double and --whitehead are mutually exclusive")
    if args.twists_to is not None and not (args.double or args.whitehead):
        raise UsageError("--twists-to needs --double or --whitehead")
    try:
        if args.whitehead:
            m = args.twists_to if args.twists_to is not None else d.writhe()
            sign = 1 if args.whitehead == "+" else -1
            d = canonical_whitehead(d, m, sign)
            desc = f"whitehead({args.whitehead}, m={m}, {desc})"
            word = None
        elif args.double:
            if args.twists_to is not None:
                d = canonical_double(d, args.twists_to)
                desc = f"double(m={args.twists_to}, {desc})"
            else:
                d = blackboard_double(d)
                desc = f"double({desc})"
            word = None
    except DiagramError as exc:
        # A constructor that refuses its input (a link where it needs a
        # knot) is a usage error, not a failed check.
        raise UsageError(str(exc)) from exc
    return d, desc, word


def _emit(reports: list, out: str) -> None:
    if out == "json":
        print(reports_to_json(reports))
    elif out == "csv":
        print(reports_to_csv(reports), end="")
    else:
        for rep in reports:
            for line in rep.text_lines():
                print(line)


def _cmd_homfly(args) -> int:
    d, desc, word = _construct(args)
    if args.engine != "skein" and word is None:
        raise UsageError(
            "the hecke engine accepts coherent braid-closure inputs only; "
            "doubled and PD inputs go through --engine skein"
        )
    # Only a run of the skein engine reads or writes the cache.
    engine = _skein_engine(args) if args.engine != "hecke" else None
    reports = []
    skein_poly = hecke_poly = None
    with _report(reports, desc, args.engine) as rep:
        # The oracles run first, so that an error of theirs costs no skein work.
        hecke_poly = homfly_closed_braid(word) if args.engine != "skein" else None
        bracket = jones_via_bracket(d) if args.check == "jones" else None
        skein_poly = engine.homfly(d) if engine else None
        p = skein_poly if engine else hecke_poly
        _record(rep, d, p)
        if args.engine == "both":
            rep.check("engines-agree", True, skein_poly == hecke_poly)
        if bracket is not None:
            jones = specialize_homfly_to_jones(p)
            rep.check("jones-specialization-equals-bracket", True, jones == bracket)
    # Every new memo entry comes from an expanded node: a run that expanded
    # none leaves the file as it is.
    if engine and engine.cache_path and engine.nodes_expanded:
        engine.save_cache()
    _emit(reports, args.out)
    # Either value is None when its engine did not run or its budget ran out.
    if args.out == "text" and skein_poly is not None and skein_poly == hecke_poly:
        print("engines agree")
    return 1 if rep.failed or rep.skipped else 0


def _cmd_stats(args) -> int:
    d, desc, _ = _construct(args)
    st = d.stats()
    if args.out == "text":
        print(
            f"{desc}: c={st.crossings} s={st.seifert_circles} w={st.writhe} "
            f"mu={st.components} bound={st.morton_bound} genus={st.canonical_genus}"
        )
        return 0
    row = {"input": desc, **st._asdict(), "canonical_genus": str(st.canonical_genus)}
    if args.out == "json":
        print(json.dumps(row, indent=2))
    else:
        csv.writer(sys.stdout).writerows([row, row.values()])
    return 0


def _cmd_verify(args) -> int:
    engine = _skein_engine(args)
    reports = run_suites([args.suite], SuiteConfig(engine=engine, r_max=args.r_max))
    if engine.cache_path and engine.nodes_expanded:  # else no entry is new
        engine.save_cache()
    _emit(reports, args.out)
    failed = any(r.failed for r in reports)
    skipped = any(r.skipped for r in reports)
    if args.out == "text":
        counts = Counter(c.status for r in reports for c in r.checks)
        print(f"checks: {counts[PASS]} passed, {counts[FAIL]} failed, {counts[SKIP]} skipped")
    if failed:
        return 1
    if skipped and args.strict:
        return 1
    return 0


def _cmd_cache(args) -> int:
    path = _cache_path(args)
    if not path:
        raise UsageError(f"no cache path given (set --cache or {CACHE_ENV})")
    size = os.path.getsize(path)  # a missing file exits 2, and nothing is created
    engine = SkeinEngine(cache_path=path)
    print(f"cache {path}: {len(engine.memo)} entries, {size} bytes")
    if args.action == "compact":
        for code in engine.memo:  # a read entry is saved in canonical text
            engine.value(code)
        written = engine.save_cache(path)
        print(f"rewrote {written} entries")
    return 0


_COMMANDS = {"homfly": _cmd_homfly, "stats": _cmd_stats, "verify": _cmd_verify, "cache": _cmd_cache}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (UsageError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SkeinKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of standard output is gone (``skeinkit ... | head``); the
        # flush above brings that here rather than to interpreter exit.  Point
        # stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
