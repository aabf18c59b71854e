"""Verification suites: degree formulas, reference polynomials, genus counts.

Suites:

* ``main``       max-z degree 6r-1 for doubled quasitoric closures, both
                 top signs, with the mirror transform cross-check, for every
                 r up to ``r_max`` (``--r-max``; r = 3 is the 36-crossing run).
* ``borromean``  bit-exact comparison of the doubled Borromean-rings
                 polynomial against the embedded reference table, plus the
                 bracket-oracle cross-check, which always runs.  One
                 reference coefficient (v^-5 z^1) has two published candidate
                 values (+12/-12); either is accepted and the engine's
                 verdict is recorded.  ``borromean_diff`` is the one
                 comparison with the table.
* ``family``     Whitehead-double degree formula max_z = 2c(K) over framing
                 windows and both clasp signs, with the doubled-link degree
                 and genus identities.
* ``props``      degree-shift and twist-invariance identities on the
                 trefoil, genus identities from diagram statistics, and the
                 combinatorial count series for the quasitoric family.
* ``structural`` mirror identity, exhaustive skein/Hecke agreement,
                 Markov-move invariance.

The Morton bound and exponent parity are not report rows: the skein engine
asserts both on every value it returns, so a violation raises.

A budget exhausted anywhere in a report's block (the skein engine's, the
bracket's or the Hecke trace's) ends that report with one SKIP check (never FAIL, never a polynomial), recorded by ``_report``:
nothing after the SKIP in that report runs, and the checks before it stay.
All randomness is seeded; reports are deterministic apart from timings.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .braid import BraidWord, quasitoric_beta
from .diagram import LinkDiagram, from_braid_closure
from .errors import BudgetExceededError
from .hecke import homfly_closed_braid
from .jones import jones_via_bracket, specialize_homfly_to_jones
from .laurent import LaurentPoly2
from .report import InvariantReport
from .satellite import (
    blackboard_double,
    canonical_double,
    canonical_whitehead,
    quasitoric_closure,
    replace_crossing_with_half_twists,
)
from .skein import SkeinEngine

__all__ = ["SuiteConfig", "SUITES", "run_suites", "BORROMEAN_DOUBLE_TABLE", "borromean_diff"]

# Reference coefficient table for the doubled Borromean rings (the closure
# of the 3-strand quasitoric word with positive top sign): rows are
# z-degrees, columns v-degrees.  The v^-5 entry of the z^1 row is recorded
# as +12 in print, while the v <-> v^-1 antisymmetry satisfied by every
# other row predicts -12; the suite accepts either and reports the engine's
# value.
BORROMEAN_DOUBLE_TABLE = {
    -5: {5: -1, 3: 5, 1: -10, -1: 10, -3: -5, -5: 1},
    -1: {5: 8, 3: -40, 1: 80, -1: -80, -3: 40, -5: -8},
    1: {5: 12, 3: -68, 1: 144, -1: -144, -3: 68, -5: 12},
    3: {5: 2, 3: -22, 1: 56, -1: -56, -3: 22, -5: -2},
    5: {7: -1, 5: -5, 3: 13, 1: -7, -1: 7, -3: -13, -5: 5, -7: 1},
    7: {5: -2, 3: 8, 1: 10, -1: -10, -3: -8, -5: 2},
    9: {3: 1, 1: 11, -1: -11, -3: -1},
    11: {1: 2, -1: -2},
}
AMBIGUOUS_ENTRY = (-5, 1)  # (e_v, e_z): printed +12, antisymmetry says -12


@dataclass
class SuiteConfig:
    engine: SkeinEngine = field(default_factory=SkeinEngine)
    r_max: int = 2


@contextmanager
def _report(reports: list, input: str, engine: str, skip_as: str = "computation"):
    """A new report, appended to ``reports``; its ``ms`` is set when the block exits.

    A budget exhausted in the block ends it with a SKIP under ``skip_as``.
    The SKIP note carries the bare reason only: ``str(exc)`` adds the
    elapsed time, which would make reports differ between runs.
    """
    t0 = time.monotonic()
    rep = InvariantReport(input, engine)
    reports.append(rep)
    try:
        yield rep
    except BudgetExceededError as exc:
        rep.skip(skip_as, f"budget exhausted: {exc.args[0]}")
    finally:
        rep.ms = int((time.monotonic() - t0) * 1000)


def _record(report: InvariantReport, d: LinkDiagram, p: LaurentPoly2) -> None:
    """Put the value, its z-degree and the diagram's Morton bound on the report."""
    report.polynomial = p
    report.max_z = p.max_z_degree()
    report.morton = d.morton_bound()


def suite_main(cfg: SuiteConfig) -> list:
    reports = []
    mirror_pairs = {}
    for r in range(1, cfg.r_max + 1):
        for top_sign in (1, -1):
            name = f"doubled-closure(quasitoric r={r}, top_sign={top_sign:+d})"
            with _report(reports, name, "skein") as rep:
                d = blackboard_double(quasitoric_closure(r, top_sign))
                p = cfg.engine.homfly(d)
                _record(rep, d, p)
                rep.check(f"max-z-degree[r={r}]", 6 * r - 1, p.max_z_degree())
                rep.check(f"degree-bound-sharp[r={r}]", rep.morton, rep.max_z)
                mirror_pairs.setdefault(r, {})[top_sign] = p
    for r, pair in sorted(mirror_pairs.items()):
        if len(pair) == 2:
            with _report(reports, f"mirror-transform[r={r}]", "skein") as rep:
                rep.check(
                    f"mirror-identity[r={r}]", True, pair[-1] == pair[1].mirror_image()
                )
    return reports


def borromean_diff(p: LaurentPoly2) -> dict:
    """``{e_z: (diffs, note)}`` over the z-degrees of the table and of p, in order.

    ``diffs`` maps each v-degree where p differs from the table to (table, p);
    either +12 or -12 matches at ``AMBIGUOUS_ENTRY``, and that row's note says which.
    """
    got_rows = {}
    for (ev, ez), c in p.terms().items():
        got_rows.setdefault(ez, {})[ev] = c
    rows = {}
    for ez in sorted(set(BORROMEAN_DOUBLE_TABLE) | set(got_rows)):
        want_row = dict(BORROMEAN_DOUBLE_TABLE.get(ez, {}))
        got_row = got_rows.get(ez, {})
        note = ""
        if ez == AMBIGUOUS_ENTRY[1]:
            got_entry = p.coefficient(*AMBIGUOUS_ENTRY)
            if got_entry in (12, -12):
                note = (
                    f"coefficient v^{AMBIGUOUS_ENTRY[0]}*z^{AMBIGUOUS_ENTRY[1]}: engine value "
                    f"{got_entry}; printed value +12, antisymmetry predicts -12"
                )
                want_row[AMBIGUOUS_ENTRY[0]] = got_entry
        diffs = {
            ev: (want_row.get(ev, 0), got_row.get(ev, 0))
            for ev in set(want_row) | set(got_row)
            if want_row.get(ev, 0) != got_row.get(ev, 0)
        }
        rows[ez] = (diffs, note)
    return rows


def suite_borromean(cfg: SuiteConfig) -> list:
    reports = []
    with _report(reports, "doubled-closure(quasitoric r=2, top_sign=+1)", "skein") as rep:
        d = blackboard_double(quasitoric_closure(2, 1))
        p = cfg.engine.homfly(d)
        _record(rep, d, p)
        for ez, (diffs, note) in borromean_diff(p).items():
            rep.check(f"coefficients[z^{ez}]", "{}", str(diffs), note)
        rep.check("max-z-degree[r=2]", 11, p.max_z_degree())
        rep.check(
            "jones-specialization-equals-bracket",
            True,
            specialize_homfly_to_jones(p) == jones_via_bracket(d),
        )
    return reports


def _family_samples():
    trefoil = quasitoric_closure(1, 1)
    torus25 = replace_crossing_with_half_twists(trefoil, 0, 3)
    return [("trefoil(quasitoric r=1)", trefoil), ("torus-2-5(trefoil+3half-twists)", torus25)]


def suite_family(cfg: SuiteConfig) -> list:
    reports = []
    for name, base in _family_samples():
        c_base = base.crossing_count()
        w = base.writhe()
        doubled_degrees = {}
        for m in range(w - 2, w + 3):
            with _report(reports, f"doubled-link({name}, m={m})", "skein") as rep:
                d2 = canonical_double(base, m)
                pd = cfg.engine.homfly(d2)
                _record(rep, d2, pd)
                doubled_degrees[m] = pd.max_z_degree()
                rep.check(f"doubled-degree-framing-invariance[m={m}]", 2 * c_base - 1, pd.max_z_degree())
        for m in range(w - 2, w + 3):
            for sign in (1, -1):
                tag = f"{name}, m={m}, clasp={'+' if sign > 0 else '-'}"
                with _report(reports, f"whitehead-double({tag})", "skein") as rep:
                    dW = canonical_whitehead(base, m, sign)
                    pw = cfg.engine.homfly(dW)
                    _record(rep, dW, pw)
                    rep.check(f"whitehead-degree-2c[{tag}]", 2 * c_base, pw.max_z_degree())
                    if m in doubled_degrees:
                        rep.check(
                            f"double-vs-whitehead-degree-shift[{tag}]",
                            doubled_degrees[m],
                            pw.max_z_degree() - 1,
                        )
                    rep.check(
                        f"whitehead-genus-equals-companion-crossings[{tag}]",
                        c_base,
                        dW.stats().canonical_genus,
                    )
    return reports


def _beta2_knot_sample() -> tuple:
    """An alternating knot derived from the 3-component quasitoric closure:
    a full twist at crossing 0, then one at crossing 1 of the result."""
    d = quasitoric_closure(2, 1)
    for ci in (0, 1):
        d = replace_crossing_with_half_twists(d, ci, 2 * d.crossings[ci].sign)
    return "beta2-knot(full twists at 0,1)", d


def suite_props(cfg: SuiteConfig) -> list:
    reports = []

    # degree-shift identities on the trefoil across the framing window
    trefoil = quasitoric_closure(1, 1)
    w = trefoil.writhe()
    with _report(reports, "degree-shift-identities(trefoil, m=0..5)", "skein") as rep:
        m_w2 = {}
        for m in range(0, 6):
            p2 = cfg.engine.homfly(canonical_double(trefoil, m))
            m_w2[m] = p2.max_z_degree()
            for sign in (1, -1):
                pw = cfg.engine.homfly(canonical_whitehead(trefoil, m, sign))
                rep.check(
                    f"double-degree-is-whitehead-minus-1[m={m},clasp={'+' if sign > 0 else '-'}]",
                    pw.max_z_degree() - 1,
                    p2.max_z_degree(),
                )
        for m in range(0, 6):
            rep.check(f"twist-invariance-of-double-degree[m={m}]", m_w2[w], m_w2[m])

    # genus identities from diagram statistics only
    with _report(reports, "genus-identities(diagram statistics)", "stats") as rep:
        samples = [("trefoil(quasitoric r=1)", trefoil)]
        samples.append(_beta2_knot_sample())
        for name, base in samples:
            want = base.crossing_count()
            genera = {
                (m, sign): canonical_whitehead(base, m, sign).stats().canonical_genus
                for m in range(-5, 9)
                for sign in (1, -1)
            }
            rep.check(
                f"genus-equals-crossing-number[{name}]",
                {want},
                set(genera.values()),
                f"{len(genera)} Whitehead diagrams compared",
            )

    # combinatorial count series
    with _report(reports, "count-series(quasitoric closures r<=6)", "stats") as rep:
        for r in range(1, 7):
            b = quasitoric_beta(r, 1)
            d = from_braid_closure(b)
            rep.check(f"closure-crossings[r={r}]", 3 * r, d.crossing_count())
            rep.check(
                f"closure-components[r={r}]",
                3 if r % 3 == 2 else 1,
                d.component_count(),
            )
            st = blackboard_double(d).stats()
            rep.check(f"doubled-seifert-circles[r={r}]", 6 * r + 2, st.seifert_circles)
            rep.check(f"doubled-degree-bound[r={r}]", 6 * r - 1, st.morton_bound)
    return reports


def _exhaustive_words():
    """Every braid word of length <= 6 on 1 to 3 strands."""
    for n in (1, 2, 3):
        gens = [g for k in range(1, n) for g in (k, -k)]
        for length in range(0, 7):
            for letters in itertools.product(gens, repeat=length):
                yield BraidWord(n, letters)


def _random_word(rng: random.Random, max_length: int) -> BraidWord:
    """A braid word on 2 to 4 strands of 1 to ``max_length`` letters, drawn in that order."""
    n = rng.randint(2, 4)
    letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, max_length))]
    return BraidWord(n, letters)


def suite_structural(cfg: SuiteConfig) -> list:
    """Each report records a SKIP under its check's name, and no check, as
    soon as one evaluation exhausts the budget."""
    reports = []

    label = "mirror-identity-failures"
    with _report(reports, "mirror-identity(100 random braids)", "skein", label) as rep:
        rng = random.Random(20260810)
        total = failures = 0
        for _ in range(100):
            d = from_braid_closure(_random_word(rng, 10))
            p, pm = cfg.engine.homfly(d), cfg.engine.homfly(d.mirror())
            total += 1
            if pm != p.mirror_image():
                failures += 1
        rep.check(label, 0, failures, f"{total} braids compared")

    label = "engine-agreement-mismatches"
    name = "engine-agreement(exhaustive, length<=6, strands<=3)"
    with _report(reports, name, "skein+hecke", label) as rep:
        # One engine at a time over the words, keeping only the skein values
        # (not the closures): measured faster than alternating the engines
        # word by word, for a cause not established.
        skein = [cfg.engine.homfly(from_braid_closure(b)) for b in _exhaustive_words()]
        mismatches = sum(homfly_closed_braid(b) != p for b, p in zip(_exhaustive_words(), skein))
        rep.check(label, 0, mismatches, f"{len(skein)} words compared")

    label = "markov-invariance-failures"
    with _report(reports, "markov-invariance(50 random samples)", "skein", label) as rep:
        rng = random.Random(1729)
        total = failures = 0
        for _ in range(50):
            b = _random_word(rng, 8)
            moved = [
                b.conjugate_by(rng.choice([1, -1]) * rng.randint(1, b.strands - 1)),
                b.stabilize(True),
                b.stabilize(False),
            ]
            p, *others = [cfg.engine.homfly(from_braid_closure(w)) for w in [b] + moved]
            total += 1
            failures += sum(1 for pm in others if pm != p)
        rep.check(label, 0, failures, f"{total} samples compared")

    return reports


# In the order ``all`` runs them.
SUITES = {
    "main": suite_main,
    "borromean": suite_borromean,
    "family": suite_family,
    "props": suite_props,
    "structural": suite_structural,
}


def run_suites(names, cfg: SuiteConfig) -> list:
    if "all" in names:
        names = list(SUITES)
    reports = []
    for name in names:
        reports.extend(SUITES[name](cfg))
    return reports
