"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines
appear in the terminal summary.  The r=3 stretch computation (criterion 2)
runs only when SKEINKIT_STRETCH=1 is set: a skip is acceptable there, a
wrong degree is not.
"""

import os
import random
import time

import pytest

from skeinkit.braid import BraidWord, quasitoric_beta
from skeinkit.diagram import from_braid_closure
from skeinkit.hecke import homfly_closed_braid
from skeinkit.jones import jones_via_bracket, specialize_homfly_to_jones
from skeinkit.satellite import (
    TwistSite,
    blackboard_double,
    canonical_double,
    canonical_whitehead,
    quasitoric_closure,
    replace_crossing_with_half_twists,
)
from skeinkit.skein import SkeinEngine
from skeinkit.suites import (
    AMBIGUOUS_ENTRY,
    SuiteConfig,
    _beta2_knot_sample,
    _exhaustive_words,
    borromean_diff,
    suite_borromean,
)

from conftest import acceptance_line


def _record(num: int, ok: bool, detail: str) -> None:
    acceptance_line(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def eng():
    return SkeinEngine()


def test_criterion_1_borromean_double_bit_exact(tmp_path):
    cache = tmp_path / "poly.cache"
    d = blackboard_double(quasitoric_closure(2, 1))

    cold = SkeinEngine(cache_path=str(cache))
    t0 = time.monotonic()
    p = cold.homfly(d)
    cold_seconds = time.monotonic() - t0
    cold_nodes = cold.counters()["nodes"]
    cold.save_cache()

    mismatches = [(ev, ez) for ez, (diffs, _) in borromean_diff(p).items() for ev in diffs]
    flagged = p.coefficient(*AMBIGUOUS_ENTRY)
    jones_ok = specialize_homfly_to_jones(p) == jones_via_bracket(d)

    warm = SkeinEngine(cache_path=str(cache))
    t0 = time.monotonic()
    p_warm = warm.homfly(d)
    warm_seconds = time.monotonic() - t0
    warm_nodes = warm.counters()["nodes"]

    ok = (
        not mismatches
        and flagged in (12, -12)
        and jones_ok
        and p_warm == p
        and cold_seconds <= 120
        and warm_seconds <= 5
        and warm_nodes * 10 <= cold_nodes
    )
    _record(
        1,
        ok,
        f"doubled Borromean table exact (flagged coefficient = {flagged}), "
        f"bracket oracle agrees, cold {cold_seconds:.2f}s/{cold_nodes} nodes, "
        f"warm {warm_seconds:.2f}s/{warm_nodes} nodes",
    )


def test_criterion_1_reports_deterministic(tmp_path):
    cfg1 = SuiteConfig(engine=SkeinEngine(cache_path=str(tmp_path / "c1")))
    cfg2 = SuiteConfig(engine=SkeinEngine(cache_path=str(tmp_path / "c2")))
    content1 = [r.content_key() for r in suite_borromean(cfg1)]
    content2 = [r.content_key() for r in suite_borromean(cfg2)]
    assert content1 == content2


def test_criterion_2_doubled_degree_formula(eng):
    results = {}
    t0 = time.monotonic()
    p1 = eng.homfly(blackboard_double(quasitoric_closure(1, 1)))
    r1_seconds = time.monotonic() - t0
    results["r=1,+"] = p1.max_z_degree()
    results["r=1,-"] = eng.homfly(blackboard_double(quasitoric_closure(1, -1))).max_z_degree()
    p2 = eng.homfly(blackboard_double(quasitoric_closure(2, 1)))
    p2m = eng.homfly(blackboard_double(quasitoric_closure(2, -1)))
    results["r=2,+"] = p2.max_z_degree()
    results["r=2,-"] = p2m.max_z_degree()
    mirror_ok = p2m == p2.mirror_image() and results["r=1,-"] == 5

    stretch = os.environ.get("SKEINKIT_STRETCH") == "1"
    stretch_note = "r=3 skipped (set SKEINKIT_STRETCH=1)"
    if stretch:
        p3 = eng.homfly(blackboard_double(quasitoric_closure(3, 1)))
        results["r=3,+"] = p3.max_z_degree()
        stretch_note = f"r=3 degree {p3.max_z_degree()}"

    want = {"r=1,+": 5, "r=1,-": 5, "r=2,+": 11, "r=2,-": 11}
    if stretch:
        want["r=3,+"] = 17
    ok = results == want and mirror_ok and r1_seconds <= 1
    _record(
        2,
        ok,
        f"max z-degree of doubled closures = 6r-1: {results} "
        f"(r=1 in {r1_seconds:.2f}s; {stretch_note})",
    )


def test_criterion_3_whitehead_degree_doubles_crossing_number(eng):
    samples = [
        ("trefoil", quasitoric_closure(1, 1)),
        ("torus25", replace_crossing_with_half_twists(quasitoric_closure(1, 1), TwistSite(0, 3))),
    ]
    count = 0
    worst = 0.0
    ok = True
    for name, base in samples:
        c, w = base.crossing_count(), base.writhe()
        for m in range(w - 2, w + 3):
            for sign in (1, -1):
                t0 = time.monotonic()
                p = eng.homfly(canonical_whitehead(base, m, sign))
                seconds = time.monotonic() - t0
                worst = max(worst, seconds)
                count += 1
                ok = ok and p.max_z_degree() == 2 * c and seconds <= 60
    _record(
        3,
        ok and count == 20,
        f"{count} Whitehead doubles with max z-degree = 2c(K), worst case {worst:.2f}s",
    )


def test_criterion_4_degree_shift_identities(eng):
    trefoil = quasitoric_closure(1, 1)
    w = trefoil.writhe()
    m_double = {m: eng.homfly(canonical_double(trefoil, m)).max_z_degree() for m in range(0, 6)}
    ok = all(m_double[m] == m_double[w] for m in m_double)
    for m in range(0, 6):
        for sign in (1, -1):
            mw = eng.homfly(canonical_whitehead(trefoil, m, sign)).max_z_degree()
            ok = ok and m_double[m] == mw - 1
    _record(
        4,
        ok,
        f"doubled-link degree {m_double[w]} = Whitehead degree - 1, framing-independent, m in 0..5",
    )


def test_criterion_5_genus_identities():
    t0 = time.monotonic()
    trefoil = quasitoric_closure(1, 1)
    _, knot = _beta2_knot_sample()
    assert knot.component_count() == 1
    ok = True
    for base in (trefoil, knot):
        want = base.crossing_count()
        genera = {
            canonical_whitehead(base, m, sign).stats().canonical_genus
            for m in range(-5, 9)
            for sign in (1, -1)
        }
        ok = ok and genera == {want}
    seconds = time.monotonic() - t0
    _record(
        5,
        ok and seconds < 1,
        f"canonical genus of Whitehead diagrams = c(D), independent of m in [-5,8] ({seconds:.2f}s)",
    )


def test_criterion_6_structural_properties(eng):
    t0 = time.monotonic()

    mirror_ok = True
    rng = random.Random(20260810)
    for _ in range(100):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 10))]
        d = from_braid_closure(BraidWord(n, letters))
        p = eng.homfly(d)
        st = d.stats()
        pm = eng.homfly(d.mirror())
        mirror_ok = mirror_ok and pm == p.mirror_image()
        if st.components % 2 == 1:
            mirror_ok = mirror_ok and pm == p.substitute_v_inverse()
        # Morton bound and exponent parity on every computed diagram
        mirror_ok = mirror_ok and p.max_z_degree() <= st.morton_bound
        want = (st.components - 1) % 2
        mirror_ok = mirror_ok and all(
            ev % 2 == want and ez % 2 == want for ev, ez in p.terms()
        )

    agree_ok = True
    words = 0
    for b in _exhaustive_words():
        words += 1
        agree_ok = agree_ok and homfly_closed_braid(b) == eng.homfly(from_braid_closure(b))

    markov_ok = True
    rng = random.Random(1729)
    for _ in range(50):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 8))]
        b = BraidWord(n, letters)
        p = eng.homfly(from_braid_closure(b))
        for bm in (
            b.conjugate_by(rng.choice([1, -1]) * rng.randint(1, n - 1)),
            b.stabilize(True),
            b.stabilize(False),
        ):
            markov_ok = markov_ok and eng.homfly(from_braid_closure(bm)) == p

    seconds = time.monotonic() - t0
    ok = mirror_ok and agree_ok and words == 5589 and markov_ok and seconds <= 600
    _record(
        6,
        ok,
        f"mirror identity x100, engine agreement on {words} words, Markov moves x50, "
        f"Morton bound and parity everywhere ({seconds:.1f}s)",
    )


def test_criterion_7_combinatorial_counts():
    t0 = time.monotonic()
    ok = True
    for r in range(1, 7):
        b = quasitoric_beta(r, 1)
        d = from_braid_closure(b)
        st = blackboard_double(d).stats()
        ok = ok and d.crossing_count() == 3 * r
        ok = ok and d.component_count() == (3 if r % 3 == 2 else 1)
        ok = ok and st.seifert_circles == 6 * r + 2
        ok = ok and st.morton_bound == 6 * r - 1
    seconds = time.monotonic() - t0
    _record(
        7,
        ok and seconds < 1,
        f"closures have 3r crossings, doubles have 6r+2 Seifert circles and bound 6r-1, "
        f"r<=6 ({seconds:.2f}s)",
    )
