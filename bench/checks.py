"""Checks of workload outputs against engines independent of the one that made them.

They run once per benchmark invocation, after the timed region, on the
distinct outputs of the reference pass.  Every timed pass must then repeat
the reference outputs byte for byte, which keeps these costly checks out of
the timing.  Each check returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from skeinkit import diagram, jones, satellite, skein, suites
from skeinkit.braid import BraidWord
from skeinkit.laurent import LaurentPoly2

# Crossings of a closure above which no skein cross-check is made: the skein
# recursion does T(5,6) (24 crossings) in seconds and T(6,7) not in minutes.
SKEIN_CHECK_MAX_CROSSINGS = 20


def _table_poly(ambiguous: int) -> LaurentPoly2:
    terms = [
        ((ev, ez), c)
        for ez, row in suites.BORROMEAN_DOUBLE_TABLE.items()
        for ev, c in row.items()
        if (ev, ez) != suites.AMBIGUOUS_ENTRY
    ]
    terms.append((suites.AMBIGUOUS_ENTRY, ambiguous))
    return LaurentPoly2(terms)


# The doubled Borromean rings (top sign +1): the printed table entry and the
# value the table's antisymmetry predicts are both accepted, as in the suite.
BORROMEAN_CANDIDATES = [_table_poly(12), _table_poly(-12)]


@functools.cache
def _r3_double() -> LaurentPoly2:
    """The r = 3 doubled closure's HOMFLYPT value, computed once by the skein engine."""
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    return LaurentPoly2.parse_text(reference["doubled_quasitoric_r3_top_plus"]["homfly"])


def doubled_closure_reference(r: int, top_sign: int) -> list:
    """Accepted HOMFLYPT values of blackboard_double(quasitoric_closure(r, top_sign)).

    A top sign of -1 gives the mirror braid, whose double is the mirror link.
    """
    if r == 2:
        values = BORROMEAN_CANDIDATES
    elif r == 3:
        values = [_r3_double()]
    else:
        raise ValueError(f"no reference for the doubled closure with r={r}")
    return values if top_sign > 0 else [p.mirror_image() for p in values]


def morton_and_parity(d: diagram.LinkDiagram, p: LaurentPoly2) -> list:
    st = d.stats()
    problems = []
    if p.is_zero:
        return ["zero polynomial"]
    if p.max_z_degree() > st.morton_bound:
        problems.append(f"Morton bound: max_z {p.max_z_degree()} > {st.morton_bound}")
    want = (st.components - 1) % 2
    if any(ev % 2 != want or ez % 2 != want for ev, ez in p.terms()):
        problems.append(f"exponent parity differs from {want} ({st.components} components)")
    return problems


def bracket_agrees(d: diagram.LinkDiagram, p: LaurentPoly2) -> list:
    """The v -> a^2, z -> a - a^-1 specialization against the bracket oracle."""
    if jones.specialize_homfly_to_jones(p) != jones.jones_via_bracket(d):
        return ["Jones specialization differs from the bracket"]
    return []


def skein_agrees(d: diagram.LinkDiagram, p: LaurentPoly2) -> list:
    if skein.SkeinEngine().homfly(d) != p:
        return ["skein value differs"]
    return []


def max_z_is(p: LaurentPoly2, want: int, formula: str) -> list:
    got = p.max_z_degree()
    return [] if got == want else [f"max_z {got}, formula {formula} gives {want}"]


def in_references(p, references: list, what: str) -> list:
    return [] if p in references else [f"differs from the {what} reference"]


def satellite_diagram(spec) -> diagram.LinkDiagram:
    """Build the diagram an input spec names; the timed passes do the same."""
    kind = spec[0]
    if kind == "double-closure":
        return satellite.blackboard_double(satellite.quasitoric_closure(spec[1], spec[2]))
    base = diagram.from_braid_closure(BraidWord.parse_text(spec[1]))
    if kind == "double":
        return satellite.canonical_double(base, spec[2])
    if kind == "whitehead":
        return satellite.canonical_whitehead(base, spec[2], spec[3])
    raise ValueError(f"unknown satellite spec {spec!r}")


def check_satellite(spec, companion_crossings, p: LaurentPoly2) -> list:
    """All checks on one skein output of the satellite workloads.

    companion_crossings is the crossing number c(K) of the companion when
    the degree formulas 2c(K) - 1 (framed double) and 2c(K) (Whitehead
    double) are known to hold for it, else None.
    """
    d = satellite_diagram(spec)
    problems = morton_and_parity(d, p) + bracket_agrees(d, p)
    kind = spec[0]
    if kind == "double-closure":
        r, sign = spec[1], spec[2]
        problems += max_z_is(p, 6 * r - 1, "6r-1")
        problems += in_references(p, doubled_closure_reference(r, sign), "reference-table")
    elif companion_crossings is not None:
        c = companion_crossings
        if kind == "double":
            problems += max_z_is(p, 2 * c - 1, "2c(K)-1")
        else:
            problems += max_z_is(p, 2 * c, "2c(K)")
    return problems


def check_braid(b: BraidWord, p: LaurentPoly2, hecke_jones, bracket_jones) -> list:
    """Checks on the Hecke value of a closed braid and on its bracket Jones value.

    bracket_jones is None when the timed pass left the bracket out; it is
    computed here instead.  A disagreement fails both outputs, since the
    check cannot tell which engine is wrong.
    """
    d = diagram.from_braid_closure(b)
    problems = morton_and_parity(d, p)
    if hecke_jones != jones.specialize_homfly_to_jones(p):
        problems.append("specialized Jones value differs from the Hecke value's")
    if bracket_jones is None:
        bracket_jones = jones.jones_via_bracket(d)
    if hecke_jones != bracket_jones:
        problems.append("Hecke value's Jones specialization differs from the bracket")
    if len(d.crossings) <= SKEIN_CHECK_MAX_CROSSINGS:
        problems += skein_agrees(d, p)
    return problems


def check_doubled_closure_bracket(r: int, top_sign: int, value) -> list:
    refs = [jones.specialize_homfly_to_jones(p) for p in doubled_closure_reference(r, top_sign)]
    return in_references(value, refs, f"r={r} doubled-closure Jones")
