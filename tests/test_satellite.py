import hashlib
import itertools
from fractions import Fraction

import pytest

from skeinkit import satellite
from skeinkit.braid import BraidWord
from skeinkit.diagram import LinkDiagram, from_braid_closure
from skeinkit.errors import DiagramError, SelfCheckError
from skeinkit.satellite import (
    PUSHOFF_LINKING_SIGN,
    blackboard_double,
    build_K_A,
    canonical_double,
    canonical_whitehead,
    quasitoric_closure,
    replace_crossing_with_half_twists,
)

TREFOIL = quasitoric_closure(1, 1)
FIG8 = from_braid_closure(BraidWord(3, (1, -2, 1, -2)))


def test_blackboard_double_counts():
    d = blackboard_double(TREFOIL)
    st = d.stats()
    assert st.crossings == 12
    assert st.components == 2
    assert st.writhe == 0

    loops = blackboard_double(LinkDiagram((), 1))
    assert loops.crossing_count() == 0
    assert loops.free_loops == 2

    d2 = blackboard_double(quasitoric_closure(2, 1))
    st2 = d2.stats()
    assert st2.crossings == 24
    assert st2.components == 6
    assert st2.seifert_circles == 14
    assert st2.morton_bound == 11


def test_blackboard_double_general_properties():
    for base in (TREFOIL, FIG8, quasitoric_closure(2, -1)):
        d = blackboard_double(base)
        assert d.crossing_count() == 4 * base.crossing_count()
        assert d.component_count() == 2 * base.component_count()
        assert d.writhe() == 0


def test_doubled_quasitoric_morton_bound_series():
    for r in range(1, 7):
        d = blackboard_double(quasitoric_closure(r, 1))
        st = d.stats()
        assert st.crossings == 12 * r
        assert st.seifert_circles == 6 * r + 2
        assert st.morton_bound == 6 * r - 1


def test_canonical_double_twists_and_linking():
    w = TREFOIL.writhe()
    for m in range(-2, 7):
        d = canonical_double(TREFOIL, m)
        assert d.crossing_count() == 4 * 3 + 2 * abs(m - w)
        assert d.component_count() == 2
        assert d.linking_number(0, 1) == PUSHOFF_LINKING_SIGN * m


def test_canonical_double_standard_diagram_is_blackboard():
    assert canonical_double(TREFOIL, TREFOIL.writhe()) == blackboard_double(TREFOIL)
    assert canonical_double(TREFOIL, 0).crossing_count() == 18


def test_canonical_double_rejects_links():
    with pytest.raises(DiagramError):
        canonical_double(quasitoric_closure(2, 1), 0)
    with pytest.raises(DiagramError):
        canonical_whitehead(from_braid_closure(BraidWord(2, (1, 1))), 0, 1)


def test_canonical_whitehead_rejects_a_bad_clasp_sign():
    with pytest.raises(DiagramError, match="clasp_sign must be"):
        canonical_whitehead(TREFOIL, 0, 0)


@pytest.mark.parametrize(
    "build, refusal",
    [
        (lambda: canonical_whitehead(TREFOIL, 3, True), "clasp_sign must be"),
        (lambda: canonical_double(TREFOIL, True), "canonical_double needs an int framing"),
        (lambda: canonical_double(TREFOIL, 2.5), "canonical_double needs an int framing"),
        (lambda: canonical_whitehead(TREFOIL, 3.0, 1), "canonical_whitehead needs an int framing"),
        (lambda: build_K_A([[True, True, True]]), "matrix entries must be nonzero integers"),
    ],
    ids=["bool-clasp", "bool-framing", "float-framing", "float-whitehead-framing", "bool-matrix"],
)
def test_builder_arguments_that_are_not_ints_are_refused(build, refusal):
    # True == 1 and 3.0 == 3, so only a type test refuses them
    with pytest.raises(DiagramError, match=refusal):
        build()


def test_a_band_too_large_to_encode_is_refused_before_it_is_built():
    # 4c + 2|m - w| crossings, 2 more for a clasp, must stay below the
    # canonical-code limit of 16,000; the trefoil has c = 3 and w = 3.
    assert canonical_double(TREFOIL, 3 + 7993).crossing_count() == 15998
    assert canonical_whitehead(TREFOIL, 3 - 7992, -1).crossing_count() == 15998
    for build in (
        lambda: canonical_double(TREFOIL, 3 + 7994),
        lambda: canonical_whitehead(TREFOIL, 3 - 7993, 1),
        lambda: canonical_whitehead(TREFOIL, 99999999999, 1),
    ):
        with pytest.raises(DiagramError, match="canonical codes stop at 16000"):
            build()


def test_canonical_double_of_round_unknot():
    assert canonical_double(LinkDiagram((), 1), 0) == LinkDiagram((), 2)
    d = canonical_double(LinkDiagram((), 1), 3)
    assert d.crossing_count() == 6
    assert d.component_count() == 2
    assert d.linking_number(0, 1) == PUSHOFF_LINKING_SIGN * 3


def test_canonical_whitehead_counts_and_genus():
    w = TREFOIL.writhe()
    for m in (0, 3, 5):
        for s in (1, -1):
            k = canonical_whitehead(TREFOIL, m, s)
            assert k.crossing_count() == 12 + 2 * abs(m - w) + 2
            assert k.component_count() == 1
            assert k.stats().canonical_genus == 3


def test_whitehead_genus_independent_of_m():
    for base in (TREFOIL, FIG8):
        want = base.crossing_count()
        for m in range(-5, 9):
            for s in (1, -1):
                g = canonical_whitehead(base, m, s).stats().canonical_genus
                assert g == want
                assert isinstance(g, Fraction)


def test_whitehead_writhe():
    # doubled part has writhe 0; twists contribute -2(m - w); clasp +-2
    w = TREFOIL.writhe()
    for m in (1, 3, 6):
        for s in (1, -1):
            k = canonical_whitehead(TREFOIL, m, s)
            assert k.writhe() == -2 * (m - w) + 2 * s


def test_whitehead_double_that_is_not_a_knot_is_a_self_check_error(monkeypatch):
    # a full twist in place of the clasp leaves the band's two components
    monkeypatch.setattr(satellite, "_clasp", satellite._full_twist)
    with pytest.raises(SelfCheckError, match="the Whitehead double is not a knot"):
        canonical_whitehead(TREFOIL, 0, 1)


def test_whitehead_of_round_unknot():
    k = canonical_whitehead(LinkDiagram((), 1), 0, 1)
    assert k.crossing_count() == 2
    assert k.component_count() == 1
    core, removed = k.simplify()
    assert core.is_empty() and removed == 1  # the clasped band is an unknot


def test_half_twist_replacement():
    assert replace_crossing_with_half_twists(TREFOIL, 0, 1) == TREFOIL
    t25 = replace_crossing_with_half_twists(TREFOIL, 0, 3)
    assert t25.crossing_count() == 5
    assert t25.component_count() == 1
    assert t25.writhe() == 5

    with pytest.raises(DiagramError):
        replace_crossing_with_half_twists(TREFOIL, 0, -3)
    with pytest.raises(DiagramError):
        replace_crossing_with_half_twists(TREFOIL, 9, 3)
    with pytest.raises(DiagramError):
        replace_crossing_with_half_twists(TREFOIL, 0, 0)


def test_half_twist_replacement_refuses_arguments_that_are_not_ints():
    # True == 1 and 2.0 == 2, so only a type test refuses them; 2.0 used to
    # raise a bare TypeError, and True passed as crossing 1 or count 1
    for crossing, count in ((0, 2.0), (0, True), (True, 1), (0.0, 3)):
        with pytest.raises(DiagramError, match=f"crossing {crossing!r} and count {count!r} must be ints"):
            replace_crossing_with_half_twists(TREFOIL, crossing, count)


def test_full_twist_replacement_changes_components():
    d = quasitoric_closure(2, 1)
    assert d.component_count() == 3
    d2 = replace_crossing_with_half_twists(d, 0, 2)
    assert d2.crossing_count() == 7
    assert d2.component_count() == 2


def test_build_K_A():
    assert build_K_A([[1, 1, 1]]).canonical_code() == TREFOIL.canonical_code()
    ka = build_K_A([[1, 1, 1], [-1, -1, -1]])
    assert ka.crossing_count() == 6
    assert ka.canonical_code() == quasitoric_closure(2, 1).canonical_code()

    big = build_K_A([[2, 3, 1], [-1, -2, -2]])
    assert big.crossing_count() == 2 + 3 + 1 + 1 + 2 + 2

    with pytest.raises(DiagramError):
        build_K_A([[1, 1, 0]])
    with pytest.raises(DiagramError):
        build_K_A([[1, -1, 1]])
    with pytest.raises(DiagramError):
        build_K_A([[1, 1, 1], [1, 1, 1]])
    with pytest.raises(DiagramError):
        build_K_A([])


# sha256 of the constructors' exact output over small braid closures: the
# crossing tuples and free loops, so also the arc labels that fix the skein
# basepoints.  A change to any label changes it.
CONSTRUCTION_SHA256 = "f3a4e572610a838caa9b13fcda53508ac563d1341e7b6a0308a6ca0ddf4fa5df"


def closures(strands: int, max_letters: int):
    gens = [g for k in range(1, strands) for g in (k, -k)]
    for n in range(1, max_letters + 1):
        for word in itertools.product(gens, repeat=n):
            yield from_braid_closure(BraidWord(strands, word))


def test_construction_digest():
    """Knot closures of up to 5 letters on 2-3 strands and 4 letters on 4
    strands, plus the round unknot, doubled and Whitehead-doubled for framing
    targets w - 3..w + 3; and stacks of 2-4 half-twists at every crossing of
    every closure of up to 4 letters on 3 strands."""
    knots = [LinkDiagram((), 1)]
    knots += [
        d for s, n in ((2, 5), (3, 5), (4, 4)) for d in closures(s, n) if d.component_count() == 1
    ]
    outputs = []
    for d in knots:
        w = d.writhe()
        outputs.append(blackboard_double(d))
        for m in range(w - 3, w + 4):
            outputs.append(canonical_double(d, m))
            outputs += [canonical_whitehead(d, m, s) for s in (1, -1)]
    for d in closures(3, 4):
        for ci, c in enumerate(d.crossings):
            outputs += [replace_crossing_with_half_twists(d, ci, c.sign * k) for k in (2, 3, 4)]
    text = "\n".join(f"{tuple(map(tuple, d.crossings))} {d.free_loops}" for d in outputs)
    assert (len(knots), len(outputs)) == (259, 9454)
    assert hashlib.sha256(text.encode()).hexdigest() == CONSTRUCTION_SHA256
