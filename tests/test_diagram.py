from fractions import Fraction

import pytest

from skeinkit.braid import BraidWord, quasitoric_beta
from skeinkit.diagram import Crossing, LinkDiagram, from_braid_closure
from skeinkit.errors import DiagramError


def closure(letters, strands=None):
    strands = strands or (max(abs(k) for k in letters) + 1 if letters else 1)
    return from_braid_closure(BraidWord(strands, letters))


def test_closure_counts():
    d = closure([1, 1, 1])
    assert d.crossing_count() == 3
    assert d.component_count() == 1
    assert d.writhe() == 3

    empty = from_braid_closure(BraidWord(1, ()))
    assert empty.crossing_count() == 0
    assert empty.free_loops == 1

    d2 = from_braid_closure(quasitoric_beta(2, 1))
    assert d2.crossing_count() == 6
    assert d2.component_count() == 3
    assert d2.writhe() == 0


def test_component_count_matches_permutation_cycles():
    words = [
        BraidWord(2, (1, 1)),
        BraidWord(3, (1, -2, 1, -2)),
        BraidWord(4, (1, 2, 3)),
        BraidWord(3, (1,)),
        quasitoric_beta(3, -1),
    ]
    for b in words:
        assert from_braid_closure(b).component_count() == b.closure_component_count()


def test_stats_trefoil():
    st = closure([1, 1, 1]).stats()
    assert st == (3, 2, 3, 1, 2, Fraction(1))


def test_stats_zero_crossing_loop():
    st = LinkDiagram((), 1).stats()
    assert st.crossings == 0
    assert st.seifert_circles == 1
    assert st.writhe == 0
    assert st.components == 1
    assert st.morton_bound == 0
    assert st.canonical_genus == 0


def test_linking_numbers():
    hopf = closure([1, 1])
    assert hopf.component_count() == 2
    assert hopf.linking_number(0, 1) == 1
    unlink = from_braid_closure(BraidWord(3, (1, -1)))
    # the two arc components cross twice with opposite signs
    assert unlink.linking_number(0, 1) == 0
    with pytest.raises(DiagramError):
        hopf.linking_number(0, 0)
    with pytest.raises(DiagramError):
        hopf.linking_number(0, 5)


def test_switch_involution_and_sign():
    d = closure([1, 1])
    assert d.switch_crossing(0).switch_crossing(0) == d
    assert d.switch_crossing(0).writhe() == 0
    with pytest.raises(DiagramError):
        d.switch_crossing(7)


def test_switch_then_simplify_gives_unlink():
    d = closure([1, 1]).switch_crossing(0)
    core, removed = d.simplify()
    assert core.is_empty()
    assert removed == 2


def test_smoothing():
    hopf = closure([1, 1])
    sm = hopf.smooth_crossing(0)
    assert sm.crossing_count() == 1
    assert sm.component_count() == 1

    kink = closure([1], strands=2)
    sm2 = kink.smooth_crossing(0)
    assert sm2.crossing_count() == 0
    assert sm2.free_loops == 2

    for x in range(3):
        d = closure([1, -2, 1])
        assert d.smooth_crossing(x).crossing_count() == d.crossing_count() - 1
        assert abs(d.smooth_crossing(x).component_count() - d.component_count()) == 1


def test_simplify_r1_r2():
    core, removed = closure([1, -1]).simplify()
    assert core.is_empty() and removed == 2  # identity braid closure: 2-unlink

    core, removed = closure([1], strands=2).simplify()
    assert core.is_empty() and removed == 1

    core, removed = closure([1, 1, 1]).simplify()
    assert core.crossing_count() == 3 and removed == 0

    # idempotence
    core2, removed2 = core.simplify()
    assert core2 == core and removed2 == 0


def test_simplify_cascade():
    # sigma1 sigma1^-1 sigma2 sigma2 on 3 strands: R2 cancels, freeing the
    # first strand into a split circle and leaving a Hopf diagram
    core, removed = closure([1, -1, 2, 2]).simplify()
    assert core.crossing_count() == 2
    assert removed == 1
    assert core.component_count() == 2


def test_mirror_stats():
    d = from_braid_closure(quasitoric_beta(2, 1))
    m = d.mirror()
    assert m.writhe() == -d.writhe()
    assert m.stats().seifert_circles == d.stats().seifert_circles
    assert m.stats().components == d.stats().components
    assert m.mirror() == d


def test_canonical_code_relabeling_invariance():
    d = closure([1, 1, 1])
    # same diagram with shuffled arc labels and crossing order
    relabel = {a: a * 7 + 3 for a in d.arcs()}
    shuffled = LinkDiagram(
        [
            Crossing(
                relabel[c.over_in],
                relabel[c.over_out],
                relabel[c.under_in],
                relabel[c.under_out],
                c.sign,
            )
            for c in reversed(d.crossings)
        ],
        d.free_loops,
    )
    assert shuffled.canonical_code() == d.canonical_code()
    assert closure([-1, -1, -1]).canonical_code() != d.canonical_code()
    assert closure([1, 1, 1]).canonical_code() == d.canonical_code()


def test_canonical_code_separates_component_structure():
    # two split Hopf-link pieces vs one 4-crossing piece must not collide
    two_hopfs = LinkDiagram(
        list(closure([1, 1]).crossings)
        + [Crossing(a + 100, b + 100, c + 100, e + 100, s) for a, b, c, e, s in closure([1, 1]).crossings]
    )
    assert two_hopfs.canonical_code() != closure([1, 1, 1, 1]).canonical_code()


def test_pd_round_trip():
    d = from_braid_closure(quasitoric_beta(2, 1))
    text = d.to_pd_text()
    assert text.startswith("PD[X(")
    d2 = LinkDiagram.from_pd_text(text)
    assert d2 == d

    loops = LinkDiagram((), 3)
    assert LinkDiagram.from_pd_text(loops.to_pd_text()) == loops

    with pytest.raises(DiagramError):
        LinkDiagram.from_pd_text("X(1,2,3,4;+1)")
    with pytest.raises(DiagramError):
        LinkDiagram.from_pd_text("PD[Y(1,2,3,4;+1)]")


def test_validation_rejects_bad_arcs():
    with pytest.raises(DiagramError):
        LinkDiagram([Crossing(1, 2, 1, 3, 1)])  # arc 1 has two heads
    with pytest.raises(DiagramError):
        LinkDiagram([Crossing(1, 2, 3, 4, 1)])  # arcs dangle
    with pytest.raises(DiagramError):
        LinkDiagram([Crossing(1, 2, 2, 1, 5)])  # bad sign


def test_split_pieces():
    hopf = closure([1, 1])
    far = LinkDiagram(
        [Crossing(a + 50, b + 50, c + 50, e + 50, s) for a, b, c, e, s in closure([1, 1, 1]).crossings]
    )
    both = LinkDiagram(list(hopf.crossings) + list(far.crossings))
    pieces = both.split_pieces()
    assert len(pieces) == 2
    assert sorted(p.crossing_count() for p in pieces) == [2, 3]
