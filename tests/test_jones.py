import random

import pytest

from skeinkit.braid import BraidWord
from skeinkit.diagram import LinkDiagram, from_braid_closure
from skeinkit.errors import SkeinKitError
from skeinkit.jones import jones_via_bracket, specialize_homfly_to_jones
from skeinkit.laurent import DELTA, LaurentPoly1, LaurentPoly2
from skeinkit.satellite import blackboard_double, canonical_whitehead, quasitoric_closure
from skeinkit.skein import SkeinEngine


@pytest.fixture(scope="module")
def eng():
    return SkeinEngine()


def closure(letters, strands=None):
    strands = strands or (max(abs(k) for k in letters) + 1 if letters else 1)
    return from_braid_closure(BraidWord(strands, letters))


def test_laurent1_arithmetic():
    a = LaurentPoly1.monomial(1, 1)
    ainv = LaurentPoly1.monomial(1, -1)
    u = a - ainv
    assert u * u == LaurentPoly1({2: 1, 0: -2, -2: 1})
    assert (u ** 3).exact_div(u) == u * u
    with pytest.raises(SkeinKitError):
        (u + LaurentPoly1.monomial(1, 0)).exact_div(u)
    assert LaurentPoly1().exact_div(u).is_zero


def test_bracket_unknots():
    assert jones_via_bracket(LinkDiagram((), 1)) == 1
    assert jones_via_bracket(closure([1], strands=2)) == 1
    assert jones_via_bracket(closure([-1], strands=2)) == 1
    # 2-component unlink: -t^(1/2) - t^(-1/2)
    assert jones_via_bracket(closure([1, -1])) == LaurentPoly1({1: -1, -1: -1})


def test_bracket_trefoil_and_hopf():
    # right trefoil: V = -t^4 + t^3 + t, in a = t^(1/2)
    assert jones_via_bracket(closure([1, 1, 1])) == LaurentPoly1({8: -1, 6: 1, 2: 1})
    # positive Hopf link: V = -t^(5/2) - t^(1/2)
    assert jones_via_bracket(closure([1, 1])) == LaurentPoly1({5: -1, 1: -1})
    # mirror symmetry a -> a^-1
    left = jones_via_bracket(closure([-1, -1, -1]))
    assert left == LaurentPoly1({-8: -1, -6: 1, -2: 1})


def test_specialize_basics():
    one = LaurentPoly2.monomial(1)
    assert specialize_homfly_to_jones(one) == 1
    # delta = (v^-1 - v) z^-1 -> (a^-2 - a^2) / (a - a^-1) = -a - a^-1
    assert specialize_homfly_to_jones(DELTA) == LaurentPoly1({1: -1, -1: -1})
    assert specialize_homfly_to_jones(DELTA) == jones_via_bracket(closure([1, -1]))
    assert specialize_homfly_to_jones(LaurentPoly2()).is_zero


def test_specialize_rejects_non_link_values():
    with pytest.raises(SkeinKitError):
        specialize_homfly_to_jones(LaurentPoly2.monomial(1, 0, -1))


def test_specialization_matches_bracket_small(eng):
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 9))]
        d = from_braid_closure(BraidWord(n, letters))
        assert specialize_homfly_to_jones(eng.homfly(d)) == jones_via_bracket(d)


def test_specialization_matches_bracket_on_satellites(eng):
    tref = quasitoric_closure(1, 1)
    for d in (
        blackboard_double(tref),
        canonical_whitehead(tref, 2, 1),
        canonical_whitehead(tref, 4, -1),
    ):
        assert specialize_homfly_to_jones(eng.homfly(d)) == jones_via_bracket(d)
