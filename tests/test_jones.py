import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skeinkit import cli, jones
from skeinkit.braid import BraidWord, quasitoric_beta, toric
from skeinkit.diagram import Crossing, LinkDiagram, from_braid_closure
from skeinkit.errors import BudgetExceededError, DiagramError, SelfCheckError, SkeinKitError
from skeinkit.hecke import homfly_closed_braid
from skeinkit.jones import jones_via_bracket, specialize_homfly_to_jones
from skeinkit.laurent import DELTA, LaurentPoly1, LaurentPoly2, delta_power
from skeinkit.satellite import blackboard_double, canonical_whitehead, quasitoric_closure
from skeinkit.skein import SkeinEngine


@pytest.fixture(scope="module")
def eng():
    return SkeinEngine()


def closure(letters, strands=None):
    strands = strands or (max(abs(k) for k in letters) + 1 if letters else 1)
    return from_braid_closure(BraidWord(strands, letters))


def test_laurent1_arithmetic():
    u = LaurentPoly1({1: 1, -1: -1})  # a - a^-1
    assert u * u == LaurentPoly1({2: 1, 0: -2, -2: 1})


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
    # a negative writhe keeps the coefficients ints, not floats equal to them
    assert all(type(c) is int for c in left.terms().values())


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


def test_empty_diagram_is_refused():
    with pytest.raises(DiagramError, match="the empty diagram has no Jones polynomial"):
        jones_via_bracket(LinkDiagram())
    # free loops alone are a diagram: the k-component unlink
    assert jones_via_bracket(LinkDiagram((), 2)) == LaurentPoly1({1: -1, -1: -1})
    assert jones_via_bracket(LinkDiagram((), 3)) == LaurentPoly1({2: 1, 0: 2, -2: 1})


def test_bracket_state_budget(monkeypatch):
    monkeypatch.setattr(jones, "STATE_BUDGET", 10)
    with pytest.raises(BudgetExceededError, match="bracket state budget exhausted"):
        jones_via_bracket(from_braid_closure(toric(5, 6)))


# The most live states that T(5,6)'s contraction holds after any crossing.
T56_PEAK_STATES = 42


def test_bracket_state_budget_caps_the_peak(monkeypatch):
    d = from_braid_closure(toric(5, 6))
    monkeypatch.setattr(jones, "STATE_BUDGET", T56_PEAK_STATES)
    assert jones_via_bracket(d) == specialize_homfly_to_jones(homfly_closed_braid(toric(5, 6)))
    monkeypatch.setattr(jones, "STATE_BUDGET", T56_PEAK_STATES - 1)
    with pytest.raises(BudgetExceededError, match="bracket state budget exhausted"):
        jones_via_bracket(d)


def test_odd_bracket_exponent_is_a_self_check_error(monkeypatch):
    writhe = LinkDiagram.writhe
    monkeypatch.setattr(LinkDiagram, "writhe", lambda self: writhe(self) + 1)
    with pytest.raises(SelfCheckError, match="writhe-corrected bracket has an odd exponent"):
        jones_via_bracket(closure([1, 1, 1]))


def test_bracket_of_t78_matches_hecke():
    b = toric(7, 8)
    t0 = time.process_time()
    bracket = jones_via_bracket(from_braid_closure(b))
    assert time.process_time() - t0 < 3.0  # the all-ends contraction took over 4 s
    assert bracket == specialize_homfly_to_jones(homfly_closed_braid(b))


# -- the packed specialization --------------------------------------------
#
# The substitution at a rational point, computed exactly, checks the packed
# value: a slot too small for a coefficient or a wrong exponent offset changes
# it.  Q delta^j has z-exponents down to -j and specializes to a Laurent
# polynomial; one more term with z^-(j+1) leaves a denominator.


def substituted(p, a):
    """The sum of c a^(2 e_v) (a - 1/a)^(e_z) over the terms of ``p``."""
    return sum((c * a ** (2 * ev) * (a - 1 / a) ** ez for (ev, ez), c in p.terms().items()), Fraction(0))


def evaluated(v, a):
    return sum((c * a**e for e, c in v.terms().items()), Fraction(0))


big = st.integers(-(2**70), 2**70)


@st.composite
def cleared_values(draw):
    """``(Q delta^j, j)`` for a random Q with z-exponents >= 0."""
    keys = st.tuples(st.integers(-6, 6), st.integers(0, 8))
    q = LaurentPoly2(draw(st.dictionaries(keys, big, min_size=1, max_size=6)))
    j = draw(st.integers(0, 5))
    return q * delta_power(j), j


@given(cleared_values())
@settings(max_examples=200, deadline=None)
def test_packed_specialization_is_the_substitution(pj):
    p, _ = pj
    v = specialize_homfly_to_jones(p)
    for a in (Fraction(3), Fraction(-5, 2)):
        assert evaluated(v, a) == substituted(p, a)


@given(cleared_values(), st.integers(-8, 8), big.filter(bool))
@settings(max_examples=200, deadline=None)
def test_a_leftover_z_denominator_is_refused(pj, ev, c):
    p, j = pj
    with pytest.raises(SelfCheckError, match="does not specialize to a Jones polynomial"):
        specialize_homfly_to_jones(p + LaurentPoly2.monomial(c, ev, -(j + 1)))


@pytest.mark.parametrize(
    "b",
    [toric(4, 12), toric(4, 15), toric(6, 7), quasitoric_beta(6, 1), quasitoric_beta(6, -1)],
    ids=["T(4,12)", "T(4,15)", "T(6,7)", "beta6+", "beta6-"],
)
def test_packed_specialization_matches_bracket_on_braids(b):
    # T(4,12) has four components: its value has z-exponents down to -3
    assert specialize_homfly_to_jones(homfly_closed_braid(b)) == jones_via_bracket(from_braid_closure(b))


def test_the_jones_route_does_no_laurent1_arithmetic(eng, monkeypatch, capsys):
    d = blackboard_double(quasitoric_closure(2, 1))
    p = eng.homfly(d)

    def refuse(*args):
        raise AssertionError("LaurentPoly1 arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__pow__"):
        monkeypatch.setattr(LaurentPoly1, name, refuse)
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert specialize_homfly_to_jones(p) == jones_via_bracket(d)
    assert cli.main(["verify", "--suite", "borromean"]) == 0
    assert "[ok  ] jones-specialization-equals-bracket" in capsys.readouterr().out


# -- reference oracle ------------------------------------------------------
#
# The contraction that the frontier matching replaced: every state pairs both
# ends of every arc of the diagram, as a sorted tuple, and crossings come in
# breadth-first order over shared arcs.  The frontier contraction must give
# exactly the same polynomial.

_LOOP = LaurentPoly1({2: -1, -2: -1})
_A = LaurentPoly1({1: 1})
_A_INV = LaurentPoly1({-1: 1})


def oracle_bfs_order(d):
    by_arc = {}
    for ci, c in enumerate(d.crossings):
        for arc in c[:4]:
            by_arc.setdefault(arc, []).append(ci)
    seen = [False] * len(d.crossings)
    order = []
    for start in range(len(d.crossings)):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        while queue:
            ci = queue.pop(0)
            order.append(ci)
            for arc in d.crossings[ci][:4]:
                for cj in by_arc[arc]:
                    if not seen[cj]:
                        seen[cj] = True
                        queue.append(cj)
    return order


def oracle_bracket(d):
    """The normalized bracket: each state skips the loop factor of the first
    loop it closes (a free loop first), and every state closes one."""

    def key_of(p):
        return tuple(sorted((a, b) for a, b in p.items() if a < b))

    pairing = {}
    for arc in d.arcs():
        pairing[(arc, 0)] = (arc, 1)
        pairing[(arc, 1)] = (arc, 0)
    states = {(key_of(pairing), d.free_loops > 0): LaurentPoly1({0: 1})}
    for ci in oracle_bfs_order(d):
        c = d.crossings[ci]
        h_oi, h_oo = (c.over_in, 1), (c.over_out, 0)
        h_ui, h_uo = (c.under_in, 1), (c.under_out, 0)
        a_joins, b_joins = ((h_oi, h_uo), (h_ui, h_oo)), ((h_oi, h_ui), (h_oo, h_uo))
        if c.sign < 0:
            a_joins, b_joins = b_joins, a_joins
        new_states = {}
        for (state_key, closed_any), coeff in states.items():
            base = dict(state_key)
            base.update({b: a for a, b in state_key})
            for weight, joins in ((_A, a_joins), (_A_INV, b_joins)):
                p = dict(base)
                loops = 0
                for e1, e2 in joins:
                    m1 = p.pop(e1)
                    m2 = p.pop(e2)
                    if m1 == e2:
                        loops += 1
                    else:
                        p[m1] = m2
                        p[m2] = m1
                k = (key_of(p), closed_any or loops > 0)
                factors = loops - 1 if loops and not closed_any else loops
                new_states[k] = new_states.get(k, 0) + coeff * weight * _LOOP**factors
        states = new_states
    total = sum(states.values(), LaurentPoly1()) * _LOOP ** max(d.free_loops - 1, 0)
    w = d.writhe()
    corrected = total * LaurentPoly1({-3 * w: (-1) ** (w % 2)})
    return LaurentPoly1({-e // 2: c for e, c in corrected.terms().items()})


# -- strategies ------------------------------------------------------------


@st.composite
def closures(draw, max_strands=6, max_letters=12):
    """Closures on 1..max_strands strands; untouched strands are free loops."""
    n = draw(st.integers(1, max_strands))
    if n == 1:
        return from_braid_closure(BraidWord(1, ()))
    letter = st.integers(1, n - 1).flatmap(lambda k: st.sampled_from([k, -k]))
    return from_braid_closure(BraidWord(n, draw(st.lists(letter, max_size=max_letters))))


@st.composite
def kinks(draw):
    """One-letter closures: a curl, and the untouched strands as free loops."""
    n = draw(st.integers(2, 4))
    letter = draw(st.sampled_from([1, -1])) * draw(st.integers(1, n - 1))
    return from_braid_closure(BraidWord(n, (letter,)))


knots = closures(max_strands=3, max_letters=5).filter(lambda d: d.component_count() == 1)


@st.composite
def whitehead_doubles(draw):
    return canonical_whitehead(draw(knots), draw(st.integers(-3, 3)), draw(st.sampled_from([1, -1])))


@st.composite
def split_unions(draw):
    """Two closures side by side with extra free loops, crossings interleaved."""
    parts = [draw(closures(max_letters=8)), draw(closures(max_letters=8))]
    loops = sum(d.free_loops for d in parts) + draw(st.integers(0, 2))
    return LinkDiagram(draw(st.permutations(side_by_side(parts))), loops)


def side_by_side(parts):
    """The crossings of ``parts``, each part's arcs moved to their own range."""
    return [Crossing(*(a + 1000 * i for a in c[:4]), c.sign) for i, d in enumerate(parts) for c in d.crossings]


bracket_inputs = st.one_of(
    closures(), kinks(), knots.map(blackboard_double), whitehead_doubles(), split_unions()
)


@given(bracket_inputs)
@settings(max_examples=200, deadline=None)
def test_bracket_matches_all_ends_oracle(d):
    assert jones_via_bracket(d) == oracle_bracket(d)


# -- the loop bound --------------------------------------------------------
#
# A state of a piece with n_i crossings has at most n_i + 1 circles, and the
# closure of s1 s2 ... sk reaches it: its oriented state has one circle per
# strand.  With every letter negative that state is all B-smoothings, so it
# puts the packed coefficients' lowest exponent at -(n + pieces), the least
# the offset allows.


def chain(signs):
    """The closure of s1^e1 s2^e2 ... sk^ek on k + 1 strands (an unknot)."""
    return closure([e * i for i, e in enumerate(signs, 1)], strands=len(signs) + 1)


def chain_signs(k, rng):
    """All positive, all negative, alternating and random signs of k letters."""
    return [[1] * k, [-1] * k, [(-1) ** i for i in range(k)], [rng.choice((1, -1)) for _ in range(k)]]


def test_bracket_at_the_loop_bound_on_chains():
    rng = random.Random(13)
    for k in range(1, 13):
        for signs in chain_signs(k, rng):
            d = chain(signs)
            assert jones_via_bracket(d) == oracle_bracket(d) == 1, signs


def test_bracket_at_the_loop_bound_on_split_unions():
    rng = random.Random(17)
    for _ in range(40):
        parts = [chain(rng.choice(chain_signs(rng.randint(1, 8), rng))) for _ in range(rng.randint(2, 3))]
        crossings = side_by_side(parts)
        rng.shuffle(crossings)
        d = LinkDiagram(crossings, rng.randint(0, 2))
        assert jones_via_bracket(d) == oracle_bracket(d)
    # free loops beside 0-3 crossings: the first state's coefficients, up to
    # binomial(12, 6), must fit the packed slots too
    for loops in range(13):
        for k in range(4):
            for signs in chain_signs(k, rng):
                d = chain(signs)
                d = LinkDiagram(d.crossings, d.free_loops + loops)
                assert jones_via_bracket(d) == oracle_bracket(d), (signs, loops)
