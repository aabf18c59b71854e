import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from skeinkit import hecke
from skeinkit.braid import BraidWord, quasitoric_beta, toric
from skeinkit.diagram import from_braid_closure
from skeinkit.errors import BudgetExceededError
from skeinkit.hecke import homfly_closed_braid
from skeinkit.laurent import DELTA, ONE, LaurentPoly2, delta_power
from skeinkit.skein import SkeinEngine

# -- the per-basis-element trace, kept as an oracle ---------------------------
#
# Permutations are tuples p with p[i] = final position of strand i; the word
# is expanded on LaurentPoly2 coefficients, and every basis element is traced
# on its own, strand by strand, through a memo of element traces.

_VZ = LaurentPoly2.monomial(1, v=1, z=1)
_V2 = LaurentPoly2.monomial(1, v=2)
_VI2 = LaurentPoly2.monomial(1, v=-2)
_NEG_VIZ = LaurentPoly2.monomial(-1, v=-1, z=1)


def _apply_letter(terms: dict, j: int, inverse: bool) -> dict:
    """Right-multiply a basis linear combination by g_j or its inverse."""
    out = {}

    def add(perm, coeff):
        c2 = out.get(perm)
        c2 = coeff if c2 is None else c2 + coeff
        if c2.is_zero:
            out.pop(perm, None)
        else:
            out[perm] = c2

    for perm, coeff in terms.items():
        target = tuple(j + 1 if p == j else (j if p == j + 1 else p) for p in perm)
        grows = perm.index(j) < perm.index(j + 1)
        if not inverse:
            if grows:
                add(target, coeff)
            else:
                add(perm, coeff * _VZ)
                add(target, coeff * _V2)
        else:
            if grows:
                add(target, coeff * _VI2)
                add(perm, coeff * _NEG_VIZ)
            else:
                add(target, coeff)
    return out


def _trace_basis(perm: tuple, cache: dict) -> LaurentPoly2:
    """Markov trace of a positive permutation braid, strand by strand."""
    n = len(perm)
    if n == 1:
        return ONE
    if perm in cache:
        return cache[perm]
    j = perm[n - 1]
    if j == n - 1:
        value = DELTA * _trace_basis(perm[: n - 1], cache)
    else:
        # Peel the top strand: perm = u . (s_{n-2} ... s_j) with lengths adding,
        # where u fixes the top strand; the Markov property removes g_{n-2}.
        rho_inv = list(range(n))
        rho_inv[j] = n - 1
        for k in range(j, n - 1):
            rho_inv[k + 1] = k
        u = tuple(rho_inv[p] for p in perm[: n - 1])
        terms = {u: ONE}
        for g in range(n - 3, j - 1, -1):
            terms = _apply_letter(terms, g, inverse=False)
        value = LaurentPoly2()
        for p, coeff in terms.items():
            value = value + coeff * _trace_basis(p, cache)
    cache[perm] = value
    return value


def oracle_homfly_closed_braid(b: BraidWord) -> LaurentPoly2:
    terms = {tuple(range(b.strands)): ONE}
    for k in b.letters:
        terms = _apply_letter(terms, abs(k) - 1, inverse=k < 0)
    cache = {}
    result = LaurentPoly2()
    for perm, coeff in terms.items():
        result = result + coeff * _trace_basis(perm, cache)
    return result


@st.composite
def braid_words(draw, max_strands=7):
    n = draw(st.integers(1, max_strands))
    if n == 1:
        return BraidWord(1, ())
    letter = st.integers(1, n - 1).flatmap(lambda k: st.sampled_from([k, -k]))
    b = BraidWord(n, draw(st.lists(letter, max_size=10 if n > 5 else 14)))
    move = draw(st.sampled_from(["none", "conjugate", "stabilize"]))
    if move == "conjugate":
        b = b.conjugate_by(draw(letter))
    elif move == "stabilize" and n < max_strands:
        b = b.stabilize(draw(st.booleans()))
    return b


@given(braid_words())
@settings(max_examples=200, deadline=None)
def test_vector_trace_matches_per_element_oracle(b):
    assert homfly_closed_braid(b) == oracle_homfly_closed_braid(b)


def test_short_words_match_per_element_oracle():
    # every word of length <= 5 on <= 3 strands, the words the exhaustive
    # agreement report runs, where the 200 sampled words above may miss one
    for n in (1, 2, 3):
        gens = [g for k in range(1, n) for g in (k, -k)]
        for length in range(6):
            for letters in itertools.product(gens, repeat=length):
                b = BraidWord(n, letters)
                assert homfly_closed_braid(b) == oracle_homfly_closed_braid(b), b


def test_oracle_reproduces_known_values():
    # the oracle itself, on values pinned independently of both traces
    assert oracle_homfly_closed_braid(BraidWord(3, ())) == delta_power(2)
    assert oracle_homfly_closed_braid(BraidWord(3, (1, 2))) == 1
    tref = oracle_homfly_closed_braid(BraidWord(2, (1, 1, 1)))
    assert tref == LaurentPoly2({(2, 0): 2, (4, 0): -1, (2, 2): 1})


def test_no_state_between_calls():
    # no module-level container grows, and values do not depend on call order
    def containers():
        return {
            name: len(value)
            for name, value in vars(hecke).items()
            if isinstance(value, (dict, list, set))
        }

    before = containers()
    a, b = toric(7, 5), quasitoric_beta(3, -1)
    first = [homfly_closed_braid(a), homfly_closed_braid(b)]
    second = [homfly_closed_braid(b), homfly_closed_braid(a)]
    assert first == second[::-1]
    assert homfly_closed_braid(a) == first[0]
    assert containers() == before
    assert not any(hasattr(f, "cache_info") for f in vars(hecke).values())


@pytest.fixture(scope="module")
def eng():
    return SkeinEngine()


def test_unknot_calibration():
    # unknots on every strand count evaluate to 1
    assert homfly_closed_braid(BraidWord(1, ())) == 1
    assert homfly_closed_braid(BraidWord(2, (1,))) == 1
    assert homfly_closed_braid(BraidWord(3, (1, 2))) == 1
    assert homfly_closed_braid(BraidWord(4, (1, 2, -3))) == 1


def test_disjoint_union_calibration():
    # free strands multiply by delta
    assert homfly_closed_braid(BraidWord(2, ())) == DELTA
    assert homfly_closed_braid(BraidWord(4, ())) == delta_power(3)
    tref = homfly_closed_braid(BraidWord(2, (1, 1, 1)))
    assert homfly_closed_braid(BraidWord(3, (1, 1, 1))) == DELTA * tref


def test_exhaustive_agreement_short_words(eng):
    # all words of length <= 4 on <= 3 strands here; the acceptance suite
    # pushes this to length 6
    for n in (2, 3):
        gens = [g for k in range(1, n) for g in (k, -k)]
        for length in range(5):
            for letters in itertools.product(gens, repeat=length):
                b = BraidWord(n, letters)
                assert homfly_closed_braid(b) == eng.homfly(from_braid_closure(b)), letters


def test_random_agreement_wider_words(eng):
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(2, 4)
        length = rng.randint(1, 12)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(length)]
        b = BraidWord(n, letters)
        assert homfly_closed_braid(b) == eng.homfly(from_braid_closure(b))


def test_markov_invariance():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 8))]
        b = BraidWord(n, letters)
        p = homfly_closed_braid(b)
        assert homfly_closed_braid(b.conjugate_by(rng.choice([1, -1]) * rng.randint(1, n - 1))) == p
        assert homfly_closed_braid(b.stabilize(True)) == p
        assert homfly_closed_braid(b.stabilize(False)) == p


def test_mirror_identity():
    rng = random.Random(6)
    for _ in range(40):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 8))]
        b = BraidWord(n, letters)
        p = homfly_closed_braid(b)
        pm = homfly_closed_braid(BraidWord(n, [-k for k in letters]))
        assert pm == p.mirror_image()
        if b.closure_component_count() % 2 == 1:
            assert pm == LaurentPoly2({(-ev, ez): c for (ev, ez), c in p.terms().items()})


def test_quasitoric_series_degrees():
    # alternating closures: the degree bound c - s + 1 = 2r is attained
    for r in range(1, 7):
        p = homfly_closed_braid(quasitoric_beta(r, 1))
        assert p.max_z_degree() == 2 * r


def test_torus_knots_match_skein(eng):
    for q in (2, 3, 5, 7):
        b = toric(2, q)
        assert homfly_closed_braid(b) == eng.homfly(from_braid_closure(b))
    b = toric(3, 4)
    assert homfly_closed_braid(b) == eng.homfly(from_braid_closure(b))


def test_calibration_at_every_strand_count():
    # exercises the tables built at import up to the ceiling: n free strands
    # are delta^(n-1), and sigma_1 ... sigma_(n-1) and its inverse are unknots
    for n in range(1, hecke.MAX_STRANDS + 1):
        up = tuple(range(1, n))
        assert homfly_closed_braid(BraidWord(n, ())) == delta_power(n - 1), n
        assert homfly_closed_braid(BraidWord(n, up)) == 1, n
        assert homfly_closed_braid(BraidWord(n, tuple(-k for k in reversed(up)))) == 1, n
    with pytest.raises(BudgetExceededError):
        homfly_closed_braid(BraidWord(hecke.MAX_STRANDS + 1, ()))


def test_strand_ceiling():
    with pytest.raises(BudgetExceededError):
        homfly_closed_braid(BraidWord(12, (1,)))
