import itertools
import random

import pytest

from skeinkit.braid import BraidWord, quasitoric_beta, toric
from skeinkit.diagram import from_braid_closure
from skeinkit.errors import ResourceLimitError
from skeinkit.hecke import homfly_closed_braid
from skeinkit.laurent import DELTA, delta_power
from skeinkit.skein import SkeinEngine


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
        pm = homfly_closed_braid(b.mirror())
        assert pm == p.mirror_image()
        if b.closure_component_count() % 2 == 1:
            assert pm == p.substitute_v_inverse()


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


def test_strand_ceiling():
    with pytest.raises(ResourceLimitError):
        homfly_closed_braid(BraidWord(12, (1,)))
