import itertools

import pytest

from skeinkit.braid import BraidWord, quasitoric_beta, toric


def test_toric_small_words():
    assert toric(2, 3).letters == (1, 1, 1)
    assert toric(3, 3).letters == (1, 2, 1, 2, 1, 2)
    assert toric(2, 3).strands == 2
    assert toric(2, 3).closure_component_count() == 1


def test_toric_argument_errors():
    with pytest.raises(ValueError):
        toric(1, 3)
    with pytest.raises(ValueError):
        toric(3, 0)


def test_quasitoric_words():
    assert quasitoric_beta(1, 1).letters == (1, 1, 1)
    assert quasitoric_beta(2, 1).letters == (2, -1, 2, -1, 2, -1)
    assert quasitoric_beta(3, 1).letters == (3, -2, 1, 3, -2, 1, 3, -2, 1)
    with pytest.raises(ValueError):
        quasitoric_beta(0, 1)
    with pytest.raises(ValueError):
        quasitoric_beta(2, 2)


def test_exponent_sums():
    assert quasitoric_beta(2, 1).exponent_sum() == 0
    assert quasitoric_beta(1, 1).exponent_sum() == 3
    for r in range(1, 12):
        want = 3 if r % 2 == 1 else 0
        assert quasitoric_beta(r, 1).exponent_sum() == want
        assert quasitoric_beta(r, -1).exponent_sum() == -want


def test_closure_component_counts():
    assert quasitoric_beta(2, 1).closure_component_count() == 3
    assert quasitoric_beta(1, 1).closure_component_count() == 1
    assert quasitoric_beta(3, 1).closure_component_count() == 1
    for r in range(1, 31):
        want = 3 if r % 3 == 2 else 1
        assert quasitoric_beta(r, 1).closure_component_count() == want


def test_permutation_is_cube_of_long_cycle():
    for r in range(1, 8):
        b = quasitoric_beta(r, 1)
        n = r + 1
        cycle = tuple((i + 1) % n for i in range(n))  # strand i moves up one slot
        cube = tuple(cycle[cycle[cycle[i]]] for i in range(n))
        assert b.permutation() == cube


def test_mirror():
    # the top sign -1 gives the mirror braid: every letter negated
    for r in range(1, 7):
        b = quasitoric_beta(r, 1)
        assert quasitoric_beta(r, -1) == BraidWord(b.strands, [-k for k in b.letters])


def rule_validate_quasitoric(b: BraidWord, r: int) -> bool:
    """The paper's row and column sign rules for a type-(r+1, 3) word, written out."""
    if r < 1 or b.strands != r + 1 or len(b.letters) != 3 * r:
        return False
    eps = [[0] * 3 for _ in range(r)]
    for j in range(3):
        for i in range(r):
            k = b.letters[j * r + i]
            if abs(k) != r - i:
                return False
            eps[i][j] = 1 if k > 0 else -1
    rows_constant = all(eps[i][j] * eps[i][j + 1] > 0 for i in range(r) for j in range(2))
    columns_alternate = all(eps[i][j] * eps[i + 1][j] < 0 for i in range(r - 1) for j in range(3))
    return rows_constant and columns_alternate


def test_validate_quasitoric_matches_sign_rules():
    """The words obeying the sign rules are exactly ``quasitoric_beta(r, +-1)``:
    over every sign pattern for r <= 3, and every word of the right strand
    count and length for r <= 2."""
    for r in (1, 2, 3):
        family = {quasitoric_beta(r, 1), quasitoric_beta(r, -1)}
        if r < 3:
            gens = [g for k in range(1, r + 1) for g in (k, -k)]
            words = itertools.product(gens, repeat=3 * r)
        else:
            shape = [r - i for i in range(r)] * 3
            words = (
                [s * k for s, k in zip(signs, shape)]
                for signs in itertools.product((1, -1), repeat=3 * r)
            )
        valid = 0
        for letters in words:
            b = BraidWord(r + 1, letters)
            assert rule_validate_quasitoric(b, r) == (b in family)
            valid += b in family
        assert valid == 2


def test_letter_validation():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(0, ())


def test_values_that_are_not_ints_are_refused():
    # True == 1 and 2.0 == 2, so only a type test refuses them
    with pytest.raises(ValueError, match="letter True"):
        BraidWord(2, (True, True, True))
    with pytest.raises(ValueError, match="strands"):
        BraidWord(2.0, (1,))
    with pytest.raises(ValueError, match="strands"):
        BraidWord(True, ())
    with pytest.raises(ValueError, match="letter 1.0"):
        BraidWord(2, (1.0,))
    # every word that is accepted reads back from its text form
    for b in (BraidWord(1), BraidWord(2, (1, 1, 1)), BraidWord(4, (3, -2, 1, -3))):
        assert BraidWord.parse_text(b.format_text()) == b


@pytest.mark.parametrize(
    "build, refusal",
    [
        (lambda: quasitoric_beta(True, 1), "requires an int r"),
        (lambda: quasitoric_beta(1, True), "top_sign must be"),
        (lambda: toric(2, 3.0), "toric braids need ints"),
        (lambda: toric(2.0, 3), "toric braids need ints"),
    ],
    ids=["bool-r", "bool-top-sign", "float-q", "float-p"],
)
def test_family_arguments_that_are_not_ints_are_refused(build, refusal):
    with pytest.raises(ValueError, match=refusal):
        build()


def test_text_round_trip():
    b = BraidWord(3, (2, -1, 2, -1, 2, -1))
    assert b.format_text() == "3: 2 -1 2 -1 2 -1"
    assert BraidWord.parse_text(b.format_text()) == b
    assert BraidWord.parse_text("  2:  1 1 1 ") == BraidWord(2, (1, 1, 1))
    with pytest.raises(ValueError):
        BraidWord.parse_text("1 1 1")
    with pytest.raises(ValueError):
        BraidWord.parse_text("2: x")


def test_markov_moves_helpers():
    b = BraidWord(2, (1, 1, 1))
    assert b.stabilize().strands == 3
    assert b.stabilize(False).letters[-1] == -2
    assert b.conjugate_by(1).letters == (-1, 1, 1, 1, 1)
