import re

import pytest
from hypothesis import given, settings, strategies as st

from skeinkit.errors import ZeroPolynomialError
from skeinkit.laurent import DELTA, ONE, TEXT_PATTERN, ZERO, LaurentPoly1, LaurentPoly2, delta_power

V = LaurentPoly2.monomial(1, v=1)
Z = LaurentPoly2.monomial(1, z=1)


def poly_strategy():
    term = st.tuples(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        st.integers(-9, 9),
    )
    return st.lists(term, max_size=6).map(LaurentPoly2)


def poly1_strategy():
    term = st.tuples(st.integers(-6, 6), st.integers(-9, 9))
    return st.lists(term, max_size=6).map(LaurentPoly1)


def triples(polys):
    return st.tuples(polys, polys, polys)


def min_z(p):
    return min(ez for _, ez in p.terms())


def test_add_identity_and_cancellation():
    p = LaurentPoly2({(1, 1): 1, (0, -2): 3})
    assert p + ZERO == p
    vz = LaurentPoly2.monomial(1, 1, 1)
    assert vz + LaurentPoly2.monomial(-1, 1, 1) == ZERO
    # delta + (v - v^-1) z^-1 = 0
    other = LaurentPoly2({(1, -1): 1, (-1, -1): -1})
    assert DELTA + other == ZERO


def test_mul_inverse_monomials():
    assert LaurentPoly2.monomial(1, 1, 1) * LaurentPoly2.monomial(1, -1, -1) == ONE


def test_delta_squared_z_degrees():
    d2 = DELTA * DELTA
    assert d2.max_z_degree() == -2
    assert min_z(d2) == -2


def test_delta_fifth_power_matches_binomial_expansion():
    # independent oracle: (v^-1 - v)^5 by the binomial theorem
    from math import comb

    expected = {}
    for k in range(6):
        coeff = comb(5, k) * (-1) ** k
        expected[(-(5 - k) + k, -5)] = coeff
    d5 = delta_power(5)
    assert d5 == LaurentPoly2(expected)
    assert d5.max_z_degree() == -5
    assert sorted({ev for ev, _ in d5.terms()}) == [-5, -3, -1, 1, 3, 5]


def test_delta_power_base_cases():
    assert delta_power(0) == ONE
    assert delta_power(1) == DELTA
    assert min_z(delta_power(5)) == -5
    with pytest.raises(ValueError):
        delta_power(-1)


def test_max_z_degree_errors_and_values():
    assert ONE.max_z_degree() == 0
    assert DELTA.max_z_degree() == -1
    with pytest.raises(ZeroPolynomialError):
        ZERO.max_z_degree()


def test_mirror_image_transform():
    # z-odd rows change sign, z-even rows do not
    assert DELTA.mirror_image() == DELTA
    p = LaurentPoly2({(1, 1): 1})
    assert p.mirror_image() == LaurentPoly2({(-1, 1): -1})
    q = LaurentPoly2({(2, 2): 7})
    assert q.mirror_image() == LaurentPoly2({(-2, 2): 7})


def test_format_canonical_ordering():
    p = LaurentPoly2({(1, -1): -1, (-1, -1): 1})
    assert p.format_text() == "1*v^-1*z^-1 + -1*v^1*z^-1"
    assert ZERO.format_text() == "0"


@given(poly_strategy())
@settings(max_examples=150, deadline=None)
def test_parse_format_round_trip(p):
    assert LaurentPoly2.parse_text(p.format_text()) == p


@given(poly_strategy())
@settings(max_examples=100, deadline=None)
def test_json_round_trip(p):
    terms = p.to_json_terms()
    assert LaurentPoly2([((t["v"], t["z"]), int(t["c"])) for t in terms]) == p


@given(st.one_of(triples(poly_strategy()), triples(poly1_strategy())))
@settings(max_examples=300, deadline=None)
def test_ring_axioms(pqr):
    # both key shapes share one arithmetic core
    p, q, r = pqr
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p * 1 == p
    assert p ** 2 == p * p


def test_mixed_key_shapes_refused_and_ints_coerced():
    a = LaurentPoly1({1: 1})
    for op in (
        lambda: a + DELTA,
        lambda: DELTA + a,
        lambda: a * DELTA,
        lambda: DELTA * a,
        lambda: a - a,
        lambda: 1 - DELTA,
        lambda: -a,
    ):
        with pytest.raises(TypeError):
            op()
    assert a != DELTA
    assert a + 1 == 1 + a == LaurentPoly1({1: 1, 0: 1})
    assert (a * 0).is_zero and not a * 0
    assert DELTA + 1 == LaurentPoly2({(-1, -1): 1, (1, -1): -1, (0, 0): 1})


def test_exponent_range_checked_for_both_key_shapes():
    with pytest.raises(OverflowError):
        LaurentPoly1({10**9: 1})
    with pytest.raises(OverflowError):
        LaurentPoly2({(0, -(10**9)): 1})
    assert LaurentPoly1({10**9 - 1: 1, 0: 0}).terms() == {10**9 - 1: 1}


def edge_poly_strategy():
    """Exponents anywhere inside the bound, coefficients beyond 2**64."""
    exponent = st.one_of(st.integers(-3, 3), st.integers(-(10**9 - 1), 10**9 - 1))
    coeff = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
    return st.lists(st.tuples(st.tuples(exponent, exponent), coeff), max_size=5).map(LaurentPoly2)


@given(edge_poly_strategy())
@settings(max_examples=200, deadline=None)
def test_formatted_text_is_in_the_grammar(p):
    text = p.format_text()
    assert re.fullmatch(TEXT_PATTERN, text)
    assert LaurentPoly2.parse_text(text) == p


@given(edge_poly_strategy().filter(bool), st.data())
@settings(max_examples=200, deadline=None)
def test_each_grammar_violation_is_refused(p, data):
    parts = p.format_text().split(" + ")
    i = data.draw(st.integers(0, len(parts) - 1))
    c, rest = parts[i].split("*v^")
    ev, ez = rest.split("*z^")
    padded = "-0" + ev[1:] if ev.startswith("-") else "0" + ev
    wide = data.draw(st.sampled_from(["1000000000", "-1000000000", "9999999999", "0000000001"]))

    def with_term(term):
        return " + ".join(parts[:i] + [term] + parts[i + 1 :])

    for bad in (
        with_term(f"{c}*v^{padded}*z^{ez}"),  # a leading zero
        with_term(f"{c}*v^{wide}*z^{ez}"),  # a 10-digit exponent
        with_term(f"0*v^{ev}*z^{ez} + {parts[i]}"),  # a 0* term
        with_term(f"{parts[i]}  + {parts[i]}"),  # a double space
        " + ".join(parts) + " + ",  # a trailing ' + '
    ):
        with pytest.raises(ValueError, match="not canonical polynomial text"):
            LaurentPoly2.parse_text(bad)


@given(poly_strategy(), poly_strategy())
@settings(max_examples=150, deadline=None)
def test_mirror_image_is_ring_hom(p, q):
    assert (p + q).mirror_image() == p.mirror_image() + q.mirror_image()
    assert (p * q).mirror_image() == p.mirror_image() * q.mirror_image()


@given(poly_strategy(), poly_strategy())
@settings(max_examples=150, deadline=None)
def test_max_z_degree_additive_over_products(p, q):
    # integer coefficients form an integral domain, so leading z-rows
    # cannot cancel
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).max_z_degree() == p.max_z_degree() + q.max_z_degree()
        assert min_z(p * q) == min_z(p) + min_z(q)


def test_max_z_degree_additive_on_delta_powers():
    for a in range(4):
        for b in range(4):
            assert (delta_power(a) * delta_power(b)).max_z_degree() == -(a + b) or (a + b) == 0


def test_power_and_scalars():
    assert (V + Z) ** 2 == V * V + 2 * V * Z + Z * Z
    assert 3 * V == LaurentPoly2.monomial(3, v=1)
    with pytest.raises(ValueError):
        V ** -1


def test_constants_hash_as_their_ints():
    # a constant polynomial equals its int, so dict and set lookups must
    # find one through the other, for both key shapes
    for make in (lambda k: LaurentPoly1({0: k}), LaurentPoly2.monomial):
        for k in (0, 1, -3, 12):
            p = make(k)
            assert p == k and hash(p) == hash(k)
            assert {k: "int"}.get(p) == "int"
            assert {p: "poly"}.get(k) == "poly"
    assert {1: "one"}.get(ONE) == "one" and {0: "zero"}.get(ZERO) == "zero"
    assert len({ONE, 1, LaurentPoly2.monomial(1, v=2)}) == 2


def general_product(p, q):
    """The double loop over both operands' terms, with no monomial shortcut."""
    data = {}
    for (av, az), ac in p.terms().items():
        for (bv, bz), bc in q.terms().items():
            key = (av + bv, az + bz)
            data[key] = data.get(key, 0) + ac * bc
    return LaurentPoly2(data)


def monomial_strategy():
    return st.one_of(
        st.just(ONE),
        st.builds(
            LaurentPoly2.monomial,
            st.integers(-9, 9).filter(bool),
            st.integers(-6, 6),
            st.integers(-6, 6),
        ),
    )


@given(st.one_of(monomial_strategy(), poly_strategy()), st.one_of(monomial_strategy(), poly_strategy()))
@settings(max_examples=300, deadline=None)
def test_product_equals_the_general_product(p, q):
    for pq in (p * q, q * p):
        assert pq == general_product(p, q)
        assert pq.terms() == {k: c for k, c in pq.terms().items() if c}
    if len(p.terms()) > 1:  # the shorter operand 1 returns the other one
        assert ONE * p is p and p * ONE is p and p * 1 is p


@given(
    st.lists(
        st.tuples(
            st.one_of(monomial_strategy(), poly_strategy()),
            poly_strategy(),
            poly_strategy(),
            st.sampled_from(["plain", "full", "partial"]),
        ),
        max_size=4,
    )
)
@settings(max_examples=300, deadline=None)
def test_sum_of_products_equals_the_sum(draws):
    # A "full" draw adds a pair and its negation, a "partial" one a pair
    # whose product the negation cancels only in part.
    pairs = []
    for a, b, q, kind in draws:
        pairs.append((a, b + q if kind == "partial" else b))
        if kind != "plain":
            pairs.append((a * -1, b))
    got = LaurentPoly2.sum_of_products(pairs)
    assert got == sum((a * b for a, b in pairs), ZERO)
    assert all(got.terms().values())
    if all(kind == "full" for *_, kind in draws):
        assert got == ZERO and got.is_zero


def test_coefficients_must_be_ints():
    from fractions import Fraction

    for bad in (
        lambda: LaurentPoly2({(0, 0): 0.5}),
        lambda: LaurentPoly2({(0, 0): 0.0}),
        lambda: LaurentPoly2([((1, 1), 1), ((0, 0), Fraction(1, 2))]),
        lambda: LaurentPoly2.monomial(1.0, v=1),
        lambda: LaurentPoly1({0: 1.0, 2: Fraction(1, 2)}),
    ):
        with pytest.raises(TypeError, match="is not an int"):
            bad()
    assert LaurentPoly2({(0, 0): 2**70}).format_text() == f"{2**70}*v^0*z^0"
