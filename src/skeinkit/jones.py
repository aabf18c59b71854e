"""Kauffman-bracket Jones oracle and the HOMFLYPT-to-Jones specialization.

This is the third, independent route used to cross-check both main engines:
the bracket works unoriented and corrects by writhe afterwards, so it is
immune to orientation-convention mistakes in the doubling construction's
mixed-sign bookkeeping.

The bracket is evaluated by contraction on a frontier rather than by raw
state enumeration.  An arc's ends are ints, ``2*arc`` at its tail and
``2*arc + 1`` at its head.  Processing a crossing consumes its four ends; the
unconsumed ends of arcs with one end consumed form the frontier.  A state is
a perfect matching of the frontier ends, stored as the tuple of partners in
frontier order, and carries a bracket coefficient.  The next crossing is the
one with the most of its arcs open, the lowest index on ties, so each split
piece starts at its lowest crossing.  ``STATE_BUDGET`` caps the live states
(boundary pairings) at all times: it is tested after each parent state's two
children.  Loop closures multiply by (-A^2 - A^-2); the final writhe
correction is (-A^3)^{-w}; the Jones variable is a = t^(1/2) = A^-2, in which
every exponent is integral.

Coefficient form.  After j crossings a state's coefficient is A^-j Q(B) with
B = A^2, as all its exponents have the parity of j: a B-smoothing keeps Q,
an A-smoothing multiplies it by B, and each closed loop by -(B + B^-1).  Q is
kept as one int X = Q(2^S) 2^(S off), so a smoothing costs a shift, or one
small multiply and an exact shift, and a merge one int add.  The f free loops
close before the first crossing, so the first Q is (-(B + B^-1))^f.
Exactness: the component count p bounds the crossing-connected pieces plus
f.  In any state of a piece with n_i crossings the circle-crossing graph is
connected, so it has at most n_i + 1 circles.  No state closes more than
n + p loops, Q's exponents never fall below -(n + p), and with off = n + p
every right shift divides exactly.  Evaluation at 2^S is a ring homomorphism,
so the size of an intermediate int does not matter.  Every state closes a
loop (the empty diagram is refused), so X divides exactly by 2^(2S) + 1 at
the end: one loop less makes the unknot 1, and w's parity signs (-A^3)^-w.
The coefficients left are at most the sum over states of 2^loops <= 2^(2n + p)
in size, so S = 8 ceil((2n + p + 2) / 8) decodes them exactly in balanced
base-2^S digits, straight into exponents of a.

The HOMFLYPT specialization is packed the same way: its value, cleared of
z-denominators, is evaluated at a = 2^S as one int, divided once by the
int of the cleared denominator, and decoded by the bracket's digit loop.
Its slot size argument is in ``specialize_homfly_to_jones``.

Smoothing rules in port roles (the A-smoothing of a positive crossing is its
oriented smoothing; mirror for negative):

    sign +1:  A joins over_in~under_out, under_in~over_out
              B joins over_in~under_in,  over_out~under_out
    sign -1:  A joins over_in~under_in,  over_out~under_out
              B joins over_in~under_out, under_in~over_out
"""

from __future__ import annotations

from operator import itemgetter

from .diagram import LinkDiagram
from .errors import BudgetExceededError, DiagramError, SelfCheckError
from .laurent import LaurentPoly1, LaurentPoly2

__all__ = ["jones_via_bracket", "specialize_homfly_to_jones"]


# Ceiling on the live boundary pairings of one contraction.
STATE_BUDGET = 2_000_000


def _narrow_order(ends: list) -> list:
    """Crossing order: most open arcs first, the lowest index on ties."""
    at = {e: ci for ci, four in enumerate(ends) for e in four}
    open_arcs = [0] * len(ends)
    left = list(range(len(ends)))
    order = []
    while left:
        ci = max(left, key=open_arcs.__getitem__)  # first maximum: lowest index
        left.remove(ci)
        order.append(ci)
        for e in ends[ci]:
            open_arcs[at[e ^ 1]] += 1
    return order


def jones_via_bracket(d: LinkDiagram) -> LaurentPoly1:
    """Jones polynomial in a = t^(1/2), by bracket contraction plus writhe.

    More than ``STATE_BUDGET`` live states raise ``BudgetExceededError``,
    a budget SKIP in a report.
    """
    if d.is_empty():
        raise DiagramError("the empty diagram has no Jones polynomial")
    ends = [
        (2 * c.over_in + 1, 2 * c.over_out, 2 * c.under_in + 1, 2 * c.under_out)
        for c in d.crossings
    ]
    n, comps = len(ends), d.component_count()  # p of the module docstring
    off, s = n + comps, 8 * -(-(2 * n + comps + 2) // 8)
    ring = (1 << 2 * s) + 1
    weight = (None, -ring, ring * ring)  # B^k (-(B + B^-1))^k at B = 2^S
    consumed = set()
    front = []  # frontier ends, in the order of a state's partners
    states = {(): (-ring) ** d.free_loops << s * (off - d.free_loops)}

    for ci in _narrow_order(ends):
        h_oi, h_oo, h_ui, h_uo = four = ends[ci]
        # an arc first met here pairs this end with its other end
        opened = {}
        for e in four:
            if e ^ 1 not in consumed:
                opened[e] = e ^ 1
                opened[e ^ 1] = e
        consumed.update(four)
        new_front = [e for e in front if e not in consumed]
        new_front += [e for e in opened if e not in consumed]
        key_of = itemgetter(*new_front) if new_front else lambda p: ()
        a_joins, b_joins = ((h_oi, h_uo), (h_ui, h_oo)), ((h_oi, h_ui), (h_oo, h_uo))
        if d.crossings[ci].sign < 0:
            a_joins, b_joins = b_joins, a_joins
        new_states = {}
        for state_key, x in states.items():
            base = dict(zip(front, state_key))
            base.update(opened)
            for lift, joins in ((1, a_joins), (0, b_joins)):
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
                if loops:
                    value = (x * weight[loops]) >> s * (loops - lift)
                else:
                    value = x << s if lift else x
                k = key_of(p)
                new_states[k] = new_states.get(k, 0) + value
            if len(new_states) > STATE_BUDGET:
                raise BudgetExceededError("bracket state budget exhausted")
        states = new_states
        front = new_front

    w = d.writhe()
    x = states[()] // (ring if w % 2 else -ring)
    e = 2 - 2 * off - n - 3 * w  # the A-exponent of digit 0
    if e % 2:
        raise SelfCheckError("writhe-corrected bracket has an odd exponent")
    return _from_digits(x, s, -e // 2, -1)


def _from_digits(x: int, s: int, e: int, step: int) -> LaurentPoly1:
    """The polynomial whose coefficient of a^(e + step i) is the i-th
    balanced base-2^s digit of x, each digit in [-2^(s-1), 2^(s-1))."""
    terms = {}
    mask, half = (1 << s) - 1, 1 << (s - 1)
    while x:
        c = ((x + half) & mask) - half
        if c:
            terms[e] = c
        x = (x - c) >> s
        e += step
    return LaurentPoly1(terms)


def specialize_homfly_to_jones(p: LaurentPoly2) -> LaurentPoly1:
    """Substitute v -> a^2, z -> a - a^-1 into a HOMFLYPT value.

    With k = max(0, -min e_z), lo the least v-exponent and top the largest
    z-exponent, W(a) = a^(top - 2 lo) (a^2 - 1)^k V(a) is the polynomial
    sum of c a^(2(e_v - lo) + top - e_z) (a^2 - 1)^(e_z + k).  W(2^S) is
    built by Horner's rule in a^2 - 1 over the z-rows, top row first, each
    step a shift and a subtract, and divided by D(2^S) = (2^(2S) - 1)^k.

    D is monic, so W = Q D + R over Z[a] with deg R < 2k, and V is Q
    shifted by a^(2 lo - top).  Dividing by a^2 - 1 from the top keeps every
    quotient and remainder coefficient at most the 1-norm of the dividend,
    so with n = deg W the k divisions give |Q| <= |W|_1 n^(k-1) and
    |R| <= k (2n)^(k-1) |W|_1, where |W|_1 <= sum |c| 2^(top + k).  S is
    taken with 2^(S-2) above both bounds (n is over-estimated, which only
    widens the slots).  Then Q's digits fit their slots, and a nonzero R
    gives 0 < |R(2^S)| < D(2^S), as its top digit dominates, so the
    integer remainder is nonzero: the value was not a link polynomial, and
    ``SelfCheckError`` is raised.
    """
    terms = p.terms()
    if not terms:
        return LaurentPoly1()
    lo, hi = min(ev for ev, _ in terms), max(ev for ev, _ in terms)
    top, k = max(ez for _, ez in terms), max(0, -min(ez for _, ez in terms))
    n = 2 * (hi - lo + top + k)  # at least deg W
    bits = sum(map(abs, terms.values())).bit_length() + top + k
    bits += max(k - 1, 0) * (2 * n).bit_length() + k.bit_length()
    s = 8 * -(-(bits + 2) // 8)
    rows = [0] * (top + k + 1)
    for (ev, ez), c in terms.items():
        rows[top - ez] += c << s * (2 * (ev - lo) + top - ez)
    w = 0
    for row in rows:
        w = (w << 2 * s) - w + row
    q, r = divmod(w, ((1 << 2 * s) - 1) ** k)
    if r:
        raise SelfCheckError("HOMFLYPT value does not specialize to a Jones polynomial")
    return _from_digits(q, s, 2 * lo - top, 1)
