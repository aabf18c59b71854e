"""Kauffman-bracket Jones oracle and the HOMFLYPT-to-Jones specialization.

This is the third, independent route used to cross-check both main engines:
the bracket works unoriented and corrects by writhe afterwards, so it is
immune to orientation-convention mistakes in the doubling construction's
mixed-sign bookkeeping.

The bracket is evaluated by tangle-wise contraction rather than raw state
enumeration: crossings are processed in a breadth-first order over shared
arcs, carrying a dictionary from boundary pairings to bracket coefficients,
so 24-crossing doubles contract in milliseconds.  Loop closures multiply by
(-A^2 - A^-2); the final writhe correction is (-A^3)^{-w}; the Jones
variable is a = t^(1/2) = A^-2, in which every exponent is integral.

Smoothing rules in port roles (the A-smoothing of a positive crossing is its
oriented smoothing; mirror for negative):

    sign +1:  A joins over_in~under_out, under_in~over_out
              B joins over_in~under_in,  over_out~under_out
    sign -1:  A joins over_in~under_in,  over_out~under_out
              B joins over_in~under_out, under_in~over_out
"""

from __future__ import annotations

from .diagram import LinkDiagram
from .errors import ResourceLimitError
from .laurent import LaurentPoly1, LaurentPoly2

__all__ = ["jones_via_bracket", "specialize_homfly_to_jones"]


_LOOP = LaurentPoly1({2: -1, -2: -1})  # -A^2 - A^-2
_A = LaurentPoly1.monomial(1, 1)
_A_INV = LaurentPoly1.monomial(1, -1)

# Ceiling on the live boundary pairings of one contraction.
STATE_BUDGET = 2_000_000


def _bfs_crossing_order(d: LinkDiagram) -> list:
    """Process order with small running boundary: BFS over shared arcs."""
    n = len(d.crossings)
    by_arc = {}
    for ci, c in enumerate(d.crossings):
        for arc in (c.over_in, c.over_out, c.under_in, c.under_out):
            by_arc.setdefault(arc, []).append(ci)
    seen = [False] * n
    order = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        while queue:
            ci = queue.pop(0)
            order.append(ci)
            for arc in d.crossings[ci][:4]:
                for cj in by_arc.get(arc, ()):
                    if not seen[cj]:
                        seen[cj] = True
                        queue.append(cj)
    return order


def jones_via_bracket(d: LinkDiagram) -> LaurentPoly1:
    """Jones polynomial in a = t^(1/2), by bracket contraction plus writhe.

    More than ``STATE_BUDGET`` live boundary pairings raise a resource error
    rather than grinding.
    """
    # Ends are (arc, 0) at the tail and (arc, 1) at the head; the initial
    # pairing joins each arc's two ends.  Smoothing a crossing consumes its
    # four ends, re-pairing or closing loops.
    pairing = {}
    for arc in d.arcs():
        pairing[(arc, 0)] = (arc, 1)
        pairing[(arc, 1)] = (arc, 0)

    def key_of(p):
        return tuple(sorted((a, b) for a, b in p.items() if a < b))

    states = {key_of(pairing): LaurentPoly1.monomial(1)}

    for ci in _bfs_crossing_order(d):
        c = d.crossings[ci]
        h_oi, h_oo = (c.over_in, 1), (c.over_out, 0)
        h_ui, h_uo = (c.under_in, 1), (c.under_out, 0)
        if c.sign > 0:
            choices = (
                (_A, ((h_oi, h_uo), (h_ui, h_oo))),
                (_A_INV, ((h_oi, h_ui), (h_oo, h_uo))),
            )
        else:
            choices = (
                (_A, ((h_oi, h_ui), (h_oo, h_uo))),
                (_A_INV, ((h_oi, h_uo), (h_ui, h_oo))),
            )
        new_states = {}
        for state_key, coeff in states.items():
            base = dict(state_key)
            base.update({b: a for a, b in state_key})
            for weight, joins in choices:
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
                value = coeff * weight * _LOOP**loops
                k = key_of(p)
                prev = new_states.get(k)
                new_states[k] = value if prev is None else prev + value
        states = new_states
        if len(states) > STATE_BUDGET:
            raise ResourceLimitError("bracket state budget exhausted")

    total = LaurentPoly1()
    for _, coeff in states.items():
        total = total + coeff
    total = total * _LOOP**d.free_loops
    bracket = total.exact_div(_LOOP)  # unknot normalizes to 1

    w = d.writhe()
    corrected = bracket * LaurentPoly1.monomial((-1) ** w, -3 * w)
    out = {}
    for e, coeff in corrected.terms().items():
        if e % 2:
            raise AssertionError("writhe-corrected bracket has an odd exponent")
        out[-e // 2] = coeff  # a = A^-2
    return LaurentPoly1(out)


def specialize_homfly_to_jones(p: LaurentPoly2) -> LaurentPoly1:
    """Substitute v -> a^2, z -> a - a^-1 into a HOMFLYPT value.

    Negative z-powers are resolved by clearing z-denominators first and
    dividing exactly at the end; an inexact division signals that the input
    was not a genuine link polynomial.
    """
    if p.is_zero:
        return LaurentPoly1()
    u = LaurentPoly1({1: 1, -1: -1})
    k = max(0, -p.min_z_degree())
    num = LaurentPoly1()
    for (ev, ez), c in p.terms().items():
        num = num + LaurentPoly1.monomial(c, 2 * ev) * u ** (ez + k)
    return num.exact_div(u**k)
