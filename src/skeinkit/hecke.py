"""Second HOMFLYPT engine for closed braids via a Hecke-quotient trace.

Shares no code path with the skein recursion: braid letters are expanded in
the positive-permutation-braid basis of the Hecke quotient and evaluated by
a Markov trace, so agreement between the two engines is strong evidence for
both.

Normalization is anchored to the skein relation rather than any external
convention: a positive generator g satisfies g^2 = v z g + v^2, which is the
positive-crossing skein applied to a braid crossing, and hence

    T_w . g_i = T_{w s_i}                       if the word grows,
    T_w . g_i = v z T_w + v^2 T_{w s_i}         if it shrinks,
    T_w . g_i^-1 = v^-2 T_{w s_i} - v^-1 z T_w  if the word grows,
    T_w . g_i^-1 = T_{w s_i}                    if it shrinks.

The trace is fixed by two calibration identities (unknots evaluate to 1 on
any strand count, and disjoint unions multiply by delta): a basis element
whose permutation fixes the top strand contributes a factor delta, and one
whose reduced word uses the top generator once loses that generator by the
Markov property with no correction factor.  With this normalization the
closure polynomial is the bare trace of the expanded word, with no global
writhe correction.

Permutations are tuples p with p[i] = final position of strand i; appending
the letter s_j post-composes with the swap of positions j, j+1.

The basis has n! elements; inputs above ``MAX_STRANDS`` (10) are refused
rather than silently thrashing memory.
"""

from __future__ import annotations

from .braid import BraidWord
from .errors import ResourceLimitError
from .laurent import DELTA, LaurentPoly2, ONE

__all__ = ["homfly_closed_braid"]

_VZ = LaurentPoly2.monomial(1, v=1, z=1)
_V2 = LaurentPoly2.monomial(1, v=2)
_VI2 = LaurentPoly2.monomial(1, v=-2)
_NEG_VIZ = LaurentPoly2.monomial(-1, v=-1, z=1)

MAX_STRANDS = 10

_trace_cache: dict = {}


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
        target = tuple(
            j + 1 if p == j else (j if p == j + 1 else p) for p in perm
        )
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


def _inversions(perm: tuple) -> int:
    n = len(perm)
    return sum(1 for i in range(n) for k in range(i + 1, n) if perm[i] > perm[k])


def _trace_basis(perm: tuple) -> LaurentPoly2:
    """Markov trace of a positive permutation braid, strand by strand."""
    n = len(perm)
    if n == 1:
        return ONE
    cached = _trace_cache.get(perm)
    if cached is not None:
        return cached
    j = perm[n - 1]
    if j == n - 1:
        value = DELTA * _trace_basis(perm[: n - 1])
    else:
        # Peel the top strand: perm = u . (s_{n-2} ... s_j) with lengths adding,
        # where u fixes the top strand; the Markov property removes g_{n-2}.
        rho_inv = list(range(n))
        rho_inv[j] = n - 1
        for k in range(j, n - 1):
            rho_inv[k + 1] = k
        u = tuple(rho_inv[p] for p in perm[: n - 1])
        assert _inversions(perm) == _inversions(u) + (n - 1 - j)
        terms = {u: ONE}
        for g in range(n - 3, j - 1, -1):
            terms = _apply_letter(terms, g, inverse=False)
        value = LaurentPoly2()
        for p, coeff in terms.items():
            value = value + coeff * _trace_basis(p)
    _trace_cache[perm] = value
    return value


def homfly_closed_braid(b: BraidWord) -> LaurentPoly2:
    """HOMFLYPT polynomial of the closure of a braid word.

    Equals the skein engine's value on ``from_braid_closure(b)`` exactly.
    Anti-parallel satellite diagrams are not closed braids and must go
    through the skein engine instead.
    """
    if b.strands > MAX_STRANDS:
        raise ResourceLimitError(
            f"{b.strands} strands would need a {b.strands}!-element basis "
            f"(ceiling is {MAX_STRANDS})"
        )
    terms = {tuple(range(b.strands)): ONE}
    for k in b.letters:
        terms = _apply_letter(terms, abs(k) - 1, inverse=k < 0)
    result = LaurentPoly2()
    for perm, coeff in terms.items():
        result = result + coeff * _trace_basis(perm)
    return result
