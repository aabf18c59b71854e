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

Vector trace.  The expanded word is a vector {q: coefficient}, with q a
permutation stored as bytes, q[i] = the strand that ends at position i.  Its
trace is taken for the whole vector, one strand at a time.  Elements that
fix the top strand drop it and take the factor delta.  One whose top strand
ends at j < top is T_u g_{top-1} ... g_j with u fixing the top strand; Markov
removes g_{top-1}, and as tr(T_u X) = tr(X T_u) the groups j = 0, 1, ... are
left-multiplied into one vector by Horner's rule.  Letters never rewrite
keys: s_j swaps two entries of ``pos`` (position -> byte index) in the
expansion, and in a trace level the accumulator keeps each strand under a
label (a byte value) that g_i swaps with its neighbour's.  Step i of a
level always swaps the labels 0 and i + 1, so the labels after each step
depend only on the level and the step.

Coefficient form.  Every term of the coefficient of T_w has v-degree
e - l(w), with e the exponent sum of the letters read and l(w) the length of
w (each rule above moves both by the same amount).  So a coefficient is a
polynomial in z, kept as one int, its value at z = 2^S: a letter adds a
coefficient shifted by S bits into its partner's, in place.  Of the trace
factor delta = v^-1 z^-1 (1 - v^2), v^-1 z^-1 is taken out of each level
(the other elements are shifted by z instead), and powers of v^2 take slots
of S * width bits.  A coefficient of the result sums at most
2^(letters + 1 + (n-1)(n-2)/2) signed paths, so S >= letters + 3 +
(n-1)(n-2)/2 (rounded up to whole bytes) decodes it exactly.  The decode
shifts x down from slot to slot, jumping over runs of zero slots by the
lowest set bit, and reads each slot as a signed S-bit digit.

Tables built at import, all constants: ``_SWAP``, the byte swaps of the
expansion and the Horner steps, and ``_INTO`` and ``_BACK``, for each
level the translations from strands to the labels after each step and
from the final labels back (45 tables for ``MAX_STRANDS`` = 10).  No state
is kept between calls, and nothing is cached.

The basis has n! elements; an input above ``MAX_STRANDS`` (10) strands
raises ``BudgetExceededError``, a budget SKIP in a report, rather than
silently thrashing memory.
"""

from __future__ import annotations

from operator import itemgetter

from .braid import BraidWord
from .errors import BudgetExceededError
from .laurent import LaurentPoly2

__all__ = ["homfly_closed_braid"]

MAX_STRANDS = 10

# _SWAP[a][b] exchanges the byte values a and b.
_SWAP = [[bytes.maketrans(bytes((a, b)), bytes((b, a))) for b in range(MAX_STRANDS)]
         for a in range(MAX_STRANDS)]


def _label(top: int, i: int) -> bytes:
    """The labels of strands 0, ..., top - 1 after Horner step i of the
    level that peels strand ``top``: 1, ..., i + 1, 0, i + 2, ..., top - 1."""
    return bytes((*range(1, i + 2), 0, *range(i + 2, top)))


# _INTO[top][i] relabels group i + 1 as the accumulator is labelled after
# step i; _BACK[top] takes the labels after the last step back to strands.
_INTO = {top: [bytes.maketrans(bytes(range(top)), _label(top, i)) for i in range(top - 1)]
         for top in range(1, MAX_STRANDS)}
_BACK = {top: bytes.maketrans(_label(top, top - 2), bytes(range(top))) for top in range(1, MAX_STRANDS)}


def _add(vec: dict, items: list) -> None:
    """Add (key, coefficient) pairs into ``vec`` in place, dropping zeros."""
    for q, t in items:
        t += vec.get(q, 0)
        if t:
            vec[q] = t
        else:
            del vec[q]


def _expand(b: BraidWord, shift: int) -> dict:
    """The vector of T_1 g_{k_1} ... g_{k_m}, keyed by permutation."""
    n = b.strands
    vec = {bytes(range(n)): 1}
    pos = list(range(n))
    for k in b.letters:
        j = abs(k) - 1
        p, r = pos[j], pos[j + 1]
        pos[j], pos[j + 1] = r, p
        if k > 0:  # w s_j shorter: its partner gains v z T_w
            _add(vec, [(q.translate(_SWAP[q[p]][q[r]]), t << shift)
                       for q, t in vec.items() if q[p] > q[r]])
        else:  # w s_j longer: its partner gains -v^-1 z T_w
            _add(vec, [(q.translate(_SWAP[q[p]][q[r]]), -(t << shift))
                       for q, t in vec.items() if q[p] < q[r]])
    if pos != sorted(pos):
        get = itemgetter(*pos)
        vec = {bytes(get(q)): t for q, t in vec.items()}
    return vec


def _peel(vec: dict, top: int, shift: int, ushift: int) -> dict:
    """Trace out strand ``top``, times v z: a vector on one strand fewer."""
    parts = [{} for _ in range(top + 1)]
    strand = bytes((top,))
    for q, t in vec.items():
        parts[q.index(top)][q.translate(None, strand)] = t
    acc, into = parts[0], _INTO[top]
    for i in range(top - 1):  # acc = g_i acc + parts[i + 1]: labels 0 and i + 1 swap
        c = i + 1
        swap, label = _SWAP[0][c], into[i]
        _add(acc, [(q.translate(swap), t << shift) for q, t in acc.items() if q.index(0) > q.index(c)]
             + [(q.translate(label), t) for q, t in parts[c].items()])
    back = _BACK[top]
    out = {q.translate(back): t << shift for q, t in acc.items()}
    _add(out, [(q, t - (t << ushift)) for q, t in parts[top].items()])
    return out


def homfly_closed_braid(b: BraidWord) -> LaurentPoly2:
    """HOMFLYPT polynomial of the closure of a braid word.

    Equals the skein engine's value on ``from_braid_closure(b)`` exactly.
    Anti-parallel satellite diagrams are not closed braids and must go
    through the skein engine instead.
    """
    n = b.strands
    if n > MAX_STRANDS:
        raise BudgetExceededError(
            f"{n} strands would need a {n}!-element basis (ceiling is {MAX_STRANDS})"
        )
    m = len(b.letters)
    bits = 8 * -(-(m + (n - 1) * (n - 2) // 2 + 3) // 8)  # bits per slot
    width = m + n * (n - 1) // 2 + 1  # z-slots per power of v^2
    vec = _expand(b, bits)
    for top in range(n - 1, 0, -1):
        vec = _peel(vec, top, bits, bits * width)
    x = sum(vec.values())
    mask, full = (1 << bits) - 1, 1 << bits
    ev, ez, half = b.exponent_sum() - (n - 1), -(n - 1), full >> 1
    terms = {}
    i = 0  # the slot at the bottom of x
    while x:
        zeros = ((x & -x).bit_length() - 1) // bits  # zero slots below the next term
        x >>= zeros * bits
        i += zeros
        t = x & mask
        if t >= half:
            t -= full
        x = (x - t) >> bits
        u, a = divmod(i, width)
        terms[(ev + 2 * u, ez + a)] = t
        i += 1
    return LaurentPoly2._raw(terms)  # normalized: one nonzero term per key, |exponents| < m + n^2
