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
left-multiplied into one vector by Horner's rule.  No state is kept between
calls.  Letters never rewrite keys: s_j swaps two entries of ``pos``
(position -> byte index) in the expansion, g_i two entries of ``lab``
(strand -> byte value) in a trace level.

Coefficient form.  Every term of the coefficient of T_w has v-degree
e - l(w), with e the exponent sum of the letters read and l(w) the length of
w (each rule above moves both by the same amount).  So a coefficient is a
polynomial in z, kept as one int, its value at z = 2^S: a letter adds a
coefficient shifted by S bits into its partner's, in place.  Of the trace
factor delta = v^-1 z^-1 (1 - v^2), v^-1 z^-1 is taken out of each level
(the other elements are shifted by z instead), and powers of v^2 take slots
of S * width bits.  A coefficient of the result sums at most
2^(letters + 1 + (n-1)(n-2)/2) signed paths, so S >= letters + 3 +
(n-1)(n-2)/2 (rounded up to whole bytes) decodes it exactly.

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
    for q, t in vec.items():
        j = q.index(top)
        parts[j][q[:j] + q[j + 1:]] = t
    acc, lab = parts[0], list(range(top))
    for i in range(top - 1):  # acc = g_i acc + parts[i + 1]
        a, c = lab[i], lab[i + 1]
        lab[i], lab[i + 1] = c, a
        _add(acc, [(q.translate(_SWAP[a][c]), t << shift)
                   for q, t in acc.items() if q.index(a) > q.index(c)])
        into = bytes.maketrans(bytes(range(top)), bytes(lab))
        _add(acc, [(q.translate(into), t) for q, t in parts[i + 1].items()])
    back = bytes.maketrans(bytes(lab), bytes(range(top)))
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
    size = -(-(m + (n - 1) * (n - 2) // 2 + 3) // 8)  # bytes per slot
    width = m + n * (n - 1) // 2 + 1  # z-slots per power of v^2
    vec = _expand(b, 8 * size)
    for top in range(n - 1, 0, -1):
        vec = _peel(vec, top, 8 * size, 8 * size * width)
    x = sum(vec.values())
    slots = x.bit_length() // (8 * size) + 1
    zero = bytes(size - 1) + b"\x80"  # a slot holding 0, biased by half its range
    data = (x + int.from_bytes(zero * slots, "little")).to_bytes(size * slots, "little")
    ev, ez, half = b.exponent_sum() - (n - 1), -(n - 1), 1 << (8 * size - 1)
    terms = {}
    for i in range(slots):
        chunk = data[i * size:(i + 1) * size]
        if chunk != zero:
            u, a = divmod(i, width)
            terms[(ev + 2 * u, ez + a)] = int.from_bytes(chunk, "little") - half
    return LaurentPoly2(terms)
