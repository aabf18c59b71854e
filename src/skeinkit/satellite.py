"""Doubled links, Whitehead doubles, and twist-replacement constructors.

Doubling convention
-------------------
``blackboard_double`` draws a parallel copy of the diagram pushed off to the
*left* of the orientation and reverses the copy.  Each crossing of sign e
becomes a four-crossing tangle: the two copies of the overstrand pass over
the two copies of the understrand, copy-copy and original-original crossings
keep sign e, mixed crossings flip to -e.  Crossing count quadruples, the
component count doubles, and the writhe is always 0.

With the left push-off the two components of a doubled knot diagram have
linking number ``PUSHOFF_LINKING_SIGN * m`` where m is the framing target:
the reversed copy negates the blackboard-framing linking number, so the
constant is -1.  Consequently a framing-raising full twist inserted in the
antiparallel band consists of two crossings of sign -sign(m - w(D)), and
smoothing either of them collapses the double to an unknot.

Insertion sites are deterministic: the clasp goes into the band section
carrying the copy of the base diagram's minimal arc; the framing twists go
into the overstrand ribbon inside the tangle at that arc's head crossing.
The polynomial does not depend on the sites (band twists slide along the
ribbon, through crossings included), but the Seifert-circle count does:
the tangle-interior section has both sheets on one Seifert circle, so each
full twist there adds exactly two circles and the canonical genus of the
clasped diagram stays equal to the companion's crossing number for every
framing target, as the genus identities require.

A positive clasp is two positive crossings (switching one of them must turn
the diagram into an unknot, fixing the convention empirically).

Family sign matrix
------------------
``build_K_A`` takes an r x 3 matrix of half-twist counts whose signs are
constant along rows and alternate down columns.  Such a sign matrix has one
free sign, that of the top-left entry; with every |n_ij| = 1 the closure is
``quasitoric_closure(r, that sign)``.
"""

from __future__ import annotations

from .braid import BraidWord, quasitoric_beta
from .diagram import CODE_CROSSING_LIMIT, Crossing, LinkDiagram, from_braid_closure
from .errors import DiagramError, SelfCheckError

__all__ = [
    "PUSHOFF_LINKING_SIGN",
    "blackboard_double",
    "canonical_double",
    "canonical_whitehead",
    "replace_crossing_with_half_twists",
    "build_K_A",
]

PUSHOFF_LINKING_SIGN = -1


def _double_with_map(d: LinkDiagram):
    """Doubled crossings plus the arc map a -> (a0, a1).

    a0 follows the original orientation, a1 is the reversed left push-off;
    the i-th arc of ``d.arcs()`` maps to (2i, 2i + 1).  The tangle of
    crossing ci has the internal arcs i1..i4 = 2A + 4ci + (0, 1, 2, 3), where
    A is the number of arcs of d.  They follow the per-sign wiring derived
    from the left push-off geometry (the overstrand ribbon stays on top
    throughout); i1 and i2 are the overstrand ribbon's forward and backward
    arcs, where ``_banded`` puts the framing twists.
    """
    arcs = d.arcs()
    amap = {a: (2 * i, 2 * i + 1) for i, a in enumerate(arcs)}
    fresh = 2 * len(arcs)
    crossings = []
    for c in d.crossings:
        oi0, oi1 = amap[c.over_in]
        oo0, oo1 = amap[c.over_out]
        ui0, ui1 = amap[c.under_in]
        uo0, uo1 = amap[c.under_out]
        i1, i2, i3, i4 = fresh, fresh + 1, fresh + 2, fresh + 3
        fresh += 4
        s = c.sign
        if s > 0:
            crossings += [
                Crossing(i1, oo0, ui0, i3, s),
                Crossing(oi0, i1, i4, ui1, -s),
                Crossing(oo1, i2, i3, uo0, -s),
                Crossing(i2, oi1, uo1, i4, s),
            ]
        else:
            crossings += [
                Crossing(oi0, i1, i3, uo0, s),
                Crossing(i1, oo0, uo1, i4, -s),
                Crossing(i2, oi1, ui0, i3, -s),
                Crossing(oo1, i2, i4, ui1, s),
            ]
    return crossings, amap, fresh


def blackboard_double(d: LinkDiagram) -> LinkDiagram:
    """The standard antiparallel 2-parallel of a diagram (no extra twists)."""
    crossings, _, _ = _double_with_map(d)
    return LinkDiagram._trusted(crossings, 2 * d.free_loops)


def _full_twist(sign, f_in, f_out, b_in, b_out, p, q):
    """One full twist on the antiparallel band; both crossings carry ``sign``.

    f_in -> f_out is the forward strand, b_in -> b_out the backward one, and
    p, q are the block's two fresh internal arcs.
    """
    if sign < 0:
        return [
            Crossing(q, b_out, f_in, p, -1),
            Crossing(p, f_out, b_in, q, -1),
        ]
    return [
        Crossing(f_in, p, q, b_out, 1),
        Crossing(b_in, q, p, f_out, 1),
    ]


def _clasp(sign, f_in, f_out, b_in, b_out, p, q):
    """Two crossings of ``sign`` hooking the band's folded-back fingers."""
    if sign > 0:
        return [
            Crossing(q, f_out, f_in, p, 1),
            Crossing(p, b_out, b_in, q, 1),
        ]
    return [
        Crossing(f_in, p, q, f_out, -1),
        Crossing(b_in, q, p, b_out, -1),
    ]


def _chain(blocks, f_entry, b_entry, fresh):
    """Wire ``(block, sign)`` pairs along a band: the forward strand runs from
    f_entry through the blocks left to right, the backward strand from
    b_entry right to left.  Arcs fresh, fresh + 1, ... label the new arcs:
    first the forward arc leaving each block, then the backward arc leaving
    each block, then two internal arcs per block.

    Returns (crossings, forward_exit_arc, backward_exit_arc, fresh).  Passing
    the exits as entries, ``_chain(blocks, n - 1, n, 0)`` for n blocks, closes
    the band into a loop.
    """
    n = len(blocks)
    f = [f_entry] + [fresh + i for i in range(n)]
    b = [fresh + n + i for i in range(n)] + [b_entry]
    fresh += 2 * n
    crossings = []
    for i, (block, sign) in enumerate(blocks):
        crossings += block(sign, f[i], f[i + 1], b[i + 1], b[i], fresh, fresh + 1)
        fresh += 2
    return crossings, f[n], b[0], fresh


def _insert_into_band(crossings, a0, a1, blocks, fresh):
    """Cut the band (a0 forward, a1 backward) and splice the blocks in."""
    chain, f_exit, b_exit, fresh = _chain(blocks, a0, a1, fresh)
    out = []
    for c in crossings:
        oi = f_exit if c.over_in == a0 else (b_exit if c.over_in == a1 else c.over_in)
        ui = f_exit if c.under_in == a0 else (b_exit if c.under_in == a1 else c.under_in)
        out.append(Crossing(oi, c.over_out, ui, c.under_out, c.sign))
    return out + chain, fresh


def _banded(d: LinkDiagram, m: int, blocks: list, caller: str) -> LinkDiagram:
    """The double of the knot diagram d with (m - w(D)) full twists in the
    overstrand ribbon at the minimal arc's head crossing, and then ``blocks``
    in the band section of the minimal arc.  A double too large for a
    canonical code is refused before it is built."""
    # type(.) is int: True == 1 and 2.0 == 2, but neither is a framing
    if type(m) is not int:
        raise DiagramError(f"{caller} needs an int framing, got {m!r}")
    if d.component_count() != 1:
        raise DiagramError(f"{caller} needs a knot diagram (one component)")
    k = m - d.writhe()
    size = 4 * len(d.crossings) + 2 * (abs(k) + len(blocks))
    if size >= CODE_CROSSING_LIMIT:
        raise DiagramError(
            f"{caller} would build {size} crossings; canonical codes stop at {CODE_CROSSING_LIMIT}"
        )
    twists = [(_full_twist, -1 if k > 0 else 1)] * abs(k)
    if not d.crossings:
        blocks = twists + blocks
        if not blocks:
            return LinkDiagram._trusted((), 2)
        crossings, _, _, _ = _chain(blocks, len(blocks) - 1, len(blocks), 0)
        return LinkDiagram._trusted(crossings)
    crossings, amap, fresh = _double_with_map(d)
    if twists:
        ci, _ = d.arc_head(min(d.arcs()))
        i1 = 2 * len(amap) + 4 * ci
        crossings, fresh = _insert_into_band(crossings, i1, i1 + 1, twists, fresh)
    if blocks:
        a0, a1 = amap[min(d.arcs())]
        crossings, _ = _insert_into_band(crossings, a0, a1, blocks, fresh)
    return LinkDiagram._trusted(crossings)


def canonical_double(d: LinkDiagram, m: int) -> LinkDiagram:
    """Doubled link diagram of a knot diagram with (m - w(D)) full twists."""
    return _banded(d, m, [], "canonical_double")


def canonical_whitehead(d: LinkDiagram, m: int, clasp_sign: int) -> LinkDiagram:
    """Canonical m-twisted Whitehead-double diagram with the given clasp sign."""
    if type(clasp_sign) is not int or clasp_sign not in (1, -1):
        raise DiagramError(f"clasp_sign must be +1 or -1, got {clasp_sign!r}")
    result = _banded(d, m, [(_clasp, clasp_sign)], "canonical_whitehead")
    if result.component_count() != 1:
        raise SelfCheckError("the Whitehead double is not a knot")
    return result


def replace_crossing_with_half_twists(d: LinkDiagram, crossing: int, count: int) -> LinkDiagram:
    """Replace crossing number ``crossing`` by k = |count| stacked crossings of
    its sign on the same strands; ``count`` carries that sign.

    k odd preserves the strand connectivity (k = 1 is the identity); k even
    reconnects the strands, which is what full-twist replacement means.
    The crossing is assumed braid-like (both strands coherently oriented),
    which holds for every diagram the family generators feed in.
    """
    # type(.) is int: True == 1 and 2.0 == 2, but neither is an index or a count
    if type(crossing) is not int or type(count) is not int:
        raise DiagramError(f"crossing {crossing!r} and count {count!r} must be ints")
    if not (0 <= crossing < len(d.crossings)):
        raise DiagramError(f"no crossing {crossing}")
    c = d.crossings[crossing]
    k = abs(count)
    if k < 1:
        raise DiagramError("replacement count must be at least 1")
    if (count > 0) != (c.sign > 0):
        raise DiagramError("replacement sign must match the crossing sign")
    if k == 1:
        return d
    fresh = max(d.arcs()) + 1
    s1 = [c.over_in] + [fresh + i for i in range(k - 1)]
    s2 = [c.under_in] + [fresh + k - 1 + i for i in range(k - 1)]
    if k % 2 == 1:
        s1.append(c.over_out)
        s2.append(c.under_out)
    else:
        s1.append(c.under_out)
        s2.append(c.over_out)
    stack = []
    for j in range(k):
        if j % 2 == 0:
            stack.append(Crossing(s1[j], s1[j + 1], s2[j], s2[j + 1], c.sign))
        else:
            stack.append(Crossing(s2[j], s2[j + 1], s1[j], s1[j + 1], c.sign))
    rest = [x for i, x in enumerate(d.crossings) if i != crossing]
    return LinkDiagram(rest + stack, d.free_loops)


def build_K_A(matrix) -> LinkDiagram:
    """Closure-style diagram from an r x 3 matrix of nonzero half-twist counts.

    Entry (i, j) becomes |n_ij| stacked sigma_{r-i} crossings of sign n_ij;
    signs must be constant along rows and alternate down columns.  With all
    entries of absolute value 1 this is exactly the quasitoric closure.
    """
    rows = [list(row) for row in matrix]
    r = len(rows)
    if r < 1 or any(len(row) != 3 for row in rows):
        raise DiagramError("matrix must be r x 3 with r >= 1")
    for row in rows:
        for n in row:
            if type(n) is not int or n == 0:
                raise DiagramError(f"matrix entries must be nonzero integers, got {n!r}")
    for i in range(r):
        for j in range(2):
            if rows[i][j] * rows[i][j + 1] <= 0:
                raise DiagramError("row signs must be constant (n_ij * n_ij+1 > 0)")
    for i in range(r - 1):
        for j in range(3):
            if rows[i][j] * rows[i + 1][j] >= 0:
                raise DiagramError("column signs must alternate (n_ij * n_i+1j < 0)")
    word = []
    for j in range(3):
        for i in range(r):
            n = rows[i][j]
            letter = (r - i) * (1 if n > 0 else -1)
            word += [letter] * abs(n)
    return from_braid_closure(BraidWord(r + 1, word))


def quasitoric_closure(r: int, top_sign: int = 1) -> LinkDiagram:
    """Closure diagram of the type-(r+1, 3) quasitoric braid."""
    return from_braid_closure(quasitoric_beta(r, top_sign))
