"""Oriented planar link diagrams as combinatorial PD data.

Representation
--------------
A diagram is a tuple of crossings plus a count of crossing-free circles
(``free_loops``).  A crossing stores four arc ids and a sign:

    Crossing(over_in, over_out, under_in, under_out, sign)

Arcs are oriented edges of the underlying 4-valent graph: every arc id
occurs exactly once at an ``*_in`` port (its head) and exactly once at an
``*_out`` port (its tail).  ``LinkDiagram(...)`` also checks planarity,
so a parsed PD text is checked too (``from_pd_text``).

Port convention (a repo convention; the sign disambiguates the embedding):
the text form is ``PD[X(a,b,c,d;s), ...]`` with a..d in the order
(over-in, over-out, under-in, under-out) and s in {+1, -1}.  ``L(k)``
tokens add k free loops.  Braid closures give sigma_i crossings sign +1.
Counterclockwise, the ports of a crossing come in the order (over-in,
under-in, over-out, under-out) if s = +1 and (over-in, under-out, over-out,
under-in) if s = -1.

``LinkDiagram`` values are immutable; skein moves return fresh diagrams.
Inside a move, the private working form ``_WorkingDiagram`` (a list of
plain 5-tuples with tombstones, and arc -> port maps) merges arcs in place,
so a chain of Reidemeister moves costs what the moves touch, not a rebuild
per move.  A working form is built from a ``LinkDiagram``: it copies the
diagram's head map and builds only the tail map.  The skein engine keeps
one working form per node (its switch chain: the ``skein`` module
docstring).  It switches crossings in place and smooths and reduces on a
copy: ``reduced(x)`` smooths crossing x, ``reduced()`` reduces the form as
it is, and ``lifted(arcs)`` deletes one component's crossings first.  The
form also holds its kinks and bigons, which each switch updates, so they
are carried along the node's switch chain and each copy's Reidemeister
pass starts from them.  A switch made twice restores the crossing, its
ports and both sets.  A copy returns its exact crossing tuple, which the
engine makes a ``LinkDiagram``; ``Crossing`` values are built only then,
for the crossings that moves rebuilt.

``LinkDiagram(...)`` validates its input.  A diagram that the core derives
from a valid one (a smoothing, a switch, a lift, a mirror, a ``simplify``
result, a ``split_pieces`` piece) or builds planar by construction (a braid
closure, the satellite doubles) is built by ``LinkDiagram._trusted``,
which only builds the head map and makes each plain 5-tuple a
``Crossing`` (a closure builds both as it goes, for ``_assembled``).  Its
precondition is that the crossings are 5-tuples in ``Crossing`` field
order with signs +1 or -1, that every arc is the head of exactly one port
and the tail of exactly one port, and that the diagram is planar; the
moves keep that (switching keeps each arc's ends and the embedding, a lift
erases one closed curve from the drawing, and a splice joins each strand's
run through the deleted crossings into one arc with one head and one tail,
or closes it into a loop).
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .braid import BraidWord
from .errors import DiagramError

__all__ = [
    "Crossing",
    "DiagramStats",
    "LinkDiagram",
    "from_braid_closure",
]

OVER = 0
UNDER = 1
_SEPARATOR = 0xFFFF  # closes each component walk in canonical codes
# Canonical codes refuse a diagram of this many crossings: a token packs a
# crossing label and two bits into 16 bits below the separator.
CODE_CROSSING_LIMIT = 16000
# _CCW[sign][slot]: the port slot next counterclockwise at a crossing
_CCW = {1: (2, 3, 1, 0), -1: (3, 2, 0, 1)}

_PD_X_RE = re.compile(
    r"X\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*([+-]?1)\s*\)"
)
_PD_L_RE = re.compile(r"L\(\s*(\d+)\s*\)")
_as_crossing = tuple.__new__  # (Crossing, 5-tuple) -> Crossing, without a field check


class Crossing(NamedTuple):
    over_in: int
    over_out: int
    under_in: int
    under_out: int
    sign: int

    def switched(self) -> "Crossing":
        return Crossing(self.under_in, self.under_out, self.over_in, self.over_out, -self.sign)


class _WorkingDiagram:
    """A crossing list that moves in place.

    The working form behind ``simplify``, ``smooth_crossing`` and the skein
    engine's nodes.  Its crossings are 5-tuples in ``Crossing`` field order:
    a move builds plain tuples, and ``LinkDiagram._trusted`` makes them
    ``Crossing`` values once, when a result leaves as a ``LinkDiagram``.
    Deleted crossings leave ``None`` behind, so every live crossing keeps
    its position.  ``head`` and ``tail`` map each arc to the (crossing,
    role) port where it ends and where it starts.  The one move is
    ``splice``, which deletes crossings and joins each strand's run
    through them; ``smooth`` routes the runs across its crossing, and R1,
    R2 and the lift let every strand run straight through (``_through``).
    Three rules keep the results equal to a rebuild per move, and so keep
    the arc labels that fix the skein basepoints:

    * each move is the first R1 kink by crossing position, otherwise the
      first R2 bigon;
    * a run takes the smallest id on it, the arcs it swallows included;
    * loops are counted per move: a closed run closes a loop only in the
      move that deleted its crossings.

    ``kinks`` and ``bigons`` hold the crossings that are a kink or a bigon.
    A form built from a reduced diagram starts with both empty and
    correct, and ``switch`` reclassifies the crossings it can change, so a
    skein node carries both sets along its switch chain and each
    ``reduced`` copy starts from them.
    """

    __slots__ = ("cs", "head", "tail", "kinks", "bigons")

    def __init__(self, d: "LinkDiagram"):
        # a copy of d's head map: switches and splices must not reach d
        self.cs = list(d.crossings)
        self.head = d._head.copy()
        tail = self.tail = {}
        for ci, (_, over_out, _, under_out, _) in enumerate(self.cs):
            tail[over_out] = (ci, OVER)
            tail[under_out] = (ci, UNDER)
        self.kinks = set()
        self.bigons = set()

    def splice(self, dead, runs) -> tuple:
        """Delete the crossings ``dead`` and join each strand's run through them.

        ``runs`` maps the in-arc of each pass through a dead crossing to the
        out-arc by which its strand leaves; ``splice`` consumes it.  Each
        chain of runs from an arc with a live tail to one with a live head
        becomes one arc, named by the smallest id on the chain, the arcs it
        swallows included; only the two crossings at its ends are
        relabeled.  Each closed chain is one loop.  Returns (loops, the
        crossings it deleted or relabeled).
        """
        cs, head, tail = self.cs, self.head, self.tail
        for ci in dead:
            over_in, over_out, under_in, under_out, _ = cs[ci]
            cs[ci] = None
            del head[over_in], head[under_in], tail[over_out], tail[under_out]
        touched = list(dead)
        for a in [a for a in runs if a in tail]:
            b = runs.pop(a)
            root = a if a < b else b  # the least id on the chain so far
            while b in runs:
                b = runs.pop(b)
                if b < root:
                    root = b
            ci, role = head[root] = head.pop(b)
            over_in, over_out, under_in, under_out, sign = cs[ci]
            if role == OVER and over_in != root:
                cs[ci] = (root, over_out, under_in, under_out, sign)
            elif role == UNDER and under_in != root:
                cs[ci] = (over_in, over_out, root, under_out, sign)
            cj, role = tail[root] = tail.pop(a)
            over_in, over_out, under_in, under_out, sign = cs[cj]
            if role == OVER and over_out != root:
                cs[cj] = (over_in, root, under_in, under_out, sign)
            elif role == UNDER and under_out != root:
                cs[cj] = (over_in, over_out, under_in, root, sign)
            touched += (ci, cj)
        loops = 0
        while runs:  # what is left runs in closed chains
            a, b = runs.popitem()
            while b != a:
                b = runs.pop(b)
            loops += 1
        return loops, touched

    def sign(self, x: int) -> int:
        return self.cs[x][4]

    def smooth(self, x: int) -> tuple:
        """The oriented smoothing of crossing x; returns ``splice``'s (loops, touched)."""
        over_in, over_out, under_in, under_out, _ = self.cs[x]
        return self.splice((x,), {over_in: under_out, under_in: over_out})

    def switch(self, x: int) -> bool:
        """Switch crossing x in place: one crossing and its four ports.

        A switch keeps every kink a kink (it swaps the two conditions of
        one), and it can change bigon status only at x and at the crossings
        whose strands run into x; those three are reclassified.  Returns
        whether the form has a bigon afterwards.
        """
        cs, head, tail = self.cs, self.head, self.tail
        over_in, over_out, under_in, under_out, sign = cs[x]
        cs[x] = (under_in, under_out, over_in, over_out, -sign)
        head[under_in] = (x, OVER)
        head[over_in] = (x, UNDER)
        tail[under_out] = (x, OVER)
        tail[over_out] = (x, UNDER)
        self.classify((x, tail[under_in][0], tail[over_in][0]))
        return bool(self.bigons)

    def reduced(self, x=None) -> tuple:
        """Smooth crossing x, if given, and reduce, on a copy: (crossings, removed loops).

        The crossings are the result's exact tuple, ready for a table
        lookup or ``LinkDiagram._trusted``.  Precondition: ``kinks`` and
        ``bigons`` are correct, as they are along a switch chain from a
        reduced diagram.  Then only the crossings the smoothing touched
        can change status, so ``reduce`` starts from the two sets and
        those crossings, and makes the same moves as after a scan of the
        whole diagram.  This form is left as it was.
        """
        w = self.copy()
        loops, todo = (0, ()) if x is None else w.smooth(x)
        loops += w.reduce(todo)
        return w.crossings(), loops

    def lifted(self, arcs) -> tuple:
        """Delete every crossing on ``arcs``, the arcs of one component, and
        reduce, on a copy: (crossings, removed loops).

        The skein engine lifts a component that is descending and lies
        above every other one: the link is then the split union of an
        unknot and the rest.  One ``splice`` deletes the crossings, every
        strand running straight through them.  The component closes into
        a loop, and so does any other that meets only ``arcs``.  The
        precondition is that of ``reduced``, and ``reduce`` starts from the
        crossings the splice touched.  This form is left as it was.
        """
        w = self.copy()
        dead = {w.head[a][0] for a in arcs}
        loops, touched = w.splice(dead, _through(w.cs, dead))
        loops += w.reduce(touched)
        return w.crossings(), loops

    def copy(self) -> "_WorkingDiagram":
        """A form that moves apart from this one."""
        w = _WorkingDiagram.__new__(_WorkingDiagram)
        w.cs = self.cs[:]
        w.head = self.head.copy()
        w.tail = self.tail.copy()
        w.kinks = self.kinks.copy()
        w.bigons = self.bigons.copy()
        return w

    def classify(self, indices) -> None:
        """Bring ``kinks`` and ``bigons`` up to date at the given crossings."""
        cs, head, kinks, bigons = self.cs, self.head, self.kinks, self.bigons
        for ci in indices:
            c = cs[ci]
            if c is None:
                kinks.discard(ci)
                bigons.discard(ci)
                continue
            over_in, over_out, under_in, under_out, _ = c
            if over_out == under_in or under_out == over_in:
                kinks.add(ci)
            else:
                kinks.discard(ci)
            dj, role = head[over_out]
            if role == OVER and dj != ci:
                d = cs[dj]
                if under_out == d[2] or d[3] == under_in:
                    bigons.add(ci)
                    continue
            bigons.discard(ci)

    def reduce(self, todo) -> int:
        """Apply R1/R2 moves until none is left; returns the loops they close.

        ``kinks`` and ``bigons`` must be correct at every crossing outside
        ``todo``.  The move is always the first kink by crossing position,
        otherwise the first bigon, as a scan of the whole diagram would
        find: it deletes the kink, or the bigon and the crossing at its
        over-out head.  After a move only the crossings it touched or
        deleted can change their kink or bigon status: every arc a splice
        joins into a run has lost a port, so no other crossing carries a
        relabelled arc, and ``head`` changes only at the ports the splice
        relabelled.
        """
        cs, head, kinks, bigons = self.cs, self.head, self.kinks, self.bigons
        loops = 0
        while True:
            self.classify(todo)
            if kinks:
                dead = (min(kinks),)
            elif bigons:
                ci = min(bigons)
                dead = (ci, head[cs[ci][1]][0])
            else:
                return loops
            closed, todo = self.splice(dead, _through(cs, dead))
            loops += closed

    def crossings(self) -> tuple:
        # a deleted crossing is None, a live one a nonempty tuple
        return tuple(filter(None, self.cs))


def _through(cs, dead) -> dict:
    """``splice``'s runs for deleting the crossings ``dead`` (positions in
    ``cs``) with each strand running straight through: R1, R2 and the lift."""
    runs = {}
    for ci in dead:
        over_in, over_out, under_in, under_out, _ = cs[ci]
        runs[over_in] = over_out
        runs[under_in] = under_out
    return runs


class DiagramStats(NamedTuple):
    crossings: int
    seifert_circles: int
    writhe: int
    components: int
    morton_bound: int
    canonical_genus: Fraction


class LinkDiagram:
    """An oriented link diagram; immutable after construction."""

    __slots__ = ("crossings", "free_loops", "_head", "_comps")

    def __init__(self, crossings=(), free_loops: int = 0):
        crossings = tuple(
            c if isinstance(c, Crossing) else Crossing(*c) for c in crossings
        )
        # type(.) is int: True == 1 and 1.0 == 1, but neither is an arc id or a sign
        if type(free_loops) is not int:
            raise DiagramError(f"free_loops {free_loops!r} is not an int")
        if free_loops < 0:
            raise DiagramError("free_loops must be nonnegative")
        head = {}
        tail = set()
        for ci, c in enumerate(crossings):
            if any(type(field) is not int for field in c):
                raise DiagramError(f"crossing {ci} has a field that is not an int: {tuple(c)!r}")
            over_in, over_out, under_in, under_out, sign = c
            if sign not in (1, -1):
                raise DiagramError(f"crossing {ci} has sign {sign!r}")
            if over_in in head:
                raise DiagramError(f"arc {over_in} has two heads")
            head[over_in] = (ci, OVER)
            if under_in in head:
                raise DiagramError(f"arc {under_in} has two heads")
            head[under_in] = (ci, UNDER)
            if over_out in tail:
                raise DiagramError(f"arc {over_out} has two tails")
            tail.add(over_out)
            if under_out in tail:
                raise DiagramError(f"arc {under_out} has two tails")
            tail.add(under_out)
        if head.keys() != tail:
            bad = head.keys() ^ tail
            raise DiagramError(f"arcs with a single endpoint: {sorted(bad)}")
        self.crossings = crossings
        self.free_loops = free_loops
        self._head = head
        self._comps = None
        # Planar iff every crossing-connected piece has F = c + 2 faces
        # (Euler, with 2c edges), where the faces are the orbits of "cross
        # the arc, then turn counterclockwise" on the ports.
        other = {}
        for ci, c in enumerate(crossings):
            for slot, arc in enumerate(c[:4]):
                other.setdefault(arc, []).append((ci, slot))
        other = {p: q for p, q in other.values() for p, q in ((p, q), (q, p))}
        seen = set()
        faces = 0
        for port in other:
            faces += port not in seen
            while port not in seen:
                seen.add(port)
                ci, slot = other[port]
                port = (ci, _CCW[crossings[ci].sign][slot])
        if faces != len(crossings) + 2 * len(self.split_pieces()):
            raise DiagramError(f"diagram is not planar: {faces} faces for {len(crossings)} crossings")

    @classmethod
    def _trusted(cls, crossings, free_loops: int = 0) -> "LinkDiagram":
        """A diagram derived in the core from a valid one, or planar by
        construction: only the head map is built, with none of the checks
        (precondition in the module docstring).  Each plain 5-tuple among
        the crossings becomes a ``Crossing`` here, the one place a working
        form's crossings leave."""
        crossings = tuple([c if type(c) is Crossing else _as_crossing(Crossing, c) for c in crossings])
        head = {}
        for ci, (over_in, _, under_in, _, _) in enumerate(crossings):
            head[over_in] = (ci, OVER)
            head[under_in] = (ci, UNDER)
        return cls._assembled(crossings, head, free_loops)

    @classmethod
    def _assembled(cls, crossings: tuple, head: dict, free_loops: int) -> "LinkDiagram":
        """The diagram of ``Crossing`` values and their head map, unchecked."""
        d = object.__new__(cls)
        d.crossings = crossings
        d.free_loops = free_loops
        d._head = head
        d._comps = None
        return d

    # -- elementary queries -------------------------------------------

    def arcs(self) -> tuple:
        return tuple(sorted(self._head))

    def crossing_count(self) -> int:
        return len(self.crossings)

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)

    def is_empty(self) -> bool:
        return not self.crossings and not self.free_loops

    def __eq__(self, other):
        if isinstance(other, LinkDiagram):
            return (
                self.crossings == other.crossings
                and self.free_loops == other.free_loops
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.crossings, self.free_loops))

    def __repr__(self):
        return f"LinkDiagram({len(self.crossings)} crossings, {self.free_loops} loops)"

    # -- traversal ----------------------------------------------------

    def arc_head(self, arc: int) -> tuple:
        """(crossing index, role) of the port where the arc terminates."""
        return self._head[arc]

    def _orbits(self, over_slot: int, under_slot: int) -> tuple:
        """Orbits of the step from an arc to the arc leaving its head
        crossing by ``over_slot`` if it arrived over, else ``under_slot``:
        (1, 3) follows the strands, (3, 1) the Seifert circles.  Each orbit
        starts at its smallest arc, and they come in order of that arc.
        Returns (orbits, arc -> index of its orbit)."""
        head = self._head
        crossings = self.crossings
        slots = (over_slot, under_slot)  # by role: OVER 0, UNDER 1
        index = {}
        orbits = []
        for a in sorted(head):
            if a not in index:
                k = len(orbits)
                orbit = []
                x = a
                while x not in index:
                    index[x] = k
                    orbit.append(x)
                    ci, role = head[x]
                    x = crossings[ci][slots[role]]
                orbits.append(tuple(orbit))
        return tuple(orbits), index

    def _components(self) -> tuple:
        """Arc components (free loops excluded) in ``_orbits`` order, and the
        arc -> component index map; cached."""
        if self._comps is None:
            self._comps = self._orbits(1, 3)
        return self._comps

    def component_count(self) -> int:
        return len(self._components()[0]) + self.free_loops

    def seifert_circle_count(self) -> int:
        return len(self._orbits(3, 1)[0]) + self.free_loops

    def morton_bound(self) -> int:
        """Morton's bound c - s + 1 on the z-degree of the HOMFLYPT polynomial."""
        return len(self.crossings) - self.seifert_circle_count() + 1

    def stats(self) -> DiagramStats:
        """Counts of the diagram, its Morton bound, and the genus of its Seifert
        surface, which has one part per connected part of the diagram (each
        free loop one): with k parts, (2k - mu - s + c) / 2 = (2k - mu + bound - 1) / 2."""
        c = len(self.crossings)
        bound = self.morton_bound()
        mu = self.component_count()
        k = len(self.split_pieces()) + self.free_loops
        genus = Fraction(2 * k - mu + bound - 1, 2)
        return DiagramStats(c, c + 1 - bound, self.writhe(), mu, bound, genus)

    def linking_number(self, i: int, j: int) -> Fraction:
        """Half the signed count of crossings between arc components i and j.

        Arc components are indexed in order of their minimal arc id.  Free
        loops never cross anything.
        """
        comps, owner = self._components()
        if i == j:
            raise DiagramError("self-linking is not defined")
        if not (0 <= i < len(comps) and 0 <= j < len(comps)):
            raise DiagramError(f"component index out of range: {i}, {j}")
        total = 0
        for c in self.crossings:
            pair = {owner[c.over_in], owner[c.under_in]}
            if pair == {i, j}:
                total += c.sign
        return Fraction(total, 2)

    # -- skein moves ----------------------------------------------------

    def switch_crossing(self, x: int) -> "LinkDiagram":
        """Invert over/under roles and the sign of crossing x."""
        if not (0 <= x < len(self.crossings)):
            raise DiagramError(f"no crossing {x}")
        cs = list(self.crossings)
        cs[x] = cs[x].switched()
        return LinkDiagram._trusted(cs, self.free_loops)

    def smooth_crossing(self, x: int) -> "LinkDiagram":
        """Remove crossing x by the oriented smoothing, reconnecting arcs."""
        if not (0 <= x < len(self.crossings)):
            raise DiagramError(f"no crossing {x}")
        w = _WorkingDiagram(self)
        loops, _ = w.smooth(x)
        return LinkDiagram._trusted(w.crossings(), self.free_loops + loops)

    def mirror(self) -> "LinkDiagram":
        return LinkDiagram._trusted([c.switched() for c in self.crossings], self.free_loops)

    # -- Reidemeister simplification -------------------------------------

    def simplify(self) -> tuple:
        """Exhaust crossing-reducing R1/R2 moves and extract split circles.

        Returns (diagram, removed_loops).  The resulting diagram has no
        free loops and no kinks or bigons reachable by the detectors; the
        link polynomial satisfies P(self) = delta^removed * P(diagram).
        Each move is the first R1 kink by crossing position, otherwise the
        first R2 bigon; the move order fixes the arc labels of the result.
        """
        w = _WorkingDiagram(self)
        removed = self.free_loops + w.reduce(range(len(w.cs)))
        if not removed and None not in w.cs:
            return self, 0
        return LinkDiagram._trusted(w.crossings()), removed

    # -- split decomposition ---------------------------------------------

    def split_pieces(self) -> list:
        """Crossing-connected sub-diagrams; free loops are dropped.

        Components that share a crossing belong to one piece.  Pieces share
        no arcs, so they are split as links and the polynomial factorizes
        across them.  Each piece keeps its crossings in diagram order, and
        the pieces come in order of their first crossing: the skein
        engine's child order.
        """
        comps, owner = self._components()
        if len(comps) > 1:
            crossings, head = self.crossings, self._head
            piece_of = {}  # component -> index of its piece
            pieces = []
            for c in crossings:
                k = owner[c.over_in]
                if k not in piece_of:
                    piece_of[k] = len(pieces)
                    todo = [k]
                    while todo:
                        for a in comps[todo.pop()]:
                            ci, role = head[a]
                            d = crossings[ci]
                            j = owner[d.under_in if role == OVER else d.over_in]
                            if j not in piece_of:
                                piece_of[j] = len(pieces)
                                todo.append(j)
                    pieces.append([])
                pieces[piece_of[k]].append(c)
            if len(pieces) > 1:
                return [LinkDiagram._trusted(p) for p in pieces]
        elif not comps:
            return []
        return [LinkDiagram._trusted(self.crossings)] if self.free_loops else [self]

    # -- descending-diagram traversal -------------------------------------

    def non_descending_crossings(self) -> list:
        """Crossings first met on their understrand, in traversal order.

        Components are walked in order of minimal arc id, starting at that
        arc.  Switching these crossings in this order makes the diagram
        descending, hence an unlink; a diagram with none is already one.
        """
        head = self._head
        visited = set()
        bad = []
        for comp in self._components()[0]:
            for arc in comp:
                ci, role = head[arc]
                if ci not in visited:
                    visited.add(ci)
                    if role == UNDER:
                        bad.append(ci)
        return bad

    def first_walk(self) -> tuple:
        """The arcs of the component that ``non_descending_crossings`` walks
        first, in walk order, and the set of crossings they pass."""
        arcs = self._components()[0][0]
        head = self._head
        return arcs, {head[a][0] for a in arcs}

    # -- canonical encoding ------------------------------------------------

    def canonical_code(self) -> bytes:
        """Relabeling-invariant serialization; the memo and cache key.

        Defined for a crossing-connected diagram, the only kind the skein
        engine codes; a diagram with no crossings, or split, raises
        ``DiagramError`` (``_connected_code`` returns None for a split one).

        Minimal lexicographic token stream over all traversal starts:
        components are walked in every admissible order, crossings labeled
        by first visit, each step emitting (label, role, sign) and each walk
        closed by a separator.  Equal diagrams up to arc/crossing relabeling
        yield equal codes; no randomized hashing is involved.

        The separator outranks every token, so the least stream takes the
        least walk at each level.  The first walk is searched from each
        start with the least first two tokens (the first is least at an
        over pass, of a negative crossing if any).  Each tied first walk is
        completed from the labels it gave, and every later walk is forced:
        the least first token has the least label an unwalked component
        meets, and that crossing has one unwalked pass (a walked one labeled
        it).  A walk stops once greater than the least so far or, while the
        stream is level with the best one, than that stream.
        """
        code = self._connected_code()
        if code is None:
            raise DiagramError("a split diagram has no canonical code")
        return code

    def _connected_code(self):
        """``canonical_code``, or None if the diagram is split: the first
        completion then finds no forced start.  The skein engine searches
        a whole chain result with it and splits only what it finds split."""
        crossings = self.crossings
        if len(crossings) >= CODE_CROSSING_LIMIT:
            raise DiagramError("diagram too large to encode")
        if not crossings:
            raise DiagramError("a diagram with no crossings has no canonical code")
        comps, owner = self._components()  # owner: arc -> component
        step = {}  # arc -> (crossing, role and sign bits, next arc) at its head
        for ci, c in enumerate(crossings):
            positive = c[4] > 0
            step[c[0]] = (ci, positive, c[1])
            step[c[2]] = (ci, 2 | positive, c[3])
        starts = [c[0] for c in crossings if c[4] < 0] or [c[0] for c in crossings]
        seconds = []  # each start's second token, its label taken relative to the first
        for start in starts:
            ci, _, arc = step[start]
            cj, bits, _ = step[arc]
            seconds.append(_SEPARATOR if arc == start else (cj != ci) << 2 | bits)
        least = min(seconds)
        lowest = None
        ties = []
        for start in [s for s, second in zip(starts, seconds) if second == least]:
            labels = {}
            tokens = _walk(step, labels, start, lowest)
            if tokens is None:
                continue
            if tokens != lowest:
                lowest = tokens
                ties = []
            ties.append((owner[start], labels))
        best = None
        for k, labels in ties:
            todo = set(range(len(comps))) - {k}
            best = _complete(crossings, step, owner, labels, todo, list(lowest), best)
            if best is None:
                return None
        header = struct.pack(">III", self.free_loops, len(crossings), len(best))
        return header + struct.pack(f">{len(best)}H", *best)

    # -- PD text form --------------------------------------------------

    def to_pd_text(self) -> str:
        parts = [
            f"X({c.over_in},{c.over_out},{c.under_in},{c.under_out};"
            f"{'+1' if c.sign > 0 else '-1'})"
            for c in self.crossings
        ]
        if self.free_loops:
            parts.append(f"L({self.free_loops})")
        return "PD[" + ", ".join(parts) + "]"

    @staticmethod
    def from_pd_text(text: str) -> "LinkDiagram":
        body = text.strip()
        if not (body.startswith("PD[") and body.endswith("]")):
            raise DiagramError(f"PD text must look like PD[...]: {text!r}")
        inner = body[3:-1]
        crossings = []
        loops = 0
        for m in _PD_X_RE.finditer(inner):
            a, b, c, d = (int(g) for g in m.groups()[:4])
            sign = -1 if m.group(5).startswith("-") else 1
            crossings.append(Crossing(a, b, c, d, sign))
        for m in _PD_L_RE.finditer(inner):
            loops += int(m.group(1))
        leftover = _PD_L_RE.sub("", _PD_X_RE.sub("", inner))
        if re.sub(r"[\s,]", "", leftover):
            raise DiagramError(f"unrecognized tokens in PD text: {text!r}")
        if not crossings and not loops:
            raise DiagramError(f"PD text has no crossings and no loops: {text!r}")
        return LinkDiagram(crossings, loops)


def _walk(step, labels, start, bound):
    """A ``canonical_code`` walk's tokens from arc ``start``, or None once they
    exceed ``bound``; ``labels`` (crossing -> label) takes its new crossings."""
    tokens = []
    tight = bound is not None
    arc = start
    while True:
        ci, bits, arc = step[arc]
        token = (labels.setdefault(ci, len(labels)) << 2) | bits
        if tight and token != bound[len(tokens)]:
            if token > bound[len(tokens)]:
                return None
            tight = False
        tokens.append(token)
        if arc == start:
            if tight and bound[len(tokens)] != _SEPARATOR:
                return None
            tokens.append(_SEPARATOR)
            return tokens


def _complete(crossings, step, owner, labels, todo, stream, best):
    """The least of ``best`` and the ``canonical_code`` stream that extends
    ``stream`` by forced walks, where ``stream``'s walks gave ``labels`` and
    left the components ``todo`` (all three change in place); None if the
    diagram is split, which the first completion finds: with no ``best``
    it never stops early."""
    tight = best is not None and stream == best[: len(stream)]
    j = 0  # no crossing labeled before j has a pass in todo
    while todo:
        for ci in islice(labels, j, None):
            c = crossings[ci]
            start = c[0] if owner[c[0]] in todo else c[2]
            if owner[start] in todo:
                break
            j += 1
        else:
            return None
        todo.remove(owner[start])
        tokens = _walk(step, labels, start, best[len(stream) :] if tight else None)
        if tokens is None:
            return best
        tight = tight and tokens == best[len(stream) : len(stream) + len(tokens)]
        stream += tokens
    return stream if best is None else min(best, stream)


def from_braid_closure(b: BraidWord) -> LinkDiagram:
    """Close a braid word with all strands coherently oriented.

    The diagram has one crossing per letter, carrying the letter's sign;
    strands that no letter touches close into free loops.  Each letter
    gives its two new arcs fresh ids, except that the last letter on a
    position gives its arc there the position's bottom id, which closes
    the strand.
    """
    n = b.strands
    last = {}  # position -> index of the last letter on it
    for i, k in enumerate(b.letters):
        last[abs(k) - 1] = last[abs(k)] = i
    current = list(range(n))
    crossings = []
    head = {}
    fresh = n
    for i, k in enumerate(b.letters):
        p = abs(k) - 1
        left, right = current[p], current[p + 1]
        new_left = p if last[p] == i else fresh
        new_right = p + 1 if last[p + 1] == i else fresh + 1
        fresh += 2
        if k > 0:
            c = (left, new_right, right, new_left, 1)
        else:
            c = (right, new_left, left, new_right, -1)
        crossings.append(_as_crossing(Crossing, c))
        head[c[0]], head[c[2]] = (i, OVER), (i, UNDER)
        current[p], current[p + 1] = new_left, new_right
    return LinkDiagram._assembled(tuple(crossings), head, n - len(last))
