"""Oriented planar link diagrams as combinatorial PD data.

Representation
--------------
A diagram is a tuple of crossings plus a count of crossing-free circles
(``free_loops``).  A crossing stores four arc ids and a sign:

    Crossing(over_in, over_out, under_in, under_out, sign)

Arcs are oriented edges of the underlying 4-valent graph: every arc id
occurs exactly once at an ``*_in`` port (its head) and exactly once at an
``*_out`` port (its tail).  Diagrams built in the package (braid closures,
the satellite constructors) are planar by construction; a PD text is also
checked for planarity when it is parsed (``from_pd_text``).

Port convention (a repo convention; the sign disambiguates the embedding):
the text form is ``PD[X(a,b,c,d;s), ...]`` with a..d in the order
(over-in, over-out, under-in, under-out) and s in {+1, -1}.  ``L(k)``
tokens add k free loops.  Braid closures give sigma_i crossings sign +1.
Counterclockwise, the ports of a crossing come in the order (over-in,
under-in, over-out, under-out) if s = +1 and (over-in, under-out, over-out,
under-in) if s = -1.

``LinkDiagram`` values are immutable; skein moves return fresh diagrams.
Inside a move, the private working form ``_WorkingDiagram`` (a crossing
list with tombstones and arc -> port maps) merges arcs in place, so a
chain of Reidemeister moves costs what the moves touch, not a rebuild per
move.  The skein engine keeps one working form per node: it switches
crossings in place and smooths each bad crossing on a copy
(``_WorkingDiagram.smoothed``).

``LinkDiagram(...)`` validates its input.  A diagram that the core derives
from a valid one (a smoothing, a ``simplify`` result, a ``split_pieces``
piece) is built by ``LinkDiagram._trusted``, which only builds the head
map.  Its precondition is that the crossings are ``Crossing`` values with
signs +1 or -1, and that every arc is the head of exactly one port and the
tail of exactly one port; the moves keep that (switching keeps each arc's
ends, and a splice gives each merged class one head and one tail or closes
it into a loop).
"""

from __future__ import annotations

import re
import struct
from fractions import Fraction
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
# _CCW[sign][slot]: the port slot next counterclockwise at a crossing
_CCW = {1: (2, 3, 1, 0), -1: (3, 2, 0, 1)}

_PD_X_RE = re.compile(
    r"X\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*([+-]?1)\s*\)"
)
_PD_L_RE = re.compile(r"L\(\s*(\d+)\s*\)")


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
    engine's nodes.  Deleted crossings leave ``None`` behind, so every
    live crossing keeps its position.  ``head`` and ``tail`` map each arc
    to the (crossing, role) port where it ends and where it starts.  The
    one move is ``splice``, which relabels only the crossings that carry a
    merged arc; ``smoothed`` and ``reduce`` are made of it.  Three rules
    keep the results equal to a rebuild per move, and so keep the arc
    labels that fix the skein basepoints:

    * each move is the first R1 kink by crossing position, otherwise the
      first R2 bigon;
    * a merged arc class takes its smallest arc id;
    * loops are counted per move: a class left with no port closes a loop
      only in the move that merged it.
    """

    __slots__ = ("cs", "head", "tail")

    def __init__(self, crossings):
        self.cs = list(crossings)
        head = self.head = {}
        tail = self.tail = {}
        for ci, c in enumerate(self.cs):
            head[c.over_in] = (ci, OVER)
            head[c.under_in] = (ci, UNDER)
            tail[c.over_out] = (ci, OVER)
            tail[c.under_out] = (ci, UNDER)

    def splice(self, dead, pairs) -> tuple:
        """Delete the crossings ``dead`` and merge the arcs of each pair.

        The one or two pairs must name every arc that loses a port and
        keeps the other; arcs with both ports on ``dead`` just disappear.
        Each merged class takes its smallest arc id, and only the crossings
        that carry one of its arcs are relabeled.  A class left with no
        port closes into a loop.  Returns (loops, touched crossings).
        """
        cs, head, tail = self.cs, self.head, self.tail
        for ci in dead:
            over_in, over_out, under_in, under_out, _ = cs[ci]
            cs[ci] = None
            del head[over_in], head[under_in], tail[over_out], tail[under_out]
        if len(pairs) == 2 and not set(pairs[0]).isdisjoint(pairs[1]):
            pairs = (set(pairs[0]).union(pairs[1]),)
        loops = 0
        touched = []
        for members in pairs:
            ends = []
            starts = []
            for a in members:
                port = head.pop(a, None)
                if port is not None:
                    ends.append(port)
                port = tail.pop(a, None)
                if port is not None:
                    starts.append(port)
            if not ends and not starts:
                loops += 1
                continue
            root = min(members)
            if len(ends) != 1 or len(starts) != 1:
                raise DiagramError(f"arc {root} has {len(ends)} heads and {len(starts)} tails")
            ci, role = head[root] = ends[0]
            over_in, over_out, under_in, under_out, sign = cs[ci]
            if role == OVER and over_in != root:
                cs[ci] = Crossing(root, over_out, under_in, under_out, sign)
            elif role == UNDER and under_in != root:
                cs[ci] = Crossing(over_in, over_out, root, under_out, sign)
            cj, role = tail[root] = starts[0]
            over_in, over_out, under_in, under_out, sign = cs[cj]
            if role == OVER and over_out != root:
                cs[cj] = Crossing(over_in, root, under_in, under_out, sign)
            elif role == UNDER and under_out != root:
                cs[cj] = Crossing(over_in, over_out, under_in, root, sign)
            touched += (ci, cj)
        return loops, touched

    def _around(self, touched) -> set:
        """The touched crossings and the crossings whose over strand runs
        into one of them: the crossings whose kink or bigon status a move
        that touched them can change."""
        cs, tail = self.cs, self.tail
        near = set(touched)
        for e in touched:
            p, role = tail[cs[e].over_in]
            if role == OVER:
                near.add(p)
        return near

    def smooth(self, x: int) -> tuple:
        """The oriented smoothing of crossing x; returns (loops, touched)."""
        c = self.cs[x]
        return self.splice((x,), ((c.over_in, c.under_out), (c.under_in, c.over_out)))

    def switch(self, x: int) -> tuple:
        """Switch crossing x in place: one crossing and its four ports.

        A switch keeps every kink a kink (it swaps the two conditions of
        one), and it can change bigon status only at x and at the crossings
        whose strands run into x.  Returns those crossings.
        """
        cs, head, tail = self.cs, self.head, self.tail
        c = cs[x] = cs[x].switched()
        head[c.over_in] = (x, OVER)
        head[c.under_in] = (x, UNDER)
        tail[c.over_out] = (x, OVER)
        tail[c.under_out] = (x, UNDER)
        return x, tail[c.over_in][0], tail[c.under_in][0]

    def smoothed(self, x: int, recheck) -> tuple:
        """Smooth crossing x and reduce, on a copy: (diagram, removed loops).

        Precondition: this form was built from a reduced diagram (no kink,
        no bigon) and changed only by ``switch``, and ``recheck`` holds
        every crossing those switches returned.  Then the crossings in
        ``recheck``, the crossings the smoothing touched and their
        over-predecessors are the only ones that can be a kink or a bigon,
        so ``reduce`` starts from them and makes the same moves as after a
        scan of the whole diagram.  This form is left as it was.
        """
        w = _WorkingDiagram.__new__(_WorkingDiagram)
        w.cs = self.cs[:]
        w.head = self.head.copy()
        w.tail = self.tail.copy()
        loops, touched = w.smooth(x)
        loops += w.reduce(w._around(touched).union(recheck))
        return LinkDiagram._trusted(w.crossings()), loops

    def reduce(self, seed) -> int:
        """Apply R1/R2 moves until none is left; returns the loops they close.

        ``seed`` must hold every crossing that is a kink or a bigon now.
        The move is always the first kink by crossing position, otherwise
        the first bigon, as a scan of the whole diagram would find.  After
        a move only the crossings ``_around`` the touched ones can change
        their kink or bigon status.
        """
        cs, head = self.cs, self.head
        kinks = set()
        bigons = set()

        def classify(indices):
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
                    if under_out == d.under_in or d.under_out == under_in:
                        bigons.add(ci)
                        continue
                bigons.discard(ci)

        classify(seed)
        loops = 0
        while kinks or bigons:
            if kinks:
                ci = min(kinks)
                c = cs[ci]
                dead = (ci,)
                if c.over_out == c.under_in:
                    pairs = ((c.over_in, c.under_out),)
                else:
                    pairs = ((c.under_in, c.over_out),)
            else:
                ci = min(bigons)
                c = cs[ci]
                dj = head[c.over_out][0]
                d = cs[dj]
                dead = (ci, dj)
                if c.under_out == d.under_in:
                    # coherent bigon: both strands travel ci -> dj
                    pairs = ((c.over_in, d.over_out), (c.under_in, d.under_out))
                else:
                    # incoherent bigon: under strand travels dj -> ci
                    pairs = ((c.over_in, d.over_out), (d.under_in, c.under_out))
            closed, touched = self.splice(dead, pairs)
            loops += closed
            again = self._around(touched)
            again.update(dead)
            classify(again)
        return loops

    def crossings(self) -> list:
        return [c for c in self.cs if c is not None]


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
        if free_loops < 0:
            raise DiagramError("free_loops must be nonnegative")
        head = {}
        tail = set()
        for ci, (over_in, over_out, under_in, under_out, sign) in enumerate(crossings):
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

    @classmethod
    def _trusted(cls, crossings, free_loops: int = 0) -> "LinkDiagram":
        """A diagram derived in the core from a valid one: only the head map
        is built, with none of the checks (precondition in the module
        docstring)."""
        d = object.__new__(cls)
        crossings = tuple(crossings)
        head = {}
        for ci, (over_in, _, under_in, _, _) in enumerate(crossings):
            head[over_in] = (ci, OVER)
            head[under_in] = (ci, UNDER)
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
        starts at its smallest arc, and they come in order of that arc."""
        head = self._head
        crossings = self.crossings
        seen = set()
        orbits = []
        for a in sorted(head):
            if a not in seen:
                orbit = []
                x = a
                while x not in seen:
                    seen.add(x)
                    orbit.append(x)
                    ci, role = head[x]
                    x = crossings[ci][over_slot if role == OVER else under_slot]
                orbits.append(tuple(orbit))
        return tuple(orbits)

    def _components(self) -> tuple:
        """Arc components (free loops excluded), cached; ``_orbits`` order."""
        if self._comps is None:
            self._comps = self._orbits(1, 3)
        return self._comps

    def component_count(self) -> int:
        return len(self._components()) + self.free_loops

    def seifert_circle_count(self) -> int:
        return len(self._orbits(3, 1)) + self.free_loops

    def stats(self) -> DiagramStats:
        c = len(self.crossings)
        s = self.seifert_circle_count()
        mu = self.component_count()
        genus = Fraction(2 - mu - s + c, 2)
        return DiagramStats(c, s, self.writhe(), mu, c - s + 1, genus)

    def linking_number(self, i: int, j: int) -> Fraction:
        """Half the signed count of crossings between arc components i and j.

        Arc components are indexed in order of their minimal arc id.  Free
        loops never cross anything.
        """
        comps = self._components()
        if i == j:
            raise DiagramError("self-linking is not defined")
        if not (0 <= i < len(comps) and 0 <= j < len(comps)):
            raise DiagramError(f"component index out of range: {i}, {j}")
        owner = {}
        for idx, comp in enumerate(comps):
            for a in comp:
                owner[a] = idx
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
        return LinkDiagram(cs, self.free_loops)

    def smooth_crossing(self, x: int) -> "LinkDiagram":
        """Remove crossing x by the oriented smoothing, reconnecting arcs."""
        if not (0 <= x < len(self.crossings)):
            raise DiagramError(f"no crossing {x}")
        w = _WorkingDiagram(self.crossings)
        loops, _ = w.smooth(x)
        return LinkDiagram._trusted(w.crossings(), self.free_loops + loops)

    def mirror(self) -> "LinkDiagram":
        return LinkDiagram([c.switched() for c in self.crossings], self.free_loops)

    # -- Reidemeister simplification -------------------------------------

    def simplify(self) -> tuple:
        """Exhaust crossing-reducing R1/R2 moves and extract split circles.

        Returns (diagram, removed_loops).  The resulting diagram has no
        free loops and no kinks or bigons reachable by the detectors; the
        link polynomial satisfies P(self) = delta^removed * P(diagram).
        Each move is the first R1 kink by crossing position, otherwise the
        first R2 bigon; the move order fixes the arc labels of the result.
        """
        w = _WorkingDiagram(self.crossings)
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
        comps = self._components()
        if len(comps) > 1:
            crossings, head = self.crossings, self._head
            owner = {a: k for k, comp in enumerate(comps) for a in comp}
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
        for comp in self._components():
            for arc in comp:
                ci, role = head[arc]
                if ci not in visited:
                    visited.add(ci)
                    if role == UNDER:
                        bad.append(ci)
        return bad

    # -- canonical encoding ------------------------------------------------

    def canonical_code(self) -> bytes:
        """Relabeling-invariant serialization; the memo and cache key.

        Minimal lexicographic token stream over all traversal starts:
        components are walked in every admissible order, crossings labeled
        by first visit, each step emitting (label, role, sign).  Equal
        diagrams up to arc/crossing relabeling yield equal codes; no
        randomized hashing is involved.

        The search is bounded without changing its result: a walk stops
        as soon as it is greater than the lowest walk found so far at its
        level, or, while the prefix runs level with the best complete
        stream, greater than that stream.
        """
        comps = self._components()
        if not comps:
            return struct.pack(">III", self.free_loops, 0, 0)
        if len(self.crossings) >= 16000:
            raise DiagramError("diagram too large to encode")

        crossings = self.crossings
        step = {}  # arc -> (crossing, role and sign bits, next arc)
        for arc, (ci, role) in self._head.items():
            c = crossings[ci]
            step[arc] = (
                ci,
                (role << 1) | (1 if c.sign > 0 else 0),
                c.over_out if role == OVER else c.under_out,
            )
        labels = [-1] * len(crossings)

        def walk(start, nxt, bound):
            # The walk's tokens and newly labeled crossings, or None once it
            # exceeds ``bound``.  Leaves ``labels`` as it found them.
            tokens = []
            new = []
            tight = bound is not None
            found = None
            arc = start
            while True:
                ci, bits, arc = step[arc]
                label = labels[ci]
                if label < 0:
                    label = labels[ci] = nxt + len(new)
                    new.append(ci)
                token = (label << 2) | bits
                if tight and token != bound[len(tokens)]:
                    if token > bound[len(tokens)]:
                        break
                    tight = False
                tokens.append(token)
                if arc == start:
                    if not tight or bound[len(tokens)] == _SEPARATOR:
                        tokens.append(_SEPARATOR)
                        found = (tuple(tokens), new)
                    break
            for ci in new:
                labels[ci] = -1
            return found

        best = None

        def search(remaining, nxt, prefix):
            nonlocal best
            # Every walk of a level is bounded by the best stream found so
            # far, so a prefix never exceeds the best stream's prefix: it is
            # level with it (and bounded by its rest) or already lower.
            bound = None
            if best is not None and prefix == best[: len(prefix)]:
                bound = best[len(prefix) :]
            if not remaining:
                if best is None or prefix < best:
                    best = prefix
                return
            lowest = None
            ties = []
            for k, comp in enumerate(remaining):
                for start in comp:
                    limit = bound if lowest is None else lowest
                    if limit is not None:
                        # most walks lose on their first token: test it inline
                        ci, bits, _ = step[start]
                        label = labels[ci]
                        if (((nxt if label < 0 else label) << 2) | bits) > limit[0]:
                            continue
                    found = walk(start, nxt, limit)
                    if found is None:
                        continue
                    tokens, new = found
                    if tokens != lowest:
                        lowest = tokens
                        ties = []
                    ties.append((k, new))
            for k, new in ties:
                for i, ci in enumerate(new):
                    labels[ci] = nxt + i
                search(remaining[:k] + remaining[k + 1 :], nxt + len(new), prefix + lowest)
                for ci in new:
                    labels[ci] = -1

        search(comps, 0, ())
        tokens = best
        return struct.pack(
            ">III", self.free_loops, len(self.crossings), len(tokens)
        ) + struct.pack(f">{len(tokens)}H", *tokens)

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
        d = LinkDiagram(crossings, loops)
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
        if faces != len(crossings) + 2 * len(d.split_pieces()):
            raise DiagramError(
                f"PD code is not planar: {faces} faces for {len(crossings)} crossings"
            )
        return d


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
    fresh = n
    for i, k in enumerate(b.letters):
        p = abs(k) - 1
        left, right = current[p], current[p + 1]
        new_left = p if last[p] == i else fresh
        new_right = p + 1 if last[p + 1] == i else fresh + 1
        fresh += 2
        if k > 0:
            crossings.append(Crossing(left, new_right, right, new_left, 1))
        else:
            crossings.append(Crossing(right, new_left, left, new_right, -1))
        current[p], current[p + 1] = new_left, new_right
    return LinkDiagram(crossings, n - len(last))
