"""Oriented planar link diagrams as combinatorial PD data.

Representation
--------------
A diagram is a tuple of crossings plus a count of crossing-free circles
(``free_loops``).  A crossing stores four arc ids and a sign:

    Crossing(over_in, over_out, under_in, under_out, sign)

Arcs are oriented edges of the underlying 4-valent graph: every arc id
occurs exactly once at an ``*_in`` port (its head) and exactly once at an
``*_out`` port (its tail).  Planarity is trusted, not verified: diagrams
arise from braid closures and the satellite constructors, which are planar
by construction; externally supplied PD codes are validated combinatorially
(port counts, orientation consistency) only.

Port convention (a repo convention; the sign disambiguates the embedding):
the text form is ``PD[X(a,b,c,d;s), ...]`` with a..d in the order
(over-in, over-out, under-in, under-out) and s in {+1, -1}.  ``L(k)``
tokens add k free loops.  Braid closures give sigma_i crossings sign +1.

All values are immutable; skein moves return fresh diagrams.
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

_PD_X_RE = re.compile(
    r"X\(\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*([+-]?1?)\s*\)"
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


class DiagramStats(NamedTuple):
    crossings: int
    seifert_circles: int
    writhe: int
    components: int
    morton_bound: int
    canonical_genus: Fraction


class LinkDiagram:
    """An oriented link diagram; immutable after construction."""

    __slots__ = ("crossings", "free_loops", "_head", "_tail", "_code")

    def __init__(self, crossings=(), free_loops: int = 0):
        crossings = tuple(
            c if isinstance(c, Crossing) else Crossing(*c) for c in crossings
        )
        if free_loops < 0:
            raise DiagramError("free_loops must be nonnegative")
        head = {}
        tail = {}
        for ci, c in enumerate(crossings):
            if c.sign not in (1, -1):
                raise DiagramError(f"crossing {ci} has sign {c.sign!r}")
            for arc, role in ((c.over_in, OVER), (c.under_in, UNDER)):
                if arc in head:
                    raise DiagramError(f"arc {arc} has two heads")
                head[arc] = (ci, role)
            for arc, role in ((c.over_out, OVER), (c.under_out, UNDER)):
                if arc in tail:
                    raise DiagramError(f"arc {arc} has two tails")
                tail[arc] = (ci, role)
        if set(head) != set(tail):
            bad = set(head).symmetric_difference(tail)
            raise DiagramError(f"arcs with a single endpoint: {sorted(bad)}")
        self.crossings = crossings
        self.free_loops = free_loops
        self._head = head
        self._tail = tail
        self._code = None

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

    def next_arc_along_strand(self, arc: int) -> int:
        ci, role = self._head[arc]
        c = self.crossings[ci]
        return c.over_out if role == OVER else c.under_out

    def next_arc_seifert(self, arc: int) -> int:
        ci, role = self._head[arc]
        c = self.crossings[ci]
        return c.under_out if role == OVER else c.over_out

    def _orbits(self, successor) -> list:
        seen = set()
        orbits = []
        for a in sorted(self._head):
            if a not in seen:
                orbit = []
                x = a
                while x not in seen:
                    seen.add(x)
                    orbit.append(x)
                    x = successor(x)
                orbits.append(orbit)
        return orbits

    def components(self) -> list:
        """Arc components ordered by their minimal arc id (free loops excluded)."""
        comps = self._orbits(self.next_arc_along_strand)
        comps.sort(key=min)
        return comps

    def component_count(self) -> int:
        return len(self.components()) + self.free_loops

    def seifert_circle_count(self) -> int:
        return len(self._orbits(self.next_arc_seifert)) + self.free_loops

    def stats(self) -> DiagramStats:
        c = len(self.crossings)
        s = self.seifert_circle_count()
        mu = self.component_count()
        genus = Fraction(2 - mu - s + c, 2)
        return DiagramStats(c, s, self.writhe(), mu, c - s + 1, genus)

    def linking_number(self, i: int, j: int) -> Fraction:
        """Half the signed count of crossings between arc components i and j.

        Components are indexed by position in ``components()`` (sorted by
        minimal arc id).  Free loops never cross anything.
        """
        comps = self.components()
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
        c = self.crossings[x]
        rest = [d for i, d in enumerate(self.crossings) if i != x]
        return _rebuild(rest, self.free_loops, [(c.over_in, c.under_out), (c.under_in, c.over_out)])

    def mirror(self) -> "LinkDiagram":
        return LinkDiagram([c.switched() for c in self.crossings], self.free_loops)

    # -- Reidemeister simplification -------------------------------------

    def simplify(self) -> tuple:
        """Exhaust crossing-reducing R1/R2 moves and extract split circles.

        Returns (diagram, removed_loops).  The resulting diagram has no
        free loops and no kinks or bigons reachable by the detectors; the
        link polynomial satisfies P(self) = delta^removed * P(diagram).
        """
        d = self
        removed = 0
        while True:
            if d.free_loops:
                removed += d.free_loops
                d = LinkDiagram(d.crossings, 0)
            move = d._find_r1() or d._find_r2()
            if move is None:
                return d, removed
            d = move()

    def _find_r1(self):
        for ci, c in enumerate(self.crossings):
            if c.over_out == c.under_in:
                return lambda ci=ci, c=c: self._apply_r1(ci, c.over_in, c.under_out)
            if c.under_out == c.over_in:
                return lambda ci=ci, c=c: self._apply_r1(ci, c.under_in, c.over_out)
        return None

    def _apply_r1(self, ci: int, arc_in: int, arc_out: int) -> "LinkDiagram":
        rest = [d for i, d in enumerate(self.crossings) if i != ci]
        return _rebuild(rest, self.free_loops, [(arc_in, arc_out)])

    def _find_r2(self):
        head = self._head
        for ci, c in enumerate(self.crossings):
            hit = head.get(c.over_out)
            if hit is None:
                continue
            dj, role = hit
            if dj == ci or role != OVER:
                continue
            d = self.crossings[dj]
            if c.under_out == d.under_in:
                # coherent bigon: both strands travel ci -> dj
                return lambda ci=ci, dj=dj, c=c, d=d: self._apply_r2(
                    ci, dj, [(c.over_in, d.over_out), (c.under_in, d.under_out)]
                )
            if d.under_out == c.under_in:
                # incoherent bigon: under strand travels dj -> ci
                return lambda ci=ci, dj=dj, c=c, d=d: self._apply_r2(
                    ci, dj, [(c.over_in, d.over_out), (d.under_in, c.under_out)]
                )
        return None

    def _apply_r2(self, ci: int, dj: int, splices: list) -> "LinkDiagram":
        rest = [d for i, d in enumerate(self.crossings) if i not in (ci, dj)]
        return _rebuild(rest, self.free_loops, splices)

    # -- split decomposition ---------------------------------------------

    def split_pieces(self) -> list:
        """Connected sub-diagrams (by shared arcs); free loops are dropped.

        Two sub-diagrams with no arcs in common are split as links, so the
        polynomial factorizes across the returned pieces.
        """
        n = len(self.crossings)
        if n == 0:
            return []
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        owner = {}
        for ci, c in enumerate(self.crossings):
            for arc in c[:4]:
                if arc in owner:
                    ra, rb = find(owner[arc]), find(ci)
                    if ra != rb:
                        parent[rb] = ra
                else:
                    owner[arc] = ci
        groups = {}
        for ci in range(n):
            groups.setdefault(find(ci), []).append(ci)
        return [
            LinkDiagram([self.crossings[i] for i in members])
            for _, members in sorted(groups.items())
        ]

    # -- descending-diagram traversal -------------------------------------

    def non_descending_crossings(self) -> list:
        """Crossings first met on their understrand, in traversal order.

        Components are walked in order of minimal arc id, starting at that
        arc.  Switching these crossings in this order makes the diagram
        descending, hence an unlink; a diagram with none is already one.
        """
        head = self._head
        crossings = self.crossings
        visited = set()
        bad = []
        for comp in self.components():
            start = comp[0]
            arc = start
            while True:
                ci, role = head[arc]
                if ci not in visited:
                    visited.add(ci)
                    if role == UNDER:
                        bad.append(ci)
                c = crossings[ci]
                arc = c.over_out if role == OVER else c.under_out
                if arc == start:
                    break
        return bad

    # -- canonical encoding ------------------------------------------------

    def canonical_code(self) -> bytes:
        """Relabeling-invariant serialization; the memo and cache key.

        Minimal lexicographic token stream over all traversal starts:
        components are walked in every admissible order, crossings labeled
        by first visit, each step emitting (label, role, sign).  Equal
        diagrams up to arc/crossing relabeling yield equal codes; no
        randomized hashing is involved.
        """
        if self._code is not None:
            return self._code
        comps = [tuple(c) for c in self.components()]
        if not comps:
            code = struct.pack(">III", self.free_loops, 0, 0)
            self._code = code
            return code
        if len(self.crossings) >= 16000:
            raise DiagramError("diagram too large to encode")

        head = self._head
        crossings = self.crossings

        def walk(start, labels, nxt):
            # labels is mutated; caller passes a scratch copy
            tokens = []
            arc = start
            while True:
                ci, role = head[arc]
                label = labels.get(ci)
                if label is None:
                    label = labels[ci] = nxt
                    nxt += 1
                c = crossings[ci]
                tokens.append((label << 2) | (role << 1) | (1 if c.sign > 0 else 0))
                arc = c.over_out if role == OVER else c.under_out
                if arc == start:
                    tokens.append(_SEPARATOR)
                    return tuple(tokens), nxt

        best = [None]

        def search(remaining, labels, nxt, prefix):
            if best[0] is not None and prefix > best[0][: len(prefix)]:
                return
            if not remaining:
                if best[0] is None or prefix < best[0]:
                    best[0] = prefix
                return
            candidates = []
            for k, comp in enumerate(remaining):
                for start in comp:
                    lab2 = dict(labels)
                    tokens, n2 = walk(start, lab2, nxt)
                    candidates.append((tokens, k, lab2, n2))
            lowest = min(c[0] for c in candidates)
            for tokens, k, lab2, n2 in candidates:
                if tokens == lowest:
                    search(remaining[:k] + remaining[k + 1 :], lab2, n2, prefix + tokens)

        search(comps, {}, 0, ())
        tokens = best[0]
        code = struct.pack(
            ">III", self.free_loops, len(self.crossings), len(tokens)
        ) + struct.pack(f">{len(tokens)}H", *tokens)
        self._code = code
        return code

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
        return LinkDiagram(crossings, loops)


def _rebuild(crossings: list, free_loops: int, merges: list) -> LinkDiagram:
    """Relabel arcs through the given merges; closed-off classes become loops."""
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in merges:
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    new_crossings = [
        Crossing(find(c.over_in), find(c.over_out), find(c.under_in), find(c.under_out), c.sign)
        for c in crossings
    ]
    present = set()
    for c in new_crossings:
        present.update((c.over_in, c.over_out, c.under_in, c.under_out))
    vanished = {find(a) for pair in merges for a in pair} - present
    return LinkDiagram(new_crossings, free_loops + len(vanished))


def from_braid_closure(b: BraidWord) -> LinkDiagram:
    """Close a braid word with all strands coherently oriented.

    The diagram has one crossing per letter, carrying the letter's sign;
    strands that no letter touches close into free loops.
    """
    n = b.strands
    current = list(range(n))
    touched = [False] * n
    crossings = []
    fresh = n
    for k in b.letters:
        p = abs(k) - 1
        left, right = current[p], current[p + 1]
        new_left, new_right = fresh, fresh + 1
        fresh += 2
        if k > 0:
            crossings.append(Crossing(left, new_right, right, new_left, 1))
        else:
            crossings.append(Crossing(right, new_left, left, new_right, -1))
        current[p], current[p + 1] = new_left, new_right
        touched[p] = touched[p + 1] = True
    loops = sum(1 for p in range(n) if not touched[p])
    merges = [(p, current[p]) for p in range(n) if touched[p]]
    return _rebuild(crossings, loops, merges)
