"""Memoized descending-diagram skein engine for HOMFLYPT polynomials.

Algorithm: simplify (R1/R2 plus split-circle extraction), factor the diagram
into crossing-connected pieces (disjoint pieces multiply, with one delta per
extra piece), and recurse.  A crossing-free diagram with k loops is delta^(k-1).
Otherwise components are walked in order of minimal arc id from deterministic
basepoints, and every crossing first met on its understrand is bad.  Each bad
crossing is resolved by the skein relation at the current sign (earlier bad
crossings already switched):

    positive x:  P(d) = v^2  P(switched) + v z    P(smoothed)
    negative x:  P(d) = v^-2 P(switched) - v^-1 z P(smoothed)

Switching never changes the traversal, so the whole switch chain of one
diagram unrolls in a single node (``_chain``), and its children are the
smoothed diagrams, each one crossing smaller.  The chain's end, with the
chain's prefix as its coefficient, is one more term.  With all bad
crossings switched the diagram is descending, hence an unlink of mu
components: the end is the empty diagram that shed mu loops, worth
delta^(mu-1), and a node with no bad crossings has this term alone.  But a
switch that leaves an R2 bigon while bad crossings remain ends the chain
early: the end is the switched diagram, reduced, the node's last child.
R2 preserves P, and that child is at least two crossings smaller.
Recursion therefore descends strictly in crossing count, which makes the
memo DAG acyclic and termination unconditional.

A node with two or more bad crossings first probes them in traversal
order, switching each and back, and the first whose switch alone leaves a
bigon ends the chain at once.  The node then has just two terms: that
crossing's smoothing and the reduced switched diagram.  The order is free:
the skein relation holds at any crossing, and switching every bad
crossing, in any order, leaves the same descending diagram.  The smoothing
is taken on the switched form, which gives the crossings of the unswitched
one: the oriented smoothing routes the same runs either way, and the
switch reclassified the crossings whose kink or bigon status depended on
the crossing, its tail neighbours.  Both children are smaller, by one and
two crossings, so the memo DAG stays acyclic.

Otherwise, in a piece with bad crossings off its first component, the
chain ends once the first component's own bad crossings are switched.
They come first in traversal order: its self-crossings first met under,
and its crossings under other components.  That component is then
descending and lies above every other one, so it bounds a disc in a plane
above the rest: the link is the split union of an unknot and the rest,
and P = delta * P(rest).  The end is the rest, the switched diagram with
every crossing of the first component deleted and the other strands
merged through them (``_WorkingDiagram.lifted``), with one more removed
loop.  The rest loses at least one crossing, since the piece is
crossing-connected, so the memo DAG stays acyclic.  A piece whose first
component has no bad crossing has the lifted term alone, and the other
components' bad crossings, one smoothing child each, are never reached.

Each node builds one working form of its piece (``diagram._WorkingDiagram``,
which copies the piece's head map).  The chain switches its crossings in
that form in place, one crossing and four ports per switch, and each bad
crossing is smoothed and simplified on a copy (``reduced(x)``).  The piece
is already reduced, a switch keeps every kink a kink, and a switch changes
bigon status only at the switched crossing and at the crossings whose
strands run into it.  So the form carries its kink and bigon sets along the
chain, each switch reclassifies just those crossings and tells whether a
bigon is left, and the copy's Reidemeister pass starts from the sets and
from the crossings the smoothing touched, not from a scan of every
crossing.  It makes the same moves in the same order: the arc labels, the
children and the node counts are those of a full scan.  The reduced end of
a chain is a copy too, reduced from the sets alone (``reduced()``).

Every piece is a ``LinkDiagram``: each chain result becomes one where it
is made, and the simplified root enters ``_decompose`` as the diagram that
``simplify`` returned, so a root that does not reduce keeps the component
walk it already holds.  An empty result is a diagram with no pieces.

The pieces of a diagram come in order of their first crossing, each with
its crossings in diagram order (``LinkDiagram.split_pieces``), and become
children in that order.  Pieces with one canonical code share one memo
entry, but only the copy that is expanded first is walked: its arc labels
fix the basepoints, the bad crossings and the smoothings below it.  So the
piece order fixes the node and memo-hit counts, though not the polynomial.

Results are memoized on the canonical code of each simplified piece, and the
memo can persist to a disk cache between runs (line format: ``code-hex TAB
canonical-polynomial-text``).  The same labelled piece recurs among the
children of different nodes, so the engine also keeps a table from a piece's
exact crossing tuple (never a hash of it) to its canonical code.  Each
result asks it once, for the whole diagram.  On a miss the whole diagram is
searched, and the search, whose forced walks fail on a split diagram, also
tells whether it is one piece.  Split results are rare (none in a
satellite-cold pass of the benchmark, 27 of about 36,000 results at r = 3):
only they go to ``split_pieces``, and each piece is searched in turn.  The
table is cleared whenever it reaches ``_CODE_TABLE_CAP`` entries, which
bounds its memory; a miss only costs the search again.

``load_cache`` accepts only the lines ``save_cache`` writes, each ended by
its newline, and any other line (a blank one, one with surrounding space, a
last line cut short) raises ``CacheCorruptionError`` with its line number.
A run reads few of the entries it loads, so an entry stays text in the memo
until ``SkeinEngine.value`` first reads and parses it, and a save writes an
entry never read back as the text it was read as.  A check on each cache
entry (the Morton bound and parity of its decoded diagram) belongs in
``value``, where the entry is first read.

Each ``homfly()`` call resolves its pieces in one loop on an explicit
stack, so deep skein trees cannot overflow the interpreter stack.  An
entry is (code, piece, terms).  A pop whose code is already memoized is a
memo hit, and the hit count counts these pops.  Any other entry without
terms is expanded: it goes back with the terms its chain makes, each
result split into pieces, and those pieces go on top.  The entries above
it are then its descendants, with fewer crossings, so none shares its
code; when it is next on top every child is memoized, and its terms are
summed.  So a node's value is written once, under a code the memo lacked:
no entry is ever overwritten, and only ``load_cache``, where one code can
come twice, checks two values of a code against each other.  Identical
inputs yield identical polynomials regardless of the memo hit pattern.
The node budget, like the wall budget, bounds one ``homfly()`` call.
"""

from __future__ import annotations

import functools
import os
import re
import time

from .diagram import LinkDiagram, _WorkingDiagram
from .errors import BudgetExceededError, CacheCorruptionError, DiagramError, SelfCheckError
from .laurent import TEXT_PATTERN, LaurentPoly2, delta_power

__all__ = ["SkeinEngine"]

# Every coefficient of a switch chain is a monomial.  After the switches of
# p positive and n negative crossings the chain's prefix is v^k, k = 2(p - n),
# and the next bad crossing, of sign s, adds s v^(k+s) z times its smoothing.
# Polynomials are immutable, so one cached monomial serves every chain; |k|
# is at most twice the crossing count, which keeps the cache small.
_monomial = functools.lru_cache(maxsize=None)(LaurentPoly2.monomial)

# Entries in the crossings -> canonical code table before it is cleared.  A
# satellite-cold pass of the benchmark (seed 7) makes 1,069 code searches
# and 140 table hits; with no cap it would make 1,066 and 143.  The
# exhaustive engine-agreement report of ``verify --suite all`` makes 1,181
# searches on a cold engine, against 1,098 with no cap: about 1 ms.  The
# clear frees about 1k crossing tuples, about 0.3 ms, inside whichever item
# fills the table.
_CODE_TABLE_CAP = 1024

# A cache line as ``save_cache`` writes it, once its hex is of even length:
# lowercase hex, a TAB, and canonical polynomial text.  The length is tested
# apart: matching hex digits in pairs takes the regex twice as long.
_LINE = re.compile(rf"([0-9a-f]+)\t({TEXT_PATTERN})")


class SkeinEngine:
    """HOMFLYPT evaluator with a persistent, conflict-checked memo table."""

    def __init__(self, node_budget: int = 10**8, wall_seconds=None, cache_path=None):
        self.node_budget = node_budget
        self.wall_seconds = wall_seconds
        self.cache_path = cache_path
        self.memo = {}
        self._codes = {}  # exact crossing tuple of a piece -> its canonical code
        self.nodes_expanded = 0
        self.memo_hits = 0
        self.preloaded = 0
        if cache_path and os.path.exists(cache_path):
            self.load_cache(cache_path)

    # -- cache ----------------------------------------------------------

    def load_cache(self, path) -> int:
        count = 0
        # A byte that is not ASCII decodes to U+FFFD, which no field accepts.
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            for lineno, line in enumerate(fh, 1):
                # Only the final newline is cut: a line without one was cut short.
                m = line[-1:] == "\n" and _LINE.fullmatch(line, 0, len(line) - 1)
                if not m or len(m[1]) % 2:
                    raise CacheCorruptionError(f"{path}: bad cache line {lineno}: {line!r}")
                code, text = bytes.fromhex(m[1]), m[2]
                old = self.memo.get(code)
                if old is None:
                    self.memo[code] = text
                # A duplicate code: its two texts are parsed only when they differ.
                elif old != text and self.value(code) != LaurentPoly2.parse_text(text):
                    raise CacheCorruptionError("memo entry conflict for a canonical code")
                count += 1
        self.preloaded += count
        return count

    def save_cache(self, path=None) -> int:
        path = path or self.cache_path
        if path is None:
            raise ValueError("no cache path configured")
        lines = sorted(
            f"{code.hex()}\t{p if isinstance(p, str) else p.format_text()}\n"
            for code, p in self.memo.items()
        )
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="ascii") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
        return len(lines)

    def counters(self) -> dict:
        return {
            "nodes": self.nodes_expanded,
            "memo_hits": self.memo_hits,
            "memo_size": len(self.memo),
            "preloaded": self.preloaded,
        }

    def value(self, code: bytes) -> LaurentPoly2:
        """The memo value of ``code``; a loaded line is parsed on its first read."""
        value = self.memo[code]
        if isinstance(value, str):
            value = self.memo[code] = LaurentPoly2.parse_text(value)
        return value

    # -- evaluation -------------------------------------------------------

    def homfly(self, d: LinkDiagram) -> LaurentPoly2:
        """The HOMFLYPT polynomial of the link of d."""
        if d.is_empty():
            raise DiagramError("the empty diagram has no HOMFLYPT polynomial")
        t0 = time.monotonic()
        core, removed = d.simplify()
        exponent, pieces = _decompose(core, removed, self._codes)
        self._resolve(pieces, t0)
        result = self._product(exponent, pieces)
        _self_check(d, result)
        return result

    def _product(self, exponent: int, pieces) -> LaurentPoly2:
        """delta^exponent times the memo values of ``pieces``, (code, piece)
        pairs as ``_decompose`` returns them."""
        result = delta_power(exponent)
        for code, _ in pieces:
            result = result * self.value(code)
        return result

    def _resolve(self, pieces, t0: float) -> None:
        """Evaluate ``pieces``, (code, piece) pairs as ``_decompose`` returns
        them, into the memo; ``t0`` is when homfly() began.  A stack entry is
        (code, piece, terms): an entry without terms is a memo hit or is
        expanded, going back with its terms under its children, and an
        entry with terms is summed (module docstring).  The node budget
        counts this call's nodes."""
        memo = self.memo
        codes = self._codes
        deadline = None if self.wall_seconds is None else t0 + self.wall_seconds
        nodes = 0
        stack = [(code, piece, None) for code, piece in reversed(pieces)]
        while stack:
            code, piece, terms = stack.pop()
            if terms is not None:
                memo[code] = LaurentPoly2.sum_of_products((c, self._product(e, ps)) for c, e, ps in terms)
                continue
            if code in memo:
                self.memo_hits += 1
                continue
            nodes += 1
            self.nodes_expanded += 1
            out_of_nodes = nodes > self.node_budget
            if out_of_nodes or (deadline is not None and time.monotonic() > deadline):
                raise BudgetExceededError(
                    f"skein {'node' if out_of_nodes else 'wall-clock'} budget exhausted",
                    nodes=nodes,
                    elapsed=time.monotonic() - t0,
                )
            terms = []
            stack.append((code, piece, terms))
            for coeff, crossings, removed in _chain(piece):
                exponent, children = _decompose(LinkDiagram._trusted(crossings), removed, codes)
                terms.append((coeff, exponent, children))
                stack.extend((c, p, None) for c, p in children)


def _chain(piece: LinkDiagram):
    """The terms of ``piece``'s switch chain, (coefficient, crossings,
    removed loops): the smoothing of each bad crossing, in chain order,
    and then the chain's end.  With two or more bad crossings, the first
    whose switch leaves a bigon (each is switched and back, which restores
    the form and its sets) gives the only two terms: its smoothing, taken
    on the switched form, and the reduced switched diagram.  Else the chain
    runs in traversal order and ends with the reduced switched diagram at
    the first switch that leaves a bigon while bad crossings remain; else,
    once the first component's bad crossings are switched while others
    remain, with the lifted diagram; else with the descending diagram, an
    unlink of mu components: no crossings, mu loops.  Why each end is
    exact, and the one working form the chain runs on: module docstring."""
    bad = piece.non_descending_crossings()
    w = _WorkingDiagram(piece)
    if len(bad) > 1:
        for x in bad:
            sign = w.sign(x)
            if w.switch(x):
                yield (_monomial(sign, sign, 1), *w.reduced(x))
                yield (_monomial(1, 2 * sign, 0), *w.reduced())
                return
            w.switch(x)
    top, on_top = piece.first_walk()
    lift = len(on_top.intersection(bad))
    k = 0  # the prefix is v^k (see _monomial)
    for x in bad[:lift]:
        sign = w.sign(x)
        yield (_monomial(sign, k + sign, 1), *w.reduced(x))
        k += 2 * sign
        if w.switch(x) and x != bad[-1]:
            yield (_monomial(1, k, 0), *w.reduced())
            return
    if lift < len(bad):
        yield (_monomial(1, k, 0), *w.lifted(top))
    else:
        yield _monomial(1, k, 0), (), piece.component_count()


def _decompose(d: LinkDiagram, removed: int, codes: dict):
    """Split the simplified diagram d, which shed ``removed`` loops:
    P = delta^exponent * product of piece values.

    Returns (exponent, [(code, piece)]), each piece a ``LinkDiagram``.
    ``codes`` is the engine's crossings -> canonical code table, asked once,
    for d's crossings: it holds only pieces, so on a hit d is its one piece.
    On a miss d is searched whole, and a d that is one piece is coded by
    that search.  Only a d that the search finds split is split, and each
    of its pieces searched: they almost never hit the table.  An empty d
    has no pieces.  The pieces keep the ``split_pieces`` order, first
    crossing first; it decides which labelled copy of a repeated code is
    expanded, and so the node counts (module docstring).
    """
    code = codes.get(d.crossings)
    if code is not None:
        return removed, [(code, d)]
    whole = d._connected_code() if d.crossings else None
    coded = []
    for p in [d] if whole else d.split_pieces():
        if len(codes) >= _CODE_TABLE_CAP:
            codes.clear()
        code = codes[p.crossings] = whole or p.canonical_code()
        coded.append((code, p))
    return removed + len(coded) - 1, coded


def _self_check(d: LinkDiagram, p: LaurentPoly2) -> None:
    """The Morton-bound and exponent-parity guard on every value homfly() returns.

    It is the only such guard: reports do not repeat it.  A violation means
    an engine bug or a wrong disk-cache entry.  Both facts come from one
    walk of d's Seifert circles: the exponents must have the parity of
    mu - 1, and that is the parity of the bound c - s + 1, as the Seifert
    step is the strand step followed by one transposition per crossing (of
    its two out-arcs), so s = mu + c (mod 2).
    """
    bound = d.morton_bound()
    if p.is_zero:
        raise SelfCheckError("engine produced the zero polynomial")
    if p.max_z_degree() > bound:
        raise SelfCheckError(f"Morton bound violated: max_z {p.max_z_degree()} > {bound}")
    want = bound % 2
    for ev, ez in p.terms():
        if ev % 2 != want or ez % 2 != want:
            raise SelfCheckError(
                f"exponent parity violated at v^{ev} z^{ez} with {d.component_count()} components"
            )
