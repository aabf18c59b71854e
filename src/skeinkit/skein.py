"""Memoized descending-diagram skein engine for HOMFLYPT polynomials.

Algorithm: simplify (R1/R2 plus split-circle extraction), factor the diagram
into crossing-connected pieces (disjoint pieces multiply, with one delta per
extra piece), and recurse.  A crossing-free diagram with k loops is delta^(k-1).
Otherwise components are walked in order of minimal arc id from deterministic
basepoints, and every crossing first met on its understrand is bad.  Each bad
crossing, taken in traversal order, is resolved by the skein relation at the
current sign (earlier bad crossings already switched):

    positive x:  P(d) = v^2  P(switched) + v z    P(smoothed)
    negative x:  P(d) = v^-2 P(switched) - v^-1 z P(smoothed)

Switching never changes the traversal, so the whole switch chain of one
diagram unrolls in a single node: with all bad crossings switched the diagram
is descending, hence an unlink worth delta^(mu-1), and the remaining children
are the smoothed diagrams, each one crossing smaller.  Recursion therefore
descends strictly in crossing count, which makes the memo DAG acyclic and
termination unconditional.

Each node builds one working form of its piece (``diagram._WorkingDiagram``,
the arc -> port maps built once).  The chain switches its crossings in that
form in place, one crossing and four ports per switch, and each bad
crossing is smoothed and simplified on a copy; only the simplified result
becomes a ``LinkDiagram``.  The piece is already reduced, a switch keeps
every kink a kink, and a switch changes bigon status only at the switched
crossing and at the crossings whose strands run into it.  So the copy's
Reidemeister pass starts from those crossings and from the ones the
smoothing touched (with their over-predecessors), not from a scan of every
crossing, and it makes the same moves in the same order: the arc labels, the
children and the node counts are those of a full scan.

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
exact crossing tuple (never a hash of it) to its canonical code, and looks a
child up there before it searches for the code.  The table is cleared
whenever it reaches ``_CODE_TABLE_CAP`` entries, which bounds its memory; a
miss only costs the search again.

The evaluator runs on an explicit stack, so deep skein trees cannot overflow
the interpreter stack.  A node is expanded once, when it first reaches the
top: it pushes its children that are not memoized and keeps only their
codes.  Every child has fewer crossings than its parent, so it is never an
ancestor, and each is in the memo by the time the parent is on top again;
the second visit only combines memo values.  Identical inputs yield
identical polynomials regardless of the memo hit pattern; a memo entry is
never overwritten with a different value.

Thread-safety: diagrams and polynomials are immutable, and the memo table
tolerates concurrent insertion of identical key/value pairs; the engine
itself runs single-threaded for reproducible counter values.
"""

from __future__ import annotations

import os
import time

from .diagram import LinkDiagram, _WorkingDiagram
from .errors import BudgetExceededError, CacheCorruptionError, DiagramError, SelfCheckError
from .laurent import ONE, LaurentPoly2, delta_power

__all__ = ["SkeinEngine"]

# (smoothed coefficient, switched coefficient) of a positive / negative crossing
_POS = (LaurentPoly2.monomial(1, v=1, z=1), LaurentPoly2.monomial(1, v=2))
_NEG = (LaurentPoly2.monomial(-1, v=-1, z=1), LaurentPoly2.monomial(1, v=-2))

# Entries in the crossings -> canonical code table before it is cleared.  A
# satellite-cold pass of the benchmark meets about 2,100 distinct labelled
# pieces; 1,024 entries keep 97% of its repeat lookups at half the memory.
_CODE_TABLE_CAP = 1024


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
                line = line.strip()
                if not line:
                    continue
                code_hex, _, poly_text = line.partition("\t")
                try:
                    code, value = bytes.fromhex(code_hex), LaurentPoly2.parse_text(poly_text)
                except (ValueError, OverflowError) as exc:
                    raise CacheCorruptionError(
                        f"{path}: bad cache line {lineno}: {line!r} ({exc})"
                    ) from exc
                self._memo_write(code, value)
                count += 1
        self.preloaded += count
        return count

    def save_cache(self, path=None) -> int:
        path = path or self.cache_path
        if path is None:
            raise ValueError("no cache path configured")
        lines = sorted(f"{code.hex()}\t{p.format_text()}\n" for code, p in self.memo.items())
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

    def _memo_write(self, code: bytes, value: LaurentPoly2) -> None:
        old = self.memo.get(code)
        if old is None:
            self.memo[code] = value
        elif old != value:
            raise CacheCorruptionError("memo entry conflict for a canonical code")

    # -- evaluation -------------------------------------------------------

    def homfly(self, d: LinkDiagram) -> LaurentPoly2:
        """The HOMFLYPT polynomial of the link of d."""
        if d.is_empty():
            raise DiagramError("the empty diagram has no HOMFLYPT polynomial")
        t0 = time.monotonic()
        exponent, pieces = _decompose(*d.simplify(), self._codes)
        for code, piece in pieces:
            self._resolve(piece, code, t0)
        result = delta_power(exponent)
        for code, _ in pieces:
            result = result * self.memo[code]
        _self_check(d, result)
        return result

    def _resolve(self, piece0: LinkDiagram, code0: bytes, t0: float) -> None:
        """Evaluate one piece into the memo; ``t0`` is when homfly() began."""
        memo = self.memo
        if code0 in memo:
            self.memo_hits += 1
            return
        deadline = None if self.wall_seconds is None else t0 + self.wall_seconds
        nodes = {}  # code -> (unlink term, [(coeff, delta exponent, child codes)])
        stack = [(code0, piece0)]
        while stack:
            code, piece = stack[-1]
            if code in memo:
                stack.pop()
                continue
            node = nodes.pop(code, None)
            if node is not None:
                # Second visit: every child is memoized (module docstring).
                value, terms = node
                for coeff, exponent, child_codes in terms:
                    part = delta_power(exponent)
                    for child_code in child_codes:
                        part = part * memo[child_code]
                    value = value + coeff * part
                self._memo_write(code, value)
                stack.pop()
                continue
            self.nodes_expanded += 1
            if self.nodes_expanded > self.node_budget:
                raise BudgetExceededError(
                    "skein node budget exhausted",
                    nodes=self.nodes_expanded,
                    elapsed=time.monotonic() - t0,
                    memo_size=len(memo),
                )
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceededError(
                    "skein wall-clock budget exhausted",
                    nodes=self.nodes_expanded,
                    elapsed=time.monotonic() - t0,
                    memo_size=len(memo),
                )
            bad = piece.non_descending_crossings()
            if not bad:
                self._memo_write(code, delta_power(piece.component_count() - 1))
                stack.pop()
                continue
            # Unroll the switch chain on one working form: each bad
            # crossing contributes its smoothed diagram, and the fully
            # switched end is an unlink.
            prefix = ONE
            terms = []
            w = _WorkingDiagram(piece.crossings)
            recheck = set()
            for x in bad:
                exponent, children = _decompose(*w.smoothed(x, recheck), self._codes)
                smooth, switch = _POS if w.cs[x].sign > 0 else _NEG
                terms.append((prefix * smooth, exponent, [c for c, _ in children]))
                prefix = prefix * switch
                recheck.update(w.switch(x))
                for child in children:
                    if child[0] in memo:
                        self.memo_hits += 1
                    else:
                        stack.append(child)
            nodes[code] = (prefix * delta_power(piece.component_count() - 1), terms)


def _decompose(core: LinkDiagram, removed: int, codes: dict):
    """Split a simplified diagram that shed ``removed`` loops:
    P = delta^exponent * product of piece values.  The pieces keep the
    ``split_pieces`` order, first crossing first; it decides which labelled
    copy of a repeated code is expanded, and so the node counts (module
    docstring).  ``codes`` is the engine's crossings -> canonical code table."""
    pieces = core.split_pieces()
    if pieces:
        exponent = removed + len(pieces) - 1
    else:
        exponent = removed - 1
    coded = []
    for p in pieces:
        code = codes.get(p.crossings)
        if code is None:
            if len(codes) >= _CODE_TABLE_CAP:
                codes.clear()
            code = codes[p.crossings] = p.canonical_code()
        coded.append((code, p))
    return exponent, coded


def _self_check(d: LinkDiagram, p: LaurentPoly2) -> None:
    """The Morton-bound and exponent-parity guard on every value homfly() returns.

    It is the only such guard: reports do not repeat it.  A violation means
    an engine bug or a wrong disk-cache entry.
    """
    st = d.stats()
    if p.is_zero:
        raise SelfCheckError("engine produced the zero polynomial")
    if p.max_z_degree() > st.morton_bound:
        raise SelfCheckError(
            f"Morton bound violated: max_z {p.max_z_degree()} > {st.morton_bound}"
        )
    want = (st.components - 1) % 2
    for ev, ez in p.terms():
        if ev % 2 != want or ez % 2 != want:
            raise SelfCheckError(
                f"exponent parity violated at v^{ev} z^{ez} with {st.components} components"
            )
