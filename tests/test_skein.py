import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from skeinkit.braid import BraidWord
from skeinkit.diagram import Crossing, LinkDiagram, _WorkingDiagram, from_braid_closure
from skeinkit.errors import BudgetExceededError, CacheCorruptionError, DiagramError
from skeinkit.hecke import homfly_closed_braid
from skeinkit.laurent import DELTA, ONE, ZERO, LaurentPoly2, delta_power
from skeinkit.satellite import (
    blackboard_double,
    build_K_A,
    canonical_double,
    canonical_whitehead,
    quasitoric_closure,
)
from skeinkit.skein import _LINE, SkeinEngine

HOPF_PLUS = LaurentPoly2({(1, 1): 1, (1, -1): 1, (3, -1): -1})
RIGHT_TREFOIL = LaurentPoly2({(2, 0): 2, (4, 0): -1, (2, 2): 1})


@pytest.fixture(scope="module")
def eng():
    return SkeinEngine()


def closure(letters, strands=None):
    strands = strands or (max(abs(k) for k in letters) + 1 if letters else 1)
    return from_braid_closure(BraidWord(strands, letters))


def test_unknot_and_unlinks(eng):
    assert eng.homfly(LinkDiagram((), 1)) == 1
    for k in range(1, 5):
        assert eng.homfly(LinkDiagram((), k)) == delta_power(k - 1)
    assert eng.homfly(closure([1], strands=2)) == 1
    assert eng.homfly(closure([1, -1])) == DELTA


def test_empty_diagram_rejected(eng):
    with pytest.raises(DiagramError):
        eng.homfly(LinkDiagram())


def test_hopf_and_trefoil_frozen_values(eng):
    # both expansions follow from the skein axioms by hand:
    #   P(hopf+) = v^2 delta + v z;  P(trefoil+) = v^2 + v z P(hopf+)
    p = eng.homfly(closure([1, 1]))
    assert p == HOPF_PLUS
    assert p.max_z_degree() == 1
    assert eng.homfly(closure([1, 1, 1])) == RIGHT_TREFOIL
    assert eng.homfly(closure([-1, -1, -1])) == RIGHT_TREFOIL.mirror_image()


def test_double_of_trefoil_degree(eng):
    p = eng.homfly(blackboard_double(closure([1, 1, 1])))
    assert p.max_z_degree() == 5


def test_split_union_multiplies_by_delta(eng):
    tref = closure([1, 1, 1])
    far = LinkDiagram(
        [
            type(c)(c.over_in + 90, c.over_out + 90, c.under_in + 90, c.under_out + 90, c.sign)
            for c in tref.crossings
        ]
    )
    union = LinkDiagram(list(tref.crossings) + list(far.crossings))
    assert eng.homfly(union) == DELTA * RIGHT_TREFOIL * RIGHT_TREFOIL
    with_loop = LinkDiagram(tref.crossings, 2)
    assert eng.homfly(with_loop) == delta_power(2) * RIGHT_TREFOIL


def test_split_root_is_resolved_one_piece_at_a_time():
    # Two trefoils and a free loop: a root of two pieces with one code.  The
    # first trefoil is expanded with its Hopf-link child (2 nodes, 2
    # entries); the second is a memo hit.
    b = BraidWord(5, (1, 1, 1, 3, 3, 3))
    e = SkeinEngine()
    p = e.homfly(from_braid_closure(b))
    assert p == delta_power(2) * RIGHT_TREFOIL**2 == homfly_closed_braid(b)
    assert e.counters() == {"nodes": 2, "memo_hits": 1, "memo_size": 2, "preloaded": 0}


def test_simplify_preserves_polynomial(eng):
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 8))]
        d = from_braid_closure(BraidWord(n, letters))
        core, removed = d.simplify()
        expected = delta_power(removed) * eng.homfly(core) if not core.is_empty() else delta_power(removed - 1)
        assert eng.homfly(d) == expected


def test_markov_invariance(eng):
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 8))]
        b = BraidWord(n, letters)
        p = eng.homfly(from_braid_closure(b))
        conj = b.conjugate_by(rng.choice([1, -1]) * rng.randint(1, n - 1))
        assert eng.homfly(from_braid_closure(conj)) == p
        assert eng.homfly(from_braid_closure(b.stabilize(True))) == p
        assert eng.homfly(from_braid_closure(b.stabilize(False))) == p


def test_mirror_identity(eng):
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 4)
        letters = [rng.choice([1, -1]) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 10))]
        d = from_braid_closure(BraidWord(n, letters))
        p = eng.homfly(d)
        pm = eng.homfly(d.mirror())
        assert pm == p.mirror_image()
        if d.component_count() % 2 == 1:
            assert pm == LaurentPoly2({(-ev, ez): c for (ev, ez), c in p.terms().items()})


def test_parity_and_morton_enforced_per_result(eng):
    for letters, strands in [((1, 1), 2), ((1, -2, 1, -2), 3), ((2, -1, 2, -1, 2, -1), 3)]:
        d = from_braid_closure(BraidWord(strands, letters))
        p = eng.homfly(d)
        st = d.stats()
        assert p.max_z_degree() <= st.morton_bound
        want = (st.components - 1) % 2
        for ev, ez in p.terms():
            assert ev % 2 == want and ez % 2 == want


def test_quasitoric_alternating_sharpness(eng):
    for r in range(1, 5):
        d = quasitoric_closure(r, 1)
        assert eng.homfly(d).max_z_degree() == d.stats().morton_bound == 2 * r


def test_determinism_and_memo_stability(eng):
    d = blackboard_double(closure([1, 1, 1]))
    p1 = eng.homfly(d)
    nodes_before = eng.counters()["nodes"]
    p2 = eng.homfly(d)
    assert p1 == p2
    assert eng.counters()["nodes"] == nodes_before  # fully memoized second time


def test_node_budget_aborts_cleanly():
    tiny = SkeinEngine(node_budget=2)
    d = blackboard_double(closure([1, 1, 1]))
    with pytest.raises(BudgetExceededError) as info:
        tiny.homfly(d)
    err = info.value
    assert err.nodes == 3
    assert 0 <= err.elapsed < 60
    assert f"after {err.nodes} nodes in {err.elapsed:.3f} s" in str(err)
    assert err.args[0] == "skein node budget exhausted"


def test_node_budget_bounds_each_homfly_call():
    # Like the wall budget, the node budget bounds one homfly() call: a
    # second call on the same engine has the whole budget again, and its
    # error counts its own nodes.  The engine's node counter keeps counting.
    e = SkeinEngine(node_budget=500)
    e.homfly(blackboard_double(quasitoric_closure(2, 1)))
    assert e.counters()["nodes"] == 390
    with pytest.raises(BudgetExceededError) as info:
        e.homfly(blackboard_double(quasitoric_closure(3, 1)))
    assert info.value.nodes == 501
    assert e.counters()["nodes"] == 891


def test_wall_budget_aborts_cleanly():
    slow = SkeinEngine(wall_seconds=0.0)
    d = blackboard_double(quasitoric_closure(2, 1))
    with pytest.raises(BudgetExceededError) as info:
        slow.homfly(d)
    err = info.value
    assert err.nodes >= 1
    assert err.elapsed > 0
    assert f"after {err.nodes} nodes in {err.elapsed:.3f} s" in str(err)
    assert err.args[0] == "skein wall-clock budget exhausted"


def test_clasp_smoothing_identity(eng):
    # smoothing one clasp crossing of the Whitehead diagram opens it to the
    # doubled link, switching it yields an unknot; in polynomial form
    # P(W2(D,m)) = v^-1 z^-1 P(W+(D,m)) - v z^-1
    from skeinkit.satellite import canonical_double, canonical_whitehead, quasitoric_closure

    trefoil = quasitoric_closure(1, 1)
    for m in (0, 2, 3, 5):
        pw = eng.homfly(canonical_whitehead(trefoil, m, 1))
        pd = eng.homfly(canonical_double(trefoil, m))
        rhs = LaurentPoly2.monomial(1, -1, -1) * pw + LaurentPoly2.monomial(-1, 1, -1)
        assert pd == rhs


def test_corrupt_cache_lines_are_refused_by_line_number(tmp_path):
    from skeinkit.errors import CacheCorruptionError

    path = tmp_path / "poly.cache"
    bad_lines = [
        b"zz\t1*v^0*z^0",  # bad hex
        b"abcd\tnot a poly",  # bad term
        b"abcd",  # no polynomial
        b"abcd\t1*v^4294967296*z^0",  # exponent out of range
        b"ab\xff\t1*v^0*z^0",  # not ASCII
        # lines that parse as polynomials but are not in the form saved
        b"ab\t1*v^02*z^0",  # a leading zero
        b"ab\t0*v^1*z^1 + 1*v^0*z^0",  # a zero term
        b"ab\t1*v^0*z^0  +  1*v^2*z^0",  # padding around +
        b"ab\t1*v^1000000000*z^0",  # a 10-digit exponent
        b"AB\t1*v^0*z^0",  # uppercase hex
        b"abc\t1*v^0*z^0",  # odd-length hex
    ]
    for line in bad_lines:
        path.write_bytes(b"ab\t1*v^0*z^0\n\n" + line + b"\n")
        with pytest.raises(CacheCorruptionError, match=r"line 3: "):
            SkeinEngine(cache_path=str(path))


def test_cache_round_trip(tmp_path):
    path = tmp_path / "poly.cache"
    e1 = SkeinEngine(cache_path=str(path))
    d = blackboard_double(closure([1, 1, 1]))
    p1 = e1.homfly(d)
    cold_nodes = e1.counters()["nodes"]
    assert cold_nodes > 0
    e1.save_cache()

    e2 = SkeinEngine(cache_path=str(path))
    assert e2.counters()["preloaded"] > 0
    p2 = e2.homfly(d)
    assert p2 == p1
    assert e2.counters()["nodes"] == 0


# -- the untruncated skein recursion --------------------------------------


def oracle_homfly(d: LinkDiagram, memo: dict) -> LaurentPoly2:
    """The skein recursion on the public ``LinkDiagram`` API, with every
    switch chain run to its descending end, an unlink.  ``memo`` maps the
    canonical code of a piece to its value."""
    core, removed = d.simplify()
    if core.is_empty():
        return delta_power(removed - 1)
    pieces = core.split_pieces()
    result = delta_power(removed + len(pieces) - 1)
    for piece in pieces:
        code = piece.canonical_code()
        if code not in memo:
            value, k = ZERO, 0
            for x in piece.non_descending_crossings():
                sign = piece.crossings[x].sign
                smoothed = oracle_homfly(piece.smooth_crossing(x), memo)
                value = value + LaurentPoly2.monomial(sign, k + sign, 1) * smoothed
                k += 2 * sign
                piece = piece.switch_crossing(x)
            unlink = delta_power(piece.component_count() - 1)
            memo[code] = value + LaurentPoly2.monomial(1, k, 0) * unlink
        result = result * memo[code]
    return result


@st.composite
def skein_inputs(draw):
    """Braid closures, and for companions of at most 5 crossings their
    blackboard doubles or, for knots, framed doubles and Whitehead doubles
    over a few framings, the latter with both clasps."""
    n = draw(st.integers(2, 4))
    letter = st.integers(1, n - 1).flatmap(lambda k: st.sampled_from([k, -k]))
    d = closure(draw(st.lists(letter, max_size=8)), strands=n)
    kind = draw(st.sampled_from(["closure", "double", "framed", "whitehead"]))
    if kind == "closure" or len(d.crossings) > 5:
        return d
    if kind != "double" and d.component_count() == 1:
        m = d.writhe() + draw(st.integers(-2, 2))
        if kind == "framed":
            return canonical_double(d, m)
        return canonical_whitehead(d, m, draw(st.sampled_from([1, -1])))
    return blackboard_double(d)


@given(skein_inputs())
@settings(max_examples=200, deadline=None)
def test_truncated_chains_match_the_untruncated_oracle(d):
    assert SkeinEngine().homfly(d) == oracle_homfly(d, {})


def test_lifted_chain_ends_match_the_untruncated_oracle(monkeypatch):
    # A double has two components per component of its companion, so its
    # chains can end by lifting the first component off as a split unknot;
    # the oracle never does.  W2(beta_1) and the framed trefoil double have two
    # components and never lift; W2(beta_2) lifts 34 and 53 times.
    lifts = []
    lifted = _WorkingDiagram.lifted

    def counting(self, arcs):
        lifts.append(arcs)
        return lifted(self, arcs)

    monkeypatch.setattr(_WorkingDiagram, "lifted", counting)
    trefoil = quasitoric_closure(1, 1)
    for d, count in (
        (blackboard_double(trefoil), 0),
        (canonical_double(trefoil, trefoil.writhe() + 2), 0),
        (blackboard_double(quasitoric_closure(2, 1)), 34),
        (blackboard_double(quasitoric_closure(2, -1)), 53),
    ):
        lifts.clear()
        assert SkeinEngine().homfly(d) == oracle_homfly(d, {})
        assert len(lifts) == count


def memo_key_digest(engine) -> str:
    """sha256 of the engine's memo keys (canonical codes) in sorted order."""
    return hashlib.sha256(b"".join(sorted(engine.memo))).hexdigest()


def test_memo_dag_of_doubled_borromean_rings_is_pinned(monkeypatch):
    # A cold engine expands one node per distinct simplified piece, so the
    # node count pins the memo DAG: the simplifier's move order and arc
    # labels (hence the skein basepoints), where each switch chain ends,
    # and the canonical code fix it.  The memo hits count the stack pops
    # whose code is already memoized, and the key digest pins the codes a
    # disk cache is keyed by.  The smoothings and the two kinds of chain
    # end pin which crossing each chain switches first and where it ends:
    # chains run in traversal order to their descending ends smooth 3,077
    # and 3,220 times and end early never, and chains that never lift
    # their first component smooth 842 and 951 times (both before R1/R2
    # results took the smallest id on their runs).  The code searches
    # pin what the crossings -> code table saves.  A ``reduced`` call with
    # a crossing is a smoothing, one without is a chain end at a bigon,
    # and a ``lifted`` call is a chain end with the first component on top.
    calls = []
    for cls, name in (
        (_WorkingDiagram, "reduced"),
        (_WorkingDiagram, "lifted"),
        (LinkDiagram, "canonical_code"),
    ):
        method = getattr(cls, name)

        def counting(self, *args, name=name, method=method):
            calls.append("smoothed" if name == "reduced" and args else name)
            return method(self, *args)

        monkeypatch.setattr(cls, name, counting)
    pins = (
        (1, 390, 346, 488, 307, 34, 675, "2092c58b20e7aa049414caada3b925faedf1029e9ea7ca0cba6a5fa0f06cb821"),
        (-1, 427, 386, 544, 340, 53, 726, "17af9ceea3c9d575796130833126d8260c5edfba512f18d1340401e5abe8d68c"),
    )
    for top_sign, nodes, hits, smoothed, reduced, lifted, searches, digest in pins:
        calls.clear()
        e = SkeinEngine()
        e.homfly(blackboard_double(quasitoric_closure(2, top_sign)))
        assert e.counters()["nodes"] == nodes
        assert e.counters()["memo_hits"] == hits
        assert (calls.count("smoothed"), calls.count("reduced")) == (smoothed, reduced)
        assert calls.count("lifted") == lifted
        assert calls.count("canonical_code") == searches
        assert memo_key_digest(e) == digest


def test_memo_dag_of_mirrored_figure_eight_whitehead_doubles_is_pinned():
    # The Whitehead doubles of both clasps over the framings w-2..w+2 of the
    # mirrored figure-eight diagram, in one engine: the companion whose
    # window costs the most skein nodes in the benchmark's satellite set.
    word = BraidWord.parse_text("3: -1 2 -1 2")
    w = word.exponent_sum()
    companion = from_braid_closure(word)
    e = SkeinEngine()
    for m in range(w - 2, w + 3):
        for clasp in (1, -1):
            e.homfly(canonical_whitehead(companion, m, clasp))
    assert (e.counters()["nodes"], e.counters()["memo_hits"]) == (112, 90)
    assert memo_key_digest(e) == "83f58df11b70f3339b75d56daad3acc76fc94b5bc7b169a2a49bd9199be39dab"


def test_memo_dag_of_a_c8_whitehead_double_is_pinned():
    # The Whitehead double (writhe framing, positive clasp) of the c = 8
    # knot of K_A = [[2,1,2],[-1,-1,-1]], 34 crossings.  Chains that switch
    # a bigon-making bad crossing first and lift a first component that
    # lies on top take 2,089 nodes.  When an R1/R2 result took the smaller
    # id of its two surviving arcs, not the smallest id on its run, they
    # took 2,311; without the lift 2,327, and in plain traversal order 9,499.
    k = build_K_A([[2, 1, 2], [-1, -1, -1]])
    assert k.crossing_count() == 8
    e = SkeinEngine()
    p = e.homfly(canonical_whitehead(k, k.writhe(), 1))
    assert e.counters()["nodes"] == 2089
    assert p.max_z_degree() == 16


def test_a_chain_with_a_bigon_maker_has_two_terms(monkeypatch):
    # A node whose piece has a bad crossing that leaves an R2 bigon when
    # switched yields that crossing's smoothing and the reduced switched
    # diagram, and nothing else.  The bigon is found apart from the
    # working form: a piece is reduced and a switch keeps it kink-free, so
    # the switch leaves a bigon iff ``simplify`` then removes crossings.
    # One case has a single term: a piece with one bad crossing, not on
    # its first component, which then already lies on top and is lifted
    # off before any switch.
    import skeinkit.skein as skein

    chain = skein._chain
    seen = []

    def recording(piece):
        terms = list(chain(piece))
        seen.append((piece, len(terms)))
        yield from terms

    monkeypatch.setattr(skein, "_chain", recording)
    SkeinEngine().homfly(blackboard_double(quasitoric_closure(2, 1)))
    makers = lifted_first = 0
    for piece, count in seen:
        n = piece.crossing_count()
        bad = piece.non_descending_crossings()
        if any(piece.switch_crossing(x).simplify()[0].crossing_count() < n for x in bad):
            makers += 1
            if len(bad) == 1 and not piece.first_walk()[1].intersection(bad):
                lifted_first += 1
                assert count == 1
            else:
                assert count == 2
        else:
            assert 1 <= count <= len(bad) + 1
    assert makers > lifted_first == 1 and len(seen) == 390


def test_a_chain_that_lifts_its_first_component_ends_there(monkeypatch):
    # Once the bad crossings on the first component are switched, it is
    # descending and lies above every other component: a split unknot.
    # The chain ends there, with those crossings' smoothings and one
    # lifted term, the switched diagram without any crossing of that
    # component, so the lifted child is smaller than its node.
    import skeinkit.skein as skein

    chain = skein._chain
    lifted = _WorkingDiagram.lifted
    lifts = []
    seen = []

    def lifting(self, arcs):
        lifts.append(arcs)
        return lifted(self, arcs)

    def recording(piece):
        before = len(lifts)
        terms = list(chain(piece))
        seen.append((piece, terms, len(lifts) - before))
        yield from terms

    monkeypatch.setattr(_WorkingDiagram, "lifted", lifting)
    monkeypatch.setattr(skein, "_chain", recording)
    SkeinEngine().homfly(blackboard_double(quasitoric_closure(2, 1)))
    ends = 0
    for piece, terms, count in seen:
        if not count:
            continue
        ends += 1
        assert count == 1
        top, on_top = piece.first_walk()
        assert lifts[ends - 1] == top
        assert len(terms) <= len(on_top.intersection(piece.non_descending_crossings())) + 1
        _, crossings, removed = terms[-1]
        assert len(crossings) <= piece.crossing_count() - len(on_top) and removed >= 1
    assert ends == 34


def test_trusted_diagrams_equal_validated_ones(monkeypatch):
    # Every diagram the core builds without checks (smoothings, simplify
    # results, split pieces) is the one the checking constructor builds.
    built = []
    trusted = LinkDiagram._trusted

    def recording(cls, crossings, free_loops=0):
        d = trusted(crossings, free_loops)
        built.append(d)
        return d

    monkeypatch.setattr(LinkDiagram, "_trusted", classmethod(recording))
    e = SkeinEngine()
    e.homfly(blackboard_double(quasitoric_closure(2, 1)))
    # each expanded node builds one diagram per chain term, and has a term
    assert len(built) >= e.counters()["nodes"] > 0
    for d in built:
        assert all(type(c) is Crossing for c in d.crossings)
        ref = LinkDiagram(d.crossings, d.free_loops)
        assert d.crossings == ref.crossings
        assert d._head == ref._head
        assert d._components() == ref._components()


def test_working_forms_leave_the_diagram_head_map_unchanged(monkeypatch):
    # homfly (whose root piece is the reduced input itself), simplify and
    # smooth_crossing move working forms built from a diagram's head map;
    # each form copies the map, so the diagram's own map stays as it was.
    built = []
    init = _WorkingDiagram.__init__

    def recording(self, d):
        built.append((d, dict(d._head)))
        init(self, d)

    monkeypatch.setattr(_WorkingDiagram, "__init__", recording)
    reduced = blackboard_double(quasitoric_closure(1, 1))
    kinked = closure([1, 1, 2, -1, -1])
    assert reduced.simplify()[0] is reduced and kinked.simplify()[0] != kinked
    for d in (reduced, kinked):
        head = dict(d._head)
        SkeinEngine().homfly(d)
        d.simplify()
        for x in range(d.crossing_count()):
            d.smooth_crossing(x)
        assert d._head == head
    assert any(d is reduced for d, _ in built)
    for d, head in built:
        assert d._head == head


def test_code_table_stays_under_its_cap(monkeypatch):
    import skeinkit.skein as skein

    d = blackboard_double(quasitoric_closure(2, 1))
    want = SkeinEngine().homfly(d)
    sizes = []

    class Recording(dict):
        def __setitem__(self, key, value):
            super().__setitem__(key, value)
            sizes.append(len(self))

    monkeypatch.setattr(skein, "_CODE_TABLE_CAP", 8)
    e = SkeinEngine()
    e._codes = Recording()
    assert e.homfly(d) == want
    assert e.counters()["nodes"] == 390
    assert max(sizes) == 8
    assert sizes.count(1) > 1  # the table was cleared


# The canonical code of the doubled right trefoil (two components).  Cache
# files are keyed by these bytes: a format change must fail here first.
DOUBLED_TREFOIL_CODE = (
    "000000000000000c0000001a00000005000b000e001000150007001a001c000900170022ffff"
    "000200200025002b001e0018002d00270012000c0029002fffff"
)


def test_canonical_code_format_is_pinned():
    d = blackboard_double(closure([1, 1, 1]))
    assert d.component_count() == 2
    assert d.canonical_code().hex() == DOUBLED_TREFOIL_CODE


# -- the disk cache -------------------------------------------------------


def oracle_load(path) -> dict:
    """The strict eager loader: parse every line on load, refuse a conflict there.

    A line loads iff it is lowercase hex of even length, a TAB, and text that
    ``parse_text`` accepts.  It is the reference for which lines load, which
    raise (with their line numbers) and which values they give."""
    memo = {}
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            code_hex, _, poly_text = line.partition("\t")
            try:
                if not code_hex or set(code_hex) - set("0123456789abcdef") or len(code_hex) % 2:
                    raise ValueError("not lowercase hex of even length")
                code, value = bytes.fromhex(code_hex), LaurentPoly2.parse_text(poly_text)
            except ValueError as exc:
                raise CacheCorruptionError(f"{path}: bad cache line {lineno}: {line!r}") from exc
            old = memo.get(code)
            if old is None:
                memo[code] = value
            elif old != value:
                raise CacheCorruptionError("memo entry conflict for a canonical code")
    return memo


def outcome(load, path):
    try:
        return "ok", load(path)
    except CacheCorruptionError as exc:
        return "refused", str(exc)


def engine_load(path) -> dict:
    e = SkeinEngine(cache_path=str(path))
    return {code: e.value(code) for code in e.memo}


def exponent_text():
    small = st.integers(-3, 3).map(str)
    padded = st.tuples(st.sampled_from(["", "-"]), st.integers(0, 3)).map(lambda t: f"{t[0]}0{t[1]}")
    ten_digits = st.tuples(st.sampled_from(["", "-"]), st.integers(10**9, 10**10 - 1)).map(
        lambda t: f"{t[0]}{t[1]}"
    )
    return st.one_of(small, small, padded, ten_digits)


def term_text():
    coeff = st.one_of(st.integers(-2, 2).map(str), st.sampled_from(["01", "-02", "00"]))
    return st.tuples(coeff, exponent_text(), exponent_text()).map(lambda t: f"{t[0]}*v^{t[1]}*z^{t[2]}")


def poly_line_text():
    joined = st.tuples(
        st.lists(term_text(), min_size=1, max_size=3), st.sampled_from([" + ", "  + ", " +  ", "+"])
    ).map(lambda t: t[1].join(t[0]))
    return st.one_of(st.just("0"), joined, joined)


def cache_line():
    # Lines in the saved shape over two codes and a few small terms, in any
    # order, so that one code often gets equal and unequal values ...
    small_term = st.sampled_from(
        ["1*v^0*z^0", "-1*v^2*z^0", "2*v^-2*z^2", "-1*v^0*z^0", "1*v^999999999*z^0", "1*v^0*z^-999999999"]
    )
    saved_shape = st.tuples(
        st.sampled_from(["ab", "0a1b"]),
        st.one_of(st.just("0"), st.lists(small_term, min_size=1, max_size=3).map(" + ".join)),
    ).map("\t".join)
    # ... and lines in any other shape.
    code = st.sampled_from(["ab", "AB", "aB", "0a1b", "abc", "a b", ""])
    pad = st.sampled_from(["", "", " ", "\t"])
    other = st.tuples(pad, code, st.sampled_from(["\t", "\t", " "]), poly_line_text(), pad).map("".join)
    return st.one_of(saved_shape, other)


@given(st.lists(st.one_of(cache_line(), st.just("")), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_loader_matches_the_eager_oracle(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("cache") / "poly.cache"
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    assert outcome(engine_load, path) == outcome(oracle_load, path)


def test_canonical_lines_parse_on_first_read_only(tmp_path):
    path = tmp_path / "poly.cache"
    path.write_text("ab\t1*v^2*z^0\ncd\t1*v^999999999*z^-999999999\n")
    e = SkeinEngine(cache_path=str(path))
    assert e.memo == {b"\xab": "1*v^2*z^0", b"\xcd": "1*v^999999999*z^-999999999"}
    v2 = LaurentPoly2.monomial(1, v=2)
    assert e.value(b"\xab") == v2
    assert e.memo[b"\xab"] == v2 and not isinstance(e.memo[b"\xab"], str)
    assert e.value(b"\xcd") == LaurentPoly2.monomial(1, v=10**9 - 1, z=-(10**9 - 1))
    for line in ("cd\t1*v^02*z^0", "ef\t1*v^1000000000*z^0"):  # a leading zero, 10 digits
        path.write_text(f"ab\t1*v^2*z^0\n{line}\n")
        with pytest.raises(CacheCorruptionError, match=r"bad cache line 2: "):
            SkeinEngine(cache_path=str(path))
    assert _LINE.fullmatch("ab\t1*v^999999999*z^-999999999")
    assert not _LINE.fullmatch("ab\t1*v^1000000000*z^0")


def test_duplicate_lines_load_when_their_values_are_equal(tmp_path):
    path = tmp_path / "poly.cache"
    value = LaurentPoly2({(2, 0): 2, (4, 0): -1, (2, 2): 1})
    for other in (
        "1*v^2*z^2 + 2*v^2*z^0 + -1*v^4*z^0",  # canonical shape, terms out of order
        "2*v^2*z^0 + -1*v^4*z^0 + 1*v^2*z^2 + 1*v^0*z^0 + -1*v^0*z^0",  # cancelling terms
    ):
        path.write_text(f"ab\t{value.format_text()}\nab\t{other}\n")
        e = SkeinEngine(cache_path=str(path))
        assert e.counters()["preloaded"] == 2 and len(e.memo) == 1
        assert e.value(b"\xab") == value
    for other in ("2*v^2*z^0 + -1*v^4*z^0", "1*v^2*z^2 + 2*v^2*z^0 + 1*v^4*z^0", "0"):
        path.write_text(f"ab\t{value.format_text()}\nab\t{other}\n")
        with pytest.raises(CacheCorruptionError, match="conflict"):
            SkeinEngine(cache_path=str(path))
    # an equal value in a form never saved is refused as a line, not compared
    path.write_text(f"ab\t{value.format_text()}\nab\t2*v^2*z^0  +  -1*v^4*z^0 + 1*v^2*z^2\n")
    with pytest.raises(CacheCorruptionError, match=r"bad cache line 2: "):
        SkeinEngine(cache_path=str(path))


@pytest.fixture(scope="module")
def borromean_cache(tmp_path_factory):
    """A cache of the doubled Borromean rings (390 entries) and its value."""
    path = tmp_path_factory.mktemp("cache") / "poly.cache"
    e = SkeinEngine(cache_path=str(path))
    d = blackboard_double(quasitoric_closure(2, 1))
    p = e.homfly(d)
    e.save_cache()
    return path, d, p


def test_saved_lines_are_canonical_lines(borromean_cache, tmp_path):
    path = borromean_cache[0]
    lines = path.read_text().splitlines()
    assert len(lines) == 390
    e = SkeinEngine()
    edge = LaurentPoly2({(-(10**9 - 1), 10**9 - 1): -(2**80), (0, 0): 3})
    for i, p in enumerate([ONE, ZERO, DELTA, HOPF_PLUS, edge]):
        e.memo[bytes([i])] = p
    e.save_cache(str(tmp_path / "more.cache"))
    lines += (tmp_path / "more.cache").read_text().splitlines()
    matches = [_LINE.fullmatch(line) for line in lines]
    assert all(m and not len(m[1]) % 2 for m in matches)


def test_an_exponent_beyond_the_grammar_is_never_saved(tmp_path):
    # Products are not range-checked, so a memo value can hold an exponent
    # of 10 digits; saving it must fail before a byte is written.
    path = tmp_path / "poly.cache"
    path.write_text("01\t1*v^0*z^0\n")
    before = path.read_bytes()
    e = SkeinEngine()
    e.memo[b"\x02"] = LaurentPoly2.monomial(1, v=10**9 - 1) ** 2
    with pytest.raises(OverflowError):
        e.save_cache(str(path))
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["poly.cache"]


def test_save_cache_needs_a_path():
    with pytest.raises(ValueError, match="no cache path configured"):
        SkeinEngine().save_cache()


def test_loading_and_saving_rewrites_the_same_bytes(borromean_cache, tmp_path):
    path, d, p = borromean_cache
    before = path.read_bytes()
    copy = tmp_path / "copy.cache"
    copy.write_bytes(before)
    e = SkeinEngine(cache_path=str(copy))
    e.save_cache()
    assert copy.read_bytes() == before
    assert e.homfly(d) == p and e.counters()["nodes"] == 0
    e.save_cache()
    assert copy.read_bytes() == before


def test_a_warm_run_parses_only_the_entries_it_reads(borromean_cache, monkeypatch):
    # Loading parses nothing; each read entry is parsed once.  A return to
    # parsing every line on load fails here.
    path, d, p = borromean_cache
    parse = LaurentPoly2.parse_text
    calls = []

    def counting(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(LaurentPoly2, "parse_text", staticmethod(counting))
    e = SkeinEngine(cache_path=str(path))
    assert e.counters()["preloaded"] == 390 and calls == []
    assert e.homfly(d) == p
    assert e.homfly(d) == p
    read = [v for v in e.memo.values() if not isinstance(v, str)]
    assert e.counters()["nodes"] == 0
    assert 1 <= len(calls) == len(read) < 390
