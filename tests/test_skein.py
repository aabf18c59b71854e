import random

import pytest

from skeinkit.braid import BraidWord
from skeinkit.diagram import LinkDiagram, from_braid_closure
from skeinkit.errors import BudgetExceededError, DiagramError
from skeinkit.laurent import DELTA, LaurentPoly2, delta_power
from skeinkit.satellite import blackboard_double, quasitoric_closure
from skeinkit.skein import SkeinEngine

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
    assert eng.homfly(closure([-1, -1, -1])) == RIGHT_TREFOIL.substitute_v_inverse()


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
            assert pm == p.substitute_v_inverse()


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


def test_memo_conflict_guard():
    from skeinkit.errors import CacheCorruptionError
    from skeinkit.laurent import ONE

    e = SkeinEngine()
    e._memo_write(b"key", ONE)
    e._memo_write(b"key", ONE)  # identical rewrite is fine
    with pytest.raises(CacheCorruptionError):
        e._memo_write(b"key", DELTA)


def test_corrupt_cache_lines_are_refused_by_line_number(tmp_path):
    from skeinkit.errors import CacheCorruptionError

    path = tmp_path / "poly.cache"
    bad_lines = [
        b"zz\t1*v^0*z^0",  # bad hex
        b"abcd\tnot a poly",  # bad term
        b"abcd",  # no polynomial
        b"abcd\t1*v^4294967296*z^0",  # exponent out of range
        b"ab\xff\t1*v^0*z^0",  # not ASCII
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


def test_memo_dag_of_doubled_borromean_rings_is_pinned():
    # A cold engine expands one node per distinct simplified piece, so the
    # node count pins the memo DAG: the simplifier's move order and arc
    # labels (hence the skein basepoints) and the canonical code fix it.
    # The memo hits count the child edges that point at a finished node.
    for top_sign, nodes, hits in ((1, 721, 1315), (-1, 696, 1324)):
        e = SkeinEngine()
        e.homfly(blackboard_double(quasitoric_closure(2, top_sign)))
        assert e.counters()["nodes"] == nodes
        assert e.counters()["memo_hits"] == hits


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
    SkeinEngine().homfly(blackboard_double(quasitoric_closure(2, 1)))
    assert len(built) > 721
    for d in built:
        ref = LinkDiagram(d.crossings, d.free_loops)
        assert d.crossings == ref.crossings
        assert d._head == ref._head
        assert d._components() == ref._components()


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
    assert e.counters()["nodes"] == 721
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
