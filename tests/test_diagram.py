import itertools
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from skeinkit import diagram
from skeinkit.braid import BraidWord, quasitoric_beta
from skeinkit.diagram import OVER, UNDER, Crossing, LinkDiagram, _WorkingDiagram, from_braid_closure
from skeinkit.errors import DiagramError
from skeinkit.satellite import blackboard_double, build_K_A, canonical_double, canonical_whitehead
from skeinkit.suites import _exhaustive_words


def closure(letters, strands=None):
    strands = strands or (max(abs(k) for k in letters) + 1 if letters else 1)
    return from_braid_closure(BraidWord(strands, letters))


def test_closure_counts():
    d = closure([1, 1, 1])
    assert d.crossing_count() == 3
    assert d.component_count() == 1
    assert d.writhe() == 3

    empty = from_braid_closure(BraidWord(1, ()))
    assert empty.crossing_count() == 0
    assert empty.free_loops == 1

    d2 = from_braid_closure(quasitoric_beta(2, 1))
    assert d2.crossing_count() == 6
    assert d2.component_count() == 3
    assert d2.writhe() == 0


def test_component_count_matches_permutation_cycles():
    words = [
        BraidWord(2, (1, 1)),
        BraidWord(3, (1, -2, 1, -2)),
        BraidWord(4, (1, 2, 3)),
        BraidWord(3, (1,)),
        quasitoric_beta(3, -1),
    ]
    for b in words:
        assert from_braid_closure(b).component_count() == b.closure_component_count()


def test_stats_trefoil():
    st = closure([1, 1, 1]).stats()
    assert st == (3, 2, 3, 1, 2, Fraction(1))


def test_stats_zero_crossing_loop():
    st = LinkDiagram((), 1).stats()
    assert st.crossings == 0
    assert st.seifert_circles == 1
    assert st.writhe == 0
    assert st.components == 1
    assert st.morton_bound == 0
    assert st.canonical_genus == 0


def test_linking_numbers():
    hopf = closure([1, 1])
    assert hopf.component_count() == 2
    assert hopf.linking_number(0, 1) == 1
    unlink = from_braid_closure(BraidWord(3, (1, -1)))
    # the two arc components cross twice with opposite signs
    assert unlink.linking_number(0, 1) == 0
    with pytest.raises(DiagramError):
        hopf.linking_number(0, 0)
    with pytest.raises(DiagramError):
        hopf.linking_number(0, 5)


def test_switch_involution_and_sign():
    d = closure([1, 1])
    assert d.switch_crossing(0).switch_crossing(0) == d
    assert d.switch_crossing(0).writhe() == 0
    with pytest.raises(DiagramError):
        d.switch_crossing(7)


def test_switch_then_simplify_gives_unlink():
    d = closure([1, 1]).switch_crossing(0)
    core, removed = d.simplify()
    assert core.is_empty()
    assert removed == 2


def test_smoothing():
    hopf = closure([1, 1])
    sm = hopf.smooth_crossing(0)
    assert sm.crossing_count() == 1
    assert sm.component_count() == 1

    kink = closure([1], strands=2)
    sm2 = kink.smooth_crossing(0)
    assert sm2.crossing_count() == 0
    assert sm2.free_loops == 2

    for x in range(3):
        d = closure([1, -2, 1])
        assert d.smooth_crossing(x).crossing_count() == d.crossing_count() - 1
        assert abs(d.smooth_crossing(x).component_count() - d.component_count()) == 1


def test_simplify_r1_r2():
    core, removed = closure([1, -1]).simplify()
    assert core.is_empty() and removed == 2  # identity braid closure: 2-unlink

    core, removed = closure([1], strands=2).simplify()
    assert core.is_empty() and removed == 1

    core, removed = closure([1, 1, 1]).simplify()
    assert core.crossing_count() == 3 and removed == 0

    # idempotence
    core2, removed2 = core.simplify()
    assert core2 == core and removed2 == 0


def test_simplify_cascade():
    # sigma1 sigma1^-1 sigma2 sigma2 on 3 strands: R2 cancels, freeing the
    # first strand into a split circle and leaving a Hopf diagram
    core, removed = closure([1, -1, 2, 2]).simplify()
    assert core.crossing_count() == 2
    assert removed == 1
    assert core.component_count() == 2


def test_morton_bound_is_c_minus_s_plus_1():
    trefoil, figure_eight = closure([1, 1, 1]), closure([1, -2, 1, -2])
    samples = [closure([1, 1]), closure([-1, 2, -1, 2, -1]), from_braid_closure(quasitoric_beta(2, 1))]
    samples += [blackboard_double(d) for d in (trefoil, figure_eight, samples[-1])]
    for knot in (trefoil, figure_eight):
        w = knot.writhe()
        samples += [canonical_double(knot, m) for m in (w - 1, w, w + 2)]
        samples += [canonical_whitehead(knot, m, sign) for m in (w - 1, w, w + 2) for sign in (1, -1)]
    for d in samples:
        bound = d.crossing_count() - d.seifert_circle_count() + 1
        assert d.morton_bound() == d.stats().morton_bound == bound
        # the skein engine's parity guard reads mu - 1 off the bound's parity
        assert bound % 2 == (d.component_count() - 1) % 2


def test_mirror_stats():
    d = from_braid_closure(quasitoric_beta(2, 1))
    m = d.mirror()
    assert m.writhe() == -d.writhe()
    assert m.stats().seifert_circles == d.stats().seifert_circles
    assert m.stats().components == d.stats().components
    assert m.mirror() == d


def test_canonical_code_relabeling_invariance():
    d = closure([1, 1, 1])
    # same diagram with shuffled arc labels and crossing order
    relabel = {a: a * 7 + 3 for a in d.arcs()}
    shuffled = LinkDiagram(
        [
            Crossing(
                relabel[c.over_in],
                relabel[c.over_out],
                relabel[c.under_in],
                relabel[c.under_out],
                c.sign,
            )
            for c in reversed(d.crossings)
        ],
        d.free_loops,
    )
    assert shuffled.canonical_code() == d.canonical_code()
    assert closure([-1, -1, -1]).canonical_code() != d.canonical_code()
    assert closure([1, 1, 1]).canonical_code() == d.canonical_code()


def test_canonical_code_separates_component_structure(monkeypatch):
    # two split Hopf-link pieces vs one 4-crossing piece must not collide:
    # the split diagram has no code, and each piece has the Hopf link's
    hopf = closure([1, 1])
    two_hopfs = LinkDiagram(shifted(hopf, 0) + shifted(hopf, 100))
    with pytest.raises(DiagramError, match="a split diagram has no canonical code"):
        two_hopfs.canonical_code()
    assert [p.canonical_code() for p in two_hopfs.split_pieces()] == [hopf.canonical_code()] * 2
    assert hopf.canonical_code() != closure([1, 1, 1, 1]).canonical_code()
    with pytest.raises(DiagramError, match="no crossings has no canonical code"):
        LinkDiagram((), 2).canonical_code()
    # k symmetric pieces side by side are refused after 2k + 1 walks, with
    # no search over the orders of the pieces
    walks = []
    walk = diagram._walk

    def counting(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(diagram, "_walk", counting)
    for k in range(2, 9):
        walks.clear()
        with pytest.raises(DiagramError, match="a split diagram"):
            LinkDiagram([c for i in range(k) for c in shifted(hopf, 100 * i)]).canonical_code()
        assert len(walks) == 2 * k + 1


def test_pd_round_trip():
    d = from_braid_closure(quasitoric_beta(2, 1))
    text = d.to_pd_text()
    assert text.startswith("PD[X(")
    d2 = LinkDiagram.from_pd_text(text)
    assert d2 == d

    loops = LinkDiagram((), 3)
    assert LinkDiagram.from_pd_text(loops.to_pd_text()) == loops

    with pytest.raises(DiagramError):
        LinkDiagram.from_pd_text("X(1,2,3,4;+1)")
    with pytest.raises(DiagramError):
        LinkDiagram.from_pd_text("PD[Y(1,2,3,4;+1)]")
    for empty in ("PD[]", "PD[L(0)]", "PD[ , ]"):
        with pytest.raises(DiagramError, match="no crossings and no loops"):
            LinkDiagram.from_pd_text(empty)


NON_PLANAR_PD = "PD[X(1,3,2,4;+1), X(3,1,4,2;+1)]"


def test_pd_parser_refuses_non_planar_codes():
    # two crossings joined by four arcs in an order that no embedding in
    # the plane realizes: 2 faces where a plane needs 4
    with pytest.raises(DiagramError, match="not planar"):
        LinkDiagram.from_pd_text(NON_PLANAR_PD)
    # a sign that disagrees with the port order of a planar trefoil
    text = closure([1, 1, 1]).to_pd_text().replace(";+1)", ";-1)", 1)
    with pytest.raises(DiagramError, match="not planar"):
        LinkDiagram.from_pd_text(text)


def test_r2_pairs_sharing_an_arc_are_refused_as_not_planar():
    # The one input seen to give an R2 bigon whose two strands are one run
    # through it: a coherent bigon on a component that runs c0, c1, c0, c1.
    # Gauss's parity condition rules that out in the plane.
    with pytest.raises(DiagramError, match="not planar: 2 faces for 2 crossings"):
        LinkDiagram.from_pd_text("PD[X(0,1,2,3;+1), X(1,2,3,0;+1)]")


def test_the_constructor_refuses_non_planar_crossings():
    # The same component c0, c1, c0, c1 as a crossing list: the skein engine
    # took it to a SelfCheckError when only the PD parser checked planarity.
    with pytest.raises(DiagramError, match="not planar: 2 faces for 2 crossings"):
        LinkDiagram([Crossing(0, 1, 2, 3, 1), Crossing(1, 2, 3, 0, 1)])
    # a sign that disagrees with the port order of a planar trefoil
    crossings = list(closure([1, 1, 1]).crossings)
    crossings[0] = crossings[0]._replace(sign=-1)
    with pytest.raises(DiagramError, match="not planar: 3 faces for 3 crossings"):
        LinkDiagram(crossings)


def test_pd_sign_needs_its_digit():
    with pytest.raises(DiagramError, match="unrecognized tokens"):
        LinkDiagram.from_pd_text("PD[X(0,3,1,2;), X(2,5,3,4;+), X(4,1,5,0;1)]")
    text = closure([1, 1, 1]).to_pd_text()
    for sign in ("", "+", "-"):
        with pytest.raises(DiagramError, match="unrecognized tokens"):
            LinkDiagram.from_pd_text(text.replace(";+1)", f";{sign})", 1))
    assert LinkDiagram.from_pd_text(text.replace(";+1)", ";1)")) == closure([1, 1, 1])
    mirror = closure([-1, -1, -1])
    assert LinkDiagram.from_pd_text(mirror.to_pd_text()) == mirror


def test_validation_rejects_bad_arcs():
    with pytest.raises(DiagramError, match="arc 1 has two heads"):
        LinkDiagram([Crossing(1, 2, 1, 3, 1)])
    with pytest.raises(DiagramError, match="arc 2 has two tails"):
        LinkDiagram([Crossing(1, 2, 3, 2, 1)])
    with pytest.raises(DiagramError, match=r"arcs with a single endpoint: \[1, 2, 3, 4\]"):
        LinkDiagram([Crossing(1, 2, 3, 4, 1)])
    with pytest.raises(DiagramError, match="crossing 0 has sign 5"):
        LinkDiagram([Crossing(1, 2, 2, 1, 5)])
    # faults are reported crossing by crossing: sign, then heads, then tails
    with pytest.raises(DiagramError, match="crossing 0 has sign 5"):
        LinkDiagram([Crossing(1, 1, 1, 1, 5)])
    with pytest.raises(DiagramError, match="arc 1 has two heads"):
        LinkDiagram([Crossing(1, 2, 1, 2, 1), Crossing(3, 4, 3, 4, 0)])
    with pytest.raises(DiagramError, match="free_loops must be nonnegative"):
        LinkDiagram((), -1)
    with pytest.raises(DiagramError, match="arc 1 has two heads"):
        LinkDiagram([Crossing(1, 2, 3, 4, 1), Crossing(1, 5, 6, 7, 1)])
    with pytest.raises(DiagramError, match="arc 2 has two tails"):
        LinkDiagram([Crossing(1, 2, 3, 4, 1), Crossing(5, 2, 6, 7, 1)])


def test_validation_rejects_fields_that_are_not_ints():
    # True == 1 and 1.0 == 1, so only a type test refuses them
    with pytest.raises(DiagramError, match=r"crossing 0 has a field that is not an int: \(1, 0, 0, 1, True\)"):
        LinkDiagram([(1, 0, 0, 1, True)])
    with pytest.raises(DiagramError, match="crossing 0 has a field that is not an int"):
        LinkDiagram([Crossing(1.0, 0, 0, 1, 1)])
    with pytest.raises(DiagramError, match="free_loops True is not an int"):
        LinkDiagram((), True)
    d = LinkDiagram([(1, 0, 0, 1, 1)])
    assert type(d.crossings[0].sign) is int
    assert LinkDiagram.from_pd_text(d.to_pd_text()) == d


def test_split_pieces():
    hopf = closure([1, 1])
    far = LinkDiagram(
        [Crossing(a + 50, b + 50, c + 50, e + 50, s) for a, b, c, e, s in closure([1, 1, 1]).crossings]
    )
    both = LinkDiagram(list(hopf.crossings) + list(far.crossings))
    pieces = both.split_pieces()
    assert len(pieces) == 2
    assert sorted(p.crossing_count() for p in pieces) == [2, 3]


# -- reference oracles ------------------------------------------------------
#
# The sequential implementations that the in-place working form replaced:
# every R1/R2 move and every smoothing rebuilds the whole diagram through a
# union-find over the merged arcs, and the canonical code walks every start
# to its end.  The fast core must agree with them exactly, because the arc
# labels it leaves fix the skein basepoints, and so the memo DAG.  The
# same holds for the split into pieces, whose order fixes the skein
# engine's child order, and for the arc ids of a braid closure.


def oracle_split(d):
    """The pieces by a union-find over the crossings that share an arc, in
    order of their union-find roots."""
    crossings = d.crossings
    parent = list(range(len(crossings)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    for ci, c in enumerate(crossings):
        for arc in c[:4]:
            if arc in owner:
                ra, rb = find(owner[arc]), find(ci)
                if ra != rb:
                    parent[rb] = ra
            else:
                owner[arc] = ci
    groups = {}
    for ci in range(len(crossings)):
        groups.setdefault(find(ci), []).append(crossings[ci])
    return [tuple(members) for _, members in sorted(groups.items())]


def oracle_closure(b):
    """Every crossing with fresh arc ids, then a pass that gives each
    strand's top arc the id of its bottom arc."""
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
    top = {current[p]: p for p in range(n) if touched[p]}
    crossings = [
        c._replace(
            over_out=top.get(c.over_out, c.over_out),
            under_out=top.get(c.under_out, c.under_out),
        )
        for c in crossings
    ]
    return LinkDiagram(crossings, touched.count(False))


def oracle_merge(crossings, merges):
    """The crossings with the arcs of each merged class relabelled to its
    smallest id, through a union-find, and the number of classes left with
    no port (loops).  No planarity check: a deleted crossing set need not
    leave a planar diagram."""
    parent = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in merges:
        ra, rb = sorted((find(a), find(b)))
        if ra != rb:
            parent[rb] = ra
    new = tuple(Crossing(*(find(a) for a in c[:4]), c.sign) for c in crossings)
    present = {a for c in new for a in c[:4]}
    vanished = {find(a) for pair in merges for a in pair} - present
    return new, len(vanished)


def oracle_rebuild(crossings, merges):
    return LinkDiagram(*oracle_merge(crossings, merges))


def oracle_smooth(d, x):
    c = d.crossings[x]
    rest = [e for i, e in enumerate(d.crossings) if i != x]
    smoothed = oracle_rebuild(rest, [(c.over_in, c.under_out), (c.under_in, c.over_out)])
    return LinkDiagram(smoothed.crossings, d.free_loops + smoothed.free_loops)


def passes(crossings):
    """Every pass of the crossings, as (in-arc, out-arc): deleting them with
    each strand running straight through merges these pairs."""
    return [pair for c in crossings for pair in ((c.over_in, c.over_out), (c.under_in, c.under_out))]


def oracle_move(d):
    """The dead crossings of the first R1 kink by position, else of the first R2 bigon."""
    for ci, c in enumerate(d.crossings):
        if c.over_out == c.under_in or c.under_out == c.over_in:
            return {ci}
    for ci, c in enumerate(d.crossings):
        dj, role = d.arc_head(c.over_out)
        if dj == ci or role != OVER:
            continue
        e = d.crossings[dj]
        if c.under_out == e.under_in or e.under_out == c.under_in:
            return {ci, dj}
    return None


def oracle_simplify(d):
    removed = 0
    while True:
        removed += d.free_loops
        d = LinkDiagram(d.crossings, 0)
        dead = oracle_move(d)
        if dead is None:
            return d, removed
        rest = [c for i, c in enumerate(d.crossings) if i not in dead]
        d = oracle_rebuild(rest, passes(d.crossings[i] for i in dead))


def oracle_code(d):
    """The unpruned search: every walk runs to its end."""
    comps = list(d._components()[0])
    if not comps:
        return struct.pack(">III", d.free_loops, 0, 0)

    def walk(start, labels, nxt):
        tokens = []
        arc = start
        while True:
            ci, role = d.arc_head(arc)
            if ci not in labels:
                labels[ci] = nxt
                nxt += 1
            c = d.crossings[ci]
            tokens.append((labels[ci] << 2) | (role << 1) | (1 if c.sign > 0 else 0))
            arc = c.over_out if role == OVER else c.under_out
            if arc == start:
                return tuple(tokens) + (0xFFFF,), nxt

    best = []

    def search(remaining, labels, nxt, prefix):
        if best and prefix > best[0][: len(prefix)]:
            return
        if not remaining:
            if not best or prefix < best[0]:
                best[:] = [prefix]
            return
        candidates = []
        for k, comp in enumerate(remaining):
            for start in comp:
                lab = dict(labels)
                tokens, n2 = walk(start, lab, nxt)
                candidates.append((tokens, k, lab, n2))
        lowest = min(c[0] for c in candidates)
        for tokens, k, lab, n2 in candidates:
            if tokens == lowest:
                search(remaining[:k] + remaining[k + 1 :], lab, n2, prefix + tokens)

    search(comps, {}, 0, ())
    tokens = best[0]
    return struct.pack(">III", d.free_loops, len(d.crossings), len(tokens)) + struct.pack(
        f">{len(tokens)}H", *tokens
    )


# -- strategies ------------------------------------------------------------------


@st.composite
def braids(draw, max_strands=5, max_letters=12):
    n = draw(st.integers(2, max_strands))
    letter = st.integers(1, n - 1).flatmap(lambda k: st.sampled_from([k, -k]))
    return BraidWord(n, draw(st.lists(letter, max_size=max_letters)))


def closures(max_strands=5, max_letters=12):
    return braids(max_strands, max_letters).map(from_braid_closure)


def shifted(d, offset):
    return [Crossing(*(a + offset for a in c[:4]), c.sign) for c in d.crossings]


@st.composite
def split_unions(draw):
    """Several closures side by side, their crossings interleaved at random."""
    parts = draw(st.lists(st.one_of(closures(max_letters=8), doubles()), min_size=2, max_size=3))
    crossings = [c for i, d in enumerate(parts) for c in shifted(d, 1000 * i)]
    crossings = draw(st.permutations(crossings))
    return LinkDiagram(crossings, sum(d.free_loops for d in parts))


def doubles():
    """Doubles of small closures: connected pieces with two or more components."""
    return closures(max_strands=3, max_letters=4).map(blackboard_double)


diagrams = st.one_of(closures(), doubles(), split_unions())


def switched(d, flips):
    cs = list(d.crossings)
    for x in flips:
        cs[x] = cs[x].switched()
    return cs


# -- the working form against the oracles -------------------------------------


@given(diagrams)
@settings(max_examples=200, deadline=None)
def test_simplify_matches_sequential_oracle(d):
    core, removed = d.simplify()
    want, want_removed = oracle_simplify(d)
    assert core.crossings == want.crossings
    assert core.free_loops == want.free_loops == 0
    assert removed == want_removed


def assert_form_is(w, cs):
    """The working form holds exactly ``cs``, with the port maps of a rebuild
    and the kinks and bigons of a full classification."""
    fresh = _WorkingDiagram(LinkDiagram(cs))
    fresh.classify(range(len(cs)))
    assert (w.cs, w.head, w.tail) == (fresh.cs, fresh.head, fresh.tail)
    assert (w.kinks, w.bigons) == (fresh.kinks, fresh.bigons)


@given(diagrams, st.data())
@settings(max_examples=200, deadline=None)
def test_smoothing_matches_sequential_oracle(d, data):
    # smooth_crossing takes any diagram: switched, unreduced, with free loops
    n = len(d.crossings)
    if n:
        flips = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        x = data.draw(st.integers(0, n - 1))
        d_switched = LinkDiagram(switched(d, flips), d.free_loops)
        smoothed = d_switched.smooth_crossing(x)
        want = oracle_smooth(d_switched, x)
        assert (smoothed.crossings, smoothed.free_loops) == (want.crossings, want.free_loops)
    # One working form per reduced piece, as in a skein node: switch along a
    # random chain in place and smooth several crossings from the same form
    # at every step; each result is a copy and leaves the form unchanged.
    core, _ = d.simplify()
    n = len(core.crossings)
    if not n:
        return
    w = _WorkingDiagram(core)
    flips = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    cs = list(core.crossings)
    for step in range(len(flips) + 1):
        for x in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            smoothed = LinkDiagram(cs).smooth_crossing(x)
            want = oracle_smooth(LinkDiagram(cs), x)
            assert (smoothed.crossings, smoothed.free_loops) == (want.crossings, want.free_loops)
            got, removed = w.reduced(x)
            want_core, want_removed = oracle_simplify(want)
            assert (got, removed) == (want_core.crossings, want_removed)
            assert_form_is(w, cs)
        if step < len(flips):
            bigon = w.switch(flips[step])
            cs[flips[step]] = cs[flips[step]].switched()
            # a switch makes no kink, so the reducible switched forms are
            # those with a bigon, and their reduced copies end skein chains
            assert bigon == (oracle_move(LinkDiagram(cs)) is not None)
            want_core, want_removed = oracle_simplify(LinkDiagram(cs))
            assert w.reduced() == (want_core.crossings, want_removed)
    assert_form_is(w, switched(core, flips))


def assert_ports_match(w):
    """The port maps of a form with tombstones are those of its live crossings."""
    head, tail = {}, {}
    for ci, c in enumerate(w.cs):
        if c is not None:
            head[c[0]], head[c[2]] = (ci, OVER), (ci, UNDER)
            tail[c[1]], tail[c[3]] = (ci, OVER), (ci, UNDER)
    assert (w.head, w.tail) == (head, tail)


@given(diagrams, st.data())
@settings(max_examples=200, deadline=None)
def test_straight_through_deletion_matches_the_oracle_rebuild(d, data):
    # Any crossing set, not only a kink, a bigon or a component's crossings:
    # ``splice`` joins each strand's run through the set, names it by the
    # smallest id on the run, and counts each closed run once.  The set is
    # every crossing of some components, which close into loops, and a few
    # more crossings at random.
    n = len(d.crossings)
    if not n:
        return
    comps = d._components()[0]
    gone = data.draw(st.sets(st.integers(0, len(comps) - 1), max_size=len(comps)))
    dead = {d.arc_head(a)[0] for k in gone for a in comps[k]}
    dead |= data.draw(st.sets(st.integers(0, n - 1), min_size=0 if dead else 1, max_size=3))
    w = _WorkingDiagram(d)
    loops, touched = w.splice(dead, diagram._through(w.cs, dead))
    rest = [c for i, c in enumerate(d.crossings) if i not in dead]
    assert (w.crossings(), loops) == oracle_merge(rest, passes(d.crossings[i] for i in dead))
    assert loops >= len(gone)
    assert_ports_match(w)
    # every crossing the splice deleted or relabelled is in ``touched``
    changed = {i for i, c in enumerate(d.crossings) if w.cs[i] != c}
    assert changed <= set(touched)


def test_deleting_every_crossing_closes_each_component():
    # the doubled Borromean rings: six components, each one loop
    d = blackboard_double(from_braid_closure(quasitoric_beta(2, 1)))
    w = _WorkingDiagram(d)
    dead = range(len(w.cs))
    assert w.splice(dead, diagram._through(w.cs, dead))[0] == d.component_count() == 6
    assert w.crossings() == () and w.head == w.tail == {}


def oracle_lift(d, arcs):
    """``d`` without its crossings on ``arcs``, every strand merged straight
    through them, simplified: (crossings, removed loops).  The component of
    ``arcs`` closes into one of the loops."""
    arcs = set(arcs)
    dead = [c for c in d.crossings if c.over_in in arcs or c.under_in in arcs]
    rest = oracle_rebuild([c for c in d.crossings if c not in dead], passes(dead))
    core, removed = oracle_simplify(rest)
    return core.crossings, removed


def test_lifting_a_component_deletes_its_crossings():
    # The Hopf link with its first component on top lifts to two loops;
    # the chain of three Hopf-linked circles keeps the other clasp.
    for letters, count, loops in (([1, 1], 0, 2), ([1, 1, 2, 2], 2, 1)):
        d = closure(letters)
        assert d.simplify()[0] is d
        arcs, on_top = d.first_walk()
        x = d.non_descending_crossings()[0]
        assert x in on_top
        w = _WorkingDiagram(d)
        w.switch(x)
        crossings, removed = w.lifted(arcs)
        assert (len(crossings), removed) == (count, loops)
        assert LinkDiagram(crossings).component_count() + removed == d.component_count()


@given(diagrams, st.data())
@settings(max_examples=200, deadline=None)
def test_lifting_matches_sequential_oracle(d, data):
    # From any switched form of a reduced diagram, as along a skein chain,
    # ``lifted`` deletes the first component's crossings on a copy and
    # reduces: the same result as a rebuild and a sequential simplify.
    core, _ = d.simplify()
    n = len(core.crossings)
    if not n:
        return
    arcs, on_top = core.first_walk()
    assert arcs[0] == min(core.arcs())
    assert on_top == {i for i, c in enumerate(core.crossings) if c.over_in in arcs or c.under_in in arcs}
    flips = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    w = _WorkingDiagram(core)
    for x in flips:
        w.switch(x)
    cs = switched(core, flips)
    assert w.lifted(arcs) == oracle_lift(LinkDiagram(cs), arcs)
    assert_form_is(w, cs)


@given(diagrams, st.data())
@settings(max_examples=200, deadline=None)
def test_moves_commute_with_order_preserving_relabelling(d, data):
    # Arc ids are any ints (PD text accepts negative ones), and the moves
    # see them only through the port maps and the smallest id of a merged
    # class.  So relabelling the arcs by an increasing map into +-10**6
    # must relabel every simplify and smoothing result the same way.
    arcs = d.arcs()
    targets = data.draw(
        st.lists(st.integers(-10**6, 10**6), min_size=len(arcs), max_size=len(arcs), unique=True)
    )
    relabel = dict(zip(arcs, sorted(targets)))

    def moved(crossings):
        return tuple(Crossing(*(relabel[a] for a in c[:4]), c[4]) for c in crossings)

    core, removed = d.simplify()
    core_moved, removed_moved = LinkDiagram(moved(d.crossings), d.free_loops).simplify()
    assert (core_moved.crossings, removed_moved) == (moved(core.crossings), removed)
    # along a skein node's switch chain, one working form per labelling
    w = _WorkingDiagram(core)
    w_moved = _WorkingDiagram(core_moved)
    for x in core.non_descending_crossings():
        for y in range(len(core.crossings)):
            got, loops = w_moved.reduced(y)
            want, want_loops = w.reduced(y)
            assert (got, loops) == (moved(want), want_loops)
        w.switch(x)
        w_moved.switch(x)


def assert_split_matches_oracle(d):
    """The oracle's pieces, each in diagram order, ordered by first crossing."""
    position = {c: i for i, c in enumerate(d.crossings)}
    want = sorted(oracle_split(d), key=lambda piece: position[piece[0]])
    pieces = d.split_pieces()
    assert [p.crossings for p in pieces] == want
    assert all(p.free_loops == 0 for p in pieces)


@given(diagrams)
@settings(max_examples=200, deadline=None)
def test_split_pieces_match_union_find_oracle(d):
    assert_split_matches_oracle(d)
    # every smoothing result of a skein node's switch chain
    core, _ = d.simplify()
    w = _WorkingDiagram(core)
    for x in core.non_descending_crossings():
        assert_split_matches_oracle(LinkDiagram(w.reduced(x)[0]))
        w.switch(x)


@given(diagrams, st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_code_matches_unpruned_oracle(d, data):
    n = len(d.crossings)
    flips = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)) if n else []
    d = LinkDiagram(switched(d, flips), d.free_loops)
    core, _ = d.simplify()
    for whole in (d, core):
        pieces = whole.split_pieces()
        for piece in pieces:
            assert piece.canonical_code() == oracle_code(piece)
        if len(pieces) == 1:
            assert whole.canonical_code() == oracle_code(whole)
        else:
            with pytest.raises(DiagramError, match="has no canonical code"):
                whole.canonical_code()


@given(diagrams, st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_code_invariant_under_relabeling(d, data):
    arcs = d.arcs()
    targets = data.draw(
        st.lists(st.integers(-10**6, 10**6), min_size=len(arcs), max_size=len(arcs), unique=True)
    )
    relabel = dict(zip(arcs, targets))
    order = data.draw(st.permutations(range(len(d.crossings))))
    moved = LinkDiagram(
        [Crossing(*(relabel[a] for a in d.crossings[i][:4]), d.crossings[i].sign) for i in order],
        d.free_loops,
    )
    codes = sorted(p.canonical_code() for p in d.split_pieces())
    assert sorted(p.canonical_code() for p in moved.split_pieces()) == codes
    if len(codes) == 1:
        assert moved.canonical_code() == d.canonical_code()
    else:
        for whole in (d, moved):
            with pytest.raises(DiagramError, match="has no canonical code"):
                whole.canonical_code()


def test_multi_component_codes_match_oracle():
    # connected pieces with several components, where the search recurses
    # over component orders and the best stream bounds the later walks
    samples = [
        blackboard_double(closure([1, 1])),
        blackboard_double(closure([1, 1, 1])),
        blackboard_double(closure([1, -2, 1, -2])),
        blackboard_double(from_braid_closure(quasitoric_beta(2, 1))),
        closure([1, 2, 1, 2, 1, 2]),
    ]
    for d in samples:
        assert d.component_count() >= 2
        # smooth along a switch chain on one working form, as a skein node does
        w = _WorkingDiagram(d.simplify()[0])
        for x in range(0, len(w.cs), 3):
            core = LinkDiagram(w.reduced(x)[0])
            for piece in core.split_pieces():
                assert piece.canonical_code() == oracle_code(piece)
            w.switch(x)
        assert d.canonical_code() == oracle_code(d)


def test_split_and_tied_codes_match_oracle():
    hopf, trefoil, mirror = closure([1, 1]), closure([1, 1, 1]), closure([-1, -1, -1])
    # split diagrams: after the first piece no unwalked component meets a
    # labeled crossing, so the diagram is refused; its pieces are coded
    split = [
        LinkDiagram(shifted(hopf, 0) + shifted(trefoil, 100)),
        LinkDiagram(shifted(hopf, 0) + shifted(mirror, 100)),
        LinkDiagram(shifted(hopf, 0) + shifted(trefoil, 100) + shifted(hopf, 200)),
    ]
    for d, pieces in zip(split, (2, 2, 3)):
        assert len(d.split_pieces()) == pieces
        with pytest.raises(DiagramError, match="a split diagram has no canonical code"):
            d.canonical_code()
        for piece in d.split_pieces():
            assert piece.canonical_code() == oracle_code(piece)
    # symmetric pieces whose least first walks tie
    for d in (closure([1, 1, 1, 1]), blackboard_double(hopf)):
        assert d.component_count() >= 2
        assert d.canonical_code() == oracle_code(d)


def test_canonical_code_refuses_large_diagrams_before_walking_them():
    d = closure([1] * 16000)
    with pytest.raises(DiagramError, match="too large to encode"):
        d.canonical_code()
    assert d._comps is None  # no component walk was made


def test_closure_matches_relabel_oracle_on_exhaustive_words():
    for b in _exhaustive_words():
        assert from_braid_closure(b) == oracle_closure(b)


@given(braids(max_strands=9, max_letters=20))
@settings(max_examples=300, deadline=None)
def test_closure_matches_relabel_oracle(b):
    assert from_braid_closure(b) == oracle_closure(b)


def test_closure_matches_the_checking_constructor():
    # a closure skips every check: the checking constructor must build the
    # same diagram from its crossings, with the same head map and components
    for n in range(1, 5):
        gens = [g for k in range(1, n) for g in (k, -k)]
        for length in range(5):
            for letters in itertools.product(gens, repeat=length):
                d = from_braid_closure(BraidWord(n, letters))
                checked = LinkDiagram(d.crossings, d.free_loops)
                assert all(type(c) is Crossing for c in d.crossings), letters
                assert checked.crossings == d.crossings and checked.free_loops == d.free_loops
                assert checked._head == d._head, letters
                assert checked._components() == d._components(), letters
                assert d.morton_bound() % 2 == (d.component_count() - 1) % 2, letters


# -- planarity of the PD text form -------------------------------------------


@st.composite
def knots(draw):
    """Braid closures with one component, for the satellite constructors."""
    d = draw(closures(max_strands=4, max_letters=7))
    if d.component_count() != 1:
        d = closure([1, 1, 1])
    return d


@st.composite
def k_a_matrices(draw):
    r = draw(st.integers(1, 3))
    top = draw(st.sampled_from([1, -1]))
    return [
        [top * (-1) ** i * draw(st.integers(1, 3)) for _ in range(3)] for i in range(r)
    ]


planar_diagrams = st.one_of(
    diagrams,
    st.builds(canonical_double, knots(), st.integers(-3, 3)),
    st.builds(canonical_whitehead, knots(), st.integers(-3, 3), st.sampled_from([1, -1])),
    k_a_matrices().map(build_K_A),
)


@given(planar_diagrams)
@settings(max_examples=200, deadline=None)
def test_pd_round_trip_passes_planarity_check(d):
    assert LinkDiagram.from_pd_text(d.to_pd_text()) == d
