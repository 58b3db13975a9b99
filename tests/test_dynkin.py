import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverlab.dynkin import (
    DynkinType,
    build_quiver,
    coxeter_number,
    nakayama_involution,
    positive_roots,
    quiver_from_json,
    quiver_from_text,
    quiver_to_json,
    quiver_to_text,
)
from quiverlab.errors import GuardError

ALL_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]

# (type, coxeter number, number of positive roots)
COXETER = {
    "A1": 2, "A2": 3, "A3": 4, "A4": 5, "A5": 6,
    "D4": 6, "D5": 8, "E6": 12, "E7": 18, "E8": 30,
}
ROOT_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "D4": 12, "D5": 20, "E6": 36}


def type_strategy():
    return st.sampled_from(ALL_TYPES)


def quiver_strategy(types=None):
    @st.composite
    def build(draw):
        dtype = DynkinType.parse(draw(st.sampled_from(types or ALL_TYPES)))
        arrows = []
        for (i, j) in dtype.edges:
            if draw(st.booleans()):
                i, j = j, i
            arrows.append((i, j))
        return build_quiver(dtype, arrows)

    return build()


def test_parse_accepts_usual_spellings():
    assert str(DynkinType.parse("A3")) == "A3"
    assert str(DynkinType.parse("d5")) == "D5"
    assert DynkinType.parse(DynkinType.parse("E6")) == DynkinType.parse("E6")


@pytest.mark.parametrize("bad", ["B2", "A0", "D3", "E9", "F4", "x", "A"])
def test_parse_rejects_out_of_family(bad):
    with pytest.raises(GuardError):
        DynkinType.parse(bad)


@pytest.mark.parametrize("name,h", sorted(COXETER.items()))
def test_coxeter_numbers(name, h):
    assert coxeter_number(DynkinType.parse(name)) == h


@pytest.mark.parametrize("name", ALL_TYPES)
def test_root_count_vs_coxeter_identity(name):
    # #positive roots == n * h / 2 holds in every simply laced type
    dtype = DynkinType.parse(name)
    assert dtype.positive_root_count() == dtype.rank * coxeter_number(dtype) // 2


@pytest.mark.parametrize("name,count", sorted(ROOT_COUNTS.items()))
def test_enumerated_roots(name, count):
    dtype = DynkinType.parse(name)
    roots = positive_roots(dtype)
    assert len(roots) == count
    assert dtype.positive_root_count() == count
    seen = {tuple(int(x) for x in r) for r in roots}
    assert len(seen) == count
    for v in dtype.vertices:
        unit = tuple(1 if w == v else 0 for w in dtype.vertices)
        assert unit in seen


@settings(max_examples=40, deadline=None)
@given(quiver_strategy())
def test_quiver_invariants(q):
    assert {frozenset(a) for a in q.arrows} == {frozenset(e) for e in q.dtype.edges}
    order = q.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    for (i, j) in q.arrows:
        assert pos[i] < pos[j]
    # a tree has exactly rank - 1 arrows
    assert len(q.arrows) == q.rank - 1


@settings(max_examples=40, deadline=None)
@given(quiver_strategy())
def test_path_predicates_agree(q):
    def count_paths(a, b):
        """Directed paths a -> b (the trivial one when a == b), counted by
        walking the arrows."""
        return 1 if a == b else sum(count_paths(w, b) for u, w in q.arrows if u == a)

    verts = list(q.vertices)
    for a, b in itertools.product(verts, verts):
        has = q.has_path(a, b)
        # in a tree, paths are unique when they exist
        assert count_paths(a, b) == has
        walk = q.path_vertices(a, b)
        if has:
            assert walk[0] == a and walk[-1] == b
            for u, w in zip(walk, walk[1:]):
                assert (u, w) in q.arrows
        else:
            assert walk is None


def test_orientation_must_cover_each_edge_once():
    with pytest.raises(GuardError):
        build_quiver("A3", "1->2 2->3 3->2")
    with pytest.raises(GuardError):
        build_quiver("A3", "1->2")
    with pytest.raises(GuardError):
        build_quiver("A3", "1->2 1->3")


@settings(max_examples=30, deadline=None)
@given(quiver_strategy())
def test_nakayama_involution_properties(q):
    inv = nakayama_involution(q)
    assert sorted(inv) == sorted(inv.values())
    for v in q.vertices:
        assert inv[inv[v]] == v
    # the involution preserves the diagram
    edges = {frozenset(e) for e in q.dtype.edges}
    assert {frozenset((inv[a], inv[b])) for a, b in edges} == edges


def test_nakayama_fixed_points():
    # odd A: reversal; D even: identity; D odd: swaps the fork; E6: reversal-like
    assert nakayama_involution(build_quiver("A3")) == {1: 3, 2: 2, 3: 1}
    assert nakayama_involution(build_quiver("A4")) == {1: 4, 2: 3, 3: 2, 4: 1}
    assert nakayama_involution(build_quiver("D4")) == {v: v for v in range(1, 5)}
    d5 = nakayama_involution(build_quiver("D5"))
    assert d5[1] == 1 and d5[2] == 2 and d5[3] == 3 and d5[4] == 5
    e6 = nakayama_involution(build_quiver("E6"))
    assert e6[6] == 6  # branch vertex stays put


def test_opposite_quiver_flips_paths():
    q = build_quiver("A3", "1->2 3->2")
    op = q.opposite()
    assert set(op.arrows) == {(2, 1), (2, 3)}
    assert q.has_path(1, 2) and op.has_path(2, 1)


@settings(max_examples=30, deadline=None)
@given(quiver_strategy())
def test_serialization_round_trips(q):
    assert quiver_from_json(quiver_to_json(q)) == q
    assert quiver_from_text(quiver_to_text(q)) == q


def test_text_parser_details():
    q = quiver_from_text("# comment\ntype A 2\n2 -> 1\n")
    assert set(q.arrows) == {(2, 1)}
    with pytest.raises(GuardError):
        quiver_from_text("1 -> 2\n")  # missing header
    with pytest.raises(GuardError):
        quiver_from_text("type A 2\n1 => 2\n")


def test_cartan_matrix_symmetric_with_twos():
    for name in ("A3", "D5", "E6"):
        dt = DynkinType.parse(name)
        c = dt.cartan_rows()
        n = dt.rank
        assert all(type(x) is int for row in c for x in row)
        assert all(c[i][j] == c[j][i] for i in range(n) for j in range(n))
        assert all(c[i][i] == 2 for i in range(n))
        # -1 exactly on the edges of the diagram
        assert {(i + 1, j + 1) for i in range(n) for j in range(i) if c[i][j]} == {
            (j, i) for i, j in dt.edges}
        assert {c[i][j] for i in range(n) for j in range(n) if i != j} <= {0, -1}


def test_unpickled_quiver_rehashes_in_its_own_process():
    # string hashes differ between processes, so a hash cached at build
    # time must not travel with a pickle
    import os
    import pickle
    import subprocess
    import sys

    import quiverlab

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quiverlab.__file__)))
    dump = "import pickle, sys; from quiverlab.dynkin import build_quiver; " \
           "sys.stdout.buffer.write(pickle.dumps(build_quiver('D5', '2->1 2->3 3->4 5->3')))"
    blob = subprocess.run([sys.executable, "-c", dump], capture_output=True, check=True,
                          env=dict(env, PYTHONHASHSEED="1")).stdout
    q = pickle.loads(blob)
    fresh = build_quiver("D5", "2->1 2->3 3->4 5->3")
    assert q == fresh and hash(q) == hash(fresh)
    assert {fresh: 1}[q] == 1
    assert q is fresh  # rebuilt through the interning memo
