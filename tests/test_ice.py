import json
from collections import Counter

import pytest
from hypothesis import given, settings

from quiverlab.dynkin import build_quiver
from quiverlab.ice import build_ice_quiver, export_ice, ice_from_json, mutable_part
from quiverlab.errors import GuardError
from quiverlab import morphcat as mp
from tests.test_dynkin import quiver_strategy

SMALL = ["A1", "A2", "A3", "A4", "D4"]

# Frozen fixture for the linearly oriented A3 ice quiver.
A3_FROZEN_IDS = (1, 2, 3, 4, 7, 8, 10, 11, 12)
A3_MESH_REVERSE = {(5, 1), (6, 2), (7, 3), (9, 5), (10, 6), (12, 9)}
A3_RULE2 = {(8, 4), (11, 8)}
A3_FROZEN_ARROWS = {(1, 2), (2, 3), (7, 10), (8, 4), (10, 12), (11, 8)}


def test_a3_fixture():
    iq = build_ice_quiver(build_quiver("A3"))
    assert len(iq.vertices) == 12
    assert iq.frozen_ids() == A3_FROZEN_IDS
    assert len(iq.arrow_pairs(origin="AR")) == 16
    assert set(iq.arrow_pairs(origin="mesh-reverse")) == A3_MESH_REVERSE
    assert set(iq.arrow_pairs(origin="rule2-frozen")) == A3_RULE2
    assert set(iq.arrow_pairs(frozen=True)) == A3_FROZEN_ARROWS
    assert len(iq.arrows) == 24
    assert len(iq.potential) == 6
    verts, arrows = mutable_part(iq)
    assert verts == (5, 6, 9)
    assert set(arrows) == {(5, 6), (6, 9), (9, 5)}


def test_a3_potential_term_at_the_first_mesh():
    iq = build_ice_quiver(build_quiver("A3"))
    by_rho = {t.rho: t for t in iq.potential}
    t = by_rho[(5, 1)]
    assert set(t.pairs) == {((1, 2), (2, 5)), ((1, 4), (4, 5))}


def test_a1_everything_unfrozen_arrowwise():
    iq = build_ice_quiver(build_quiver("A1"))
    assert [(a.src, a.dst, a.origin, a.frozen) for a in iq.arrows] == [
        (1, 2, "AR", False),
        (2, 3, "AR", False),
        (3, 1, "mesh-reverse", False),
    ]
    assert iq.frozen_ids() == (1, 2, 3)
    assert mutable_part(iq) == ((), ())


def test_d4_shape():
    iq = build_ice_quiver(build_quiver("D4"))
    assert len(iq.vertices) == 20
    assert len(iq.frozen_ids()) == 12
    verts, arrows = mutable_part(iq)
    assert verts == (6, 7, 8, 9, 11, 12, 13, 14)
    assert len(arrows) == 13


@settings(max_examples=20, deadline=None)
@given(quiver_strategy(SMALL))
def test_counting_invariants(q):
    iq = build_ice_quiver(q)
    n = q.rank
    assert len(iq.frozen_ids()) == 3 * n
    assert len(iq.arrow_pairs(frozen=True)) == 3 * len(q.arrows)
    ar = mp.mpr_ar_quiver(q)
    assert len(iq.potential) == len(ar.meshes)
    assert len(iq.arrows) == len(ar.arrows) + len(ar.meshes) + len(q.arrows)


@settings(max_examples=20, deadline=None)
@given(quiver_strategy(SMALL))
def test_frozen_flags_follow_labels(q):
    iq = build_ice_quiver(q)
    for lab, fr in zip(iq.vertices, iq.frozen):
        assert fr == (lab.kind != "mod" or lab.power == 0)


@settings(max_examples=20, deadline=None)
@given(quiver_strategy(SMALL))
def test_potential_terms_are_cycles(q):
    iq = build_ice_quiver(q)
    pairs = set(iq.arrow_pairs())
    for t in iq.potential:
        assert t.rho in pairs
        src, dst = t.rho
        for (incoming, outgoing) in t.pairs:
            assert incoming in pairs and outgoing in pairs
            # rho closes the 3-cycle dst -> mid -> src -> dst
            assert incoming[0] == dst and incoming[1] == outgoing[0] and outgoing[1] == src


@settings(max_examples=20, deadline=None)
@given(quiver_strategy(SMALL))
def test_rule2_arrows_connect_identity_objects_backwards(q):
    iq = build_ice_quiver(q)
    num = mp.mpr_number(q)
    want = {
        (num[mp.MprLabel(q, "dzero", j)], num[mp.MprLabel(q, "dzero", i)])
        for (i, j) in q.arrows
    }
    assert set(iq.arrow_pairs(origin="rule2-frozen")) == want


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_json_round_trip(q):
    iq = build_ice_quiver(q)
    again = ice_from_json(json.loads(export_ice(iq, "json")))
    assert again == iq


def test_dot_export_shapes():
    iq = build_ice_quiver(build_quiver("A2"))
    dot = export_ice(iq, "dot")
    assert dot.count("shape=box") == 6
    assert dot.count("shape=ellipse") == 1
    assert "style=dashed" in dot
    with pytest.raises(GuardError):
        export_ice(iq, "tsv")


# ---------------------------------------------------------------------------
# closed-form oracle on type A: the Fock-Goncharov triangulation quiver


def fg_triangle(n: int):
    """T_{n+1}, the quiver of the (n+1)-triangulation of a triangle
    (Fock-Goncharov, 2006): the points (a, b, c) with a + b + c = n + 1
    minus the three corners, frozen when a coordinate is 0.  Each small
    upward triangle carries the cycle (a+1,b,c) -> (a,b+1,c) -> (a,b,c+1)
    -> (a+1,b,c), and arrows at a corner are dropped.  Returns the frozen
    flags, the arrows, and the small triangles (upward and downward, none
    at a corner) as frozensets of their three arrows."""
    corners = {(n + 1, 0, 0), (0, n + 1, 0), (0, 0, n + 1)}
    points = [(a, b, n + 1 - a - b) for a in range(n + 2) for b in range(n + 2 - a)]
    frozen = {p: 0 in p for p in points if p not in corners}
    arrows, cycles = [], []
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            x, y, z = (a + 1, b, c), (a, b + 1, c), (a, b, c + 1)
            up = [(x, y), (y, z), (z, x)]
            arrows.extend(e for e in up if not corners & set(e))
            if not corners & {x, y, z}:
                cycles.append(frozenset(up))
    for a in range(n):
        for b in range(n - a):
            c = n - 1 - a - b
            x, y, z = (a + 1, b + 1, c), (a + 1, b, c + 1), (a, b + 1, c + 1)
            cycles.append(frozenset([(x, y), (y, z), (z, x)]))
    return frozen, arrows, cycles


def _wl_colors(graphs):
    """Colour refinement on the disjoint union of the graphs (frozen flags,
    arrow list), so the colours of different graphs compare."""
    col = {(g, v): int(fr) for g, (frozen, _) in enumerate(graphs) for v, fr in frozen.items()}
    nbrs = {key: ([], []) for key in col}
    for g, (_, arrows) in enumerate(graphs):
        for u, v in arrows:
            nbrs[g, u][0].append((g, v))
            nbrs[g, v][1].append((g, u))
    while True:
        sig = {key: (col[key], tuple(sorted(col[w] for w in out)), tuple(sorted(col[w] for w in inc)))
               for key, (out, inc) in nbrs.items()}
        names = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {key: names[s] for key, s in sig.items()}
        if len(set(new.values())) == len(set(col.values())):
            return new
        col = new


def find_isomorphism(g1, g2):
    """A bijection of vertices that preserves frozen flags and arrow
    multiplicities, or None; backtracking over colour classes."""
    (fr1, ar1), (fr2, ar2) = g1, g2
    if len(fr1) != len(fr2) or len(ar1) != len(ar2):
        return None
    col = _wl_colors([g1, g2])
    mult1, mult2 = Counter(ar1), Counter(ar2)
    adj = {v: set() for v in fr1}
    for u, v in ar1:
        adj[u].add(v)
        adj[v].add(u)
    # each vertex after a neighbour where possible, rarest colours first
    size = Counter(col.values())
    order, seen = [], set()
    for start in sorted(fr1, key=lambda v: (size[col[0, v]], str(v))):
        stack = [start]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                order.append(v)
                stack.extend(sorted(adj[v] - seen, key=str))
    phi, used = {}, set()

    def extend(k):
        if k == len(order):
            return True
        v = order[k]
        for w in fr2:
            if w in used or col[1, w] != col[0, v]:
                continue
            if all(mult1[v, u] == mult2[w, phi[u]] and mult1[u, v] == mult2[phi[u], w] for u in phi):
                phi[v] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del phi[v]
                used.discard(w)
        return False

    return dict(phi) if extend(0) else None


@pytest.mark.parametrize("n", range(1, 9))
def test_type_a_ice_is_the_fock_goncharov_triangle(n):
    """On A_n with the default orientation, `ice` is T_{n+1} with its
    frozen points, and the potential's 3-cycles are the small triangles of
    T_{n+1} except those through a `rule2-frozen` arrow (which stands for a
    composite, so no mesh carries it)."""
    iq = build_ice_quiver(build_quiver(f"A{n}"))
    ice = ({i + 1: fr for i, fr in enumerate(iq.frozen)}, list(iq.arrow_pairs()))
    frozen, arrows, triangles = fg_triangle(n)
    phi = find_isomorphism(ice, (frozen, arrows))
    assert phi is not None
    cycles = {frozenset([(phi[t.rho[1]], phi[m]), (phi[m], phi[t.rho[0]]),
                         (phi[t.rho[0]], phi[t.rho[1]])])
              for t in iq.potential for (_, m), _ in t.pairs}
    rule2 = {(phi[u], phi[v]) for u, v in iq.arrow_pairs(origin="rule2-frozen")}
    assert cycles == {t for t in triangles if not t & rule2}
    assert len(triangles) - len(cycles) == n - 1


def test_isomorphism_search_rejects_a_changed_quiver():
    # positive control: flipping one arrow or one frozen flag of T_4 is seen
    frozen, arrows, _ = fg_triangle(3)
    assert find_isomorphism((frozen, arrows), (frozen, arrows)) is not None
    (u, v), *rest = arrows
    assert find_isomorphism((frozen, arrows), (frozen, [(v, u), *rest])) is None
    p = next(p for p, fr in frozen.items() if not fr)
    assert find_isomorphism((frozen, arrows), ({**frozen, p: True}, arrows)) is None
