import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverlab import reps
from quiverlab.dynkin import build_quiver, coxeter_number, nakayama_involution
from quiverlab.errors import InternalCheckError
from quiverlab.reps import (
    IndecLabel,
    decompose,
    direct_sum,
    dual,
    ext1_dim,
    euler_form,
    hom_basis,
    hom_dim,
    indec_rep,
    injective_rep,
    kernel,
    cokernel,
    list_indecomposables,
    Rep,
    min_presentation,
    assemble_projective_map,
    projective_rep,
    simple_rep,
    tau_inv_rep,
    tau_rep,
    zero_rep,
)

from quiverlab.stalks import e_exponent, knit_ar_quiver

from tests.test_dynkin import quiver_strategy
from tests.test_stalks import _oracle_quivers, _opposite_quivers

SMALL = ["A1", "A2", "A3", "A4", "D4"]


def small_quivers():
    return quiver_strategy(SMALL)


def test_projective_dimensions_follow_paths():
    q = build_quiver("A3", "1->2 2->3")
    # a projective lives on the vertices admitting a path into its label,
    # an injective on those reachable from its label
    assert projective_rep(q, 1).dim_vector() == (1, 0, 0)
    assert projective_rep(q, 3).dim_vector() == (1, 1, 1)
    assert injective_rep(q, 1).dim_vector() == (1, 1, 1)
    assert injective_rep(q, 3).dim_vector() == (0, 0, 1)
    assert simple_rep(q, 2).dim_vector() == (0, 1, 0)


@settings(max_examples=25, deadline=None)
@given(small_quivers())
def test_hom_between_projectives_counts_paths(q):
    for u, w in itertools.product(q.vertices, q.vertices):
        expect = 1 if q.has_path(u, w) else 0
        assert hom_dim(projective_rep(q, u), projective_rep(q, w)) == expect


@settings(max_examples=25, deadline=None)
@given(small_quivers())
def test_indecomposable_count_is_root_count(q):
    items = list_indecomposables(q)
    assert len(items) == q.dtype.positive_root_count()
    dims = {tuple(rep.dim_vector()) for _, rep in items}
    assert len(dims) == len(items)


@pytest.mark.parametrize("q", list(_oracle_quivers()))
def test_indecomposables_are_listed_in_power_then_topological_order(q):
    table, _ = reps._indec_data(q)
    topo = {v: i for i, v in enumerate(q.topological_order())}
    want = sorted(table.items(), key=lambda it: (it[0].power, topo[it[0].vertex]))
    items = list_indecomposables(q)
    assert items == want
    # each call hands out a fresh list; the memoized table is read-only
    items.reverse()
    assert list_indecomposables(q) == want
    with pytest.raises(TypeError):
        table[want[0][0]] = want[-1][1]


@settings(max_examples=25, deadline=None)
@given(small_quivers())
def test_orbit_lengths_pair_to_coxeter(q):
    # the orbit lengths of the matrix route, where tauinv first gives zero
    e = reps._indec_data(q)[1]
    assert e == e_exponent(q)
    h = coxeter_number(q.dtype)
    star = nakayama_involution(q)
    for v in q.vertices:
        assert e[v] + e[star[v]] == h
        # the orbit through P_v ends at the injective I_{v*}
        last = indec_rep(IndecLabel(q, v, e[v] - 1))
        assert last.dim_vector() == injective_rep(q, star[v]).dim_vector()


@settings(max_examples=20, deadline=None)
@given(small_quivers())
def test_tau_inverse_walks_the_orbit(q):
    e = e_exponent(q)
    for v in q.vertices:
        cur = projective_rep(q, v)
        for k in range(1, e[v]):
            cur = tau_inv_rep(cur)
            assert cur.dim_vector() == indec_rep(IndecLabel(q, v, k)).dim_vector()
        assert tau_inv_rep(cur).is_zero()  # injectives die


def test_kernel_cokernel_exactness():
    q = build_quiver("A2")
    f = hom_basis(projective_rep(q, 2), injective_rep(q, 1))[0]
    ker, incl = kernel(f)
    cok, proj = cokernel(f)
    # rank-nullity at each vertex
    for v in q.vertices:
        r = int(np.linalg.matrix_rank(f.mat(v)))
        assert ker.dim(v) == f.src.dim(v) - r
        assert cok.dim(v) == f.tgt.dim(v) - r
    incl.validate()
    proj.validate()


@settings(max_examples=15, deadline=None)
@given(small_quivers(), st.integers(0, 10**6))
def test_decompose_random_sums(q, seed):
    rng = np.random.default_rng(seed)
    items = list_indecomposables(q)
    picks = rng.integers(0, 3, len(items))
    reps = []
    for count, (_, rep) in zip(picks, items):
        reps.extend([rep] * int(count))
    if not reps:
        reps = [items[0][1]]
        picks = np.zeros(len(items), dtype=int)
        picks[0] = 1
    total, _ = direct_sum(reps)
    found = decompose(total)
    assert found == {lab: int(c) for (lab, _), c in zip(items, picks) if c}


@settings(max_examples=20, deadline=None)
@given(small_quivers())
def test_min_presentation_reassembles(q):
    for lab, rep in list_indecomposables(q):
        labels1, labels0, scal = min_presentation(rep)
        f = assemble_projective_map(q, labels1, labels0, scal)
        cok, _ = cokernel(f)
        assert cok.dim_vector() == rep.dim_vector()
        # minimality: no unit entries between equal labels
        for r, wt in enumerate(labels0):
            for c, ws in enumerate(labels1):
                if ws == wt:
                    assert scal[r][c] == 0


@pytest.mark.parametrize("q", list(_oracle_quivers()))
def test_dual_is_an_involution_exchanging_projectives_and_injectives(q):
    # the interned copy: the parameter was built before any test that ran
    # `clear_caches`, which ends the interning of older quivers
    q = q.opposite().opposite()
    for v in q.vertices:
        D = dual(projective_rep(q.opposite(), v))
        I = injective_rep(q, v)
        assert D.quiver is q
        assert (D.dims, dict(D.maps)) == (I.dims, dict(I.maps))
    for _, rep in list_indecomposables(q):
        back = dual(dual(rep))
        assert back.quiver is q
        assert (back.dims, dict(back.maps)) == (rep.dims, dict(rep.maps))


def test_dual_without_the_transpose_fails_on_a_non_square_map():
    """Positive control: reversing the arrows but keeping the matrices gives
    maps of the wrong shape, which `Rep` refuses."""
    q = build_quiver("D4")
    # the module of the highest root, 2-dimensional at the branch vertex
    M = max((rep for _, rep in list_indecomposables(q)), key=lambda rep: rep.total_dim)
    assert any(len(m) != len(m[0]) for m in M.maps.values())
    dual(M)
    with pytest.raises(InternalCheckError, match="bad map shape"):
        Rep(q.opposite(), M.dims, {(j, i): m for (i, j), m in M.maps.items()})


def test_copresentation_refuses_a_cokernel_that_is_not_injective(monkeypatch):
    """Positive control: a second envelope larger than the cokernel means
    the cokernel was not injective, which a hereditary algebra rules out."""
    q = build_quiver("A3")
    M = next(rep for _, rep in list_indecomposables(q) if reps.min_copresentation(rep)[2])
    envelope = reps._injective_envelope
    calls = []

    def too_large(N):
        labels, emb = envelope(N)
        calls.append(N)
        if len(calls) == 2:
            labels = labels + labels[:1]
        return labels, emb

    monkeypatch.setattr(reps, "_injective_envelope", too_large)
    with pytest.raises(InternalCheckError, match="cokernel of the injective envelope is not injective"):
        reps.min_copresentation(M)
    assert len(calls) == 2


@settings(max_examples=20, deadline=None)
@given(small_quivers())
def test_euler_form_computes_hom_minus_ext(q):
    items = list_indecomposables(q)
    for (la, ra), (lb, rb) in itertools.product(items, items):
        lhs = hom_dim(ra, rb) - ext1_dim(ra, rb)
        assert lhs == euler_form(q, ra.dim_vector(), rb.dim_vector())


def test_ext_routes_agree():
    # hom into the translate, whose reflections share no step with the
    # minimal-presentation route
    from quiverlab.reps import _ext1_via_presentation

    for t in ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"):
        q = build_quiver(t)
        items = list_indecomposables(q)
        for (_, ra), (_, rb) in itertools.product(items, items):
            assert ext1_dim(ra, rb) == _ext1_via_presentation(ra, rb)


def test_ext1_builds_no_presentation(monkeypatch):
    """`ext1_dim` reaches the translate through reflections, so it stays
    independent of `_ext1_via_presentation`."""
    import quiverlab.reps as reps_module

    q = build_quiver("D5", "2->1 2->3 4->3 3->5")
    items = list_indecomposables(q)
    calls = []
    presentation = reps_module.min_presentation

    def counted(M):
        calls.append(M)
        return presentation(M)

    monkeypatch.setattr(reps_module, "min_presentation", counted)
    total = sum(ext1_dim(ra, rb) for (_, ra), (_, rb) in itertools.product(items, items))
    assert total > 0 and calls == []
    # positive control: the other route is seen
    reps_module._ext1_via_presentation(items[-1][1], items[0][1])
    assert len(calls) == 1


@pytest.mark.parametrize("q", list(_oracle_quivers()))
def test_tau_walks_the_orbit_back(q):
    """The Coxeter functor against the table that `tau_inv_rep` knitted: it
    kills each projective and sends (v, k) to an indecomposable isomorphic
    to (v, k - 1)."""
    items = list_indecomposables(q)
    for lab, rep in items:
        T = tau_rep(rep)
        if lab.power == 0:
            assert T.is_zero()
            continue
        prev = indec_rep(IndecLabel(q, lab.vertex, lab.power - 1))
        assert T.dim_vector() == prev.dim_vector()
        assert hom_dim(T, T) == 1 and hom_dim(T, prev) == 1
    # additive: the projective summand dies, the repeated one doubles (on
    # A1 the last indecomposable is projective too)
    (_, P), (x, X) = items[0], items[-1]
    total, _ = direct_sum([P, X, X])
    want = {IndecLabel(q, x.vertex, x.power - 1): 2} if x.power else {}
    assert decompose(tau_rep(total)) == want


def test_ext_vanishes_from_projectives_and_into_injectives():
    q = build_quiver("A4", "1->2 3->2 3->4")
    for _, rep in list_indecomposables(q):
        for v in q.vertices:
            assert ext1_dim(projective_rep(q, v), rep) == 0
            assert ext1_dim(rep, injective_rep(q, v)) == 0


def test_decompose_homs_only_into_the_module(monkeypatch):
    """The hom counts between indecomposables come from the knitted table,
    so decomposing makes at most one matrix hom computation per
    indecomposable, and none into one whose dimension vector does not fit
    in what the summands found so far leave of the module's."""
    q = build_quiver("D5")
    items = list_indecomposables(q)
    total, _ = direct_sum([items[0][1], items[7][1], items[7][1], items[-1][1]])
    calls = []
    system = reps._hom_system

    def counted(M, N):
        calls.append((M, N))
        return system(M, N)

    monkeypatch.setattr(reps, "_hom_system", counted)
    found = decompose(total)
    assert found == {items[0][0]: 1, items[7][0]: 2, items[-1][0]: 1}
    assert all(N is total for _, N in calls)
    sources = [M for M, _ in calls]
    assert len(sources) == len(set(map(id, sources))) < len(items) == 20
    assert all(rep in sources for rep in (items[0][1], items[7][1], items[-1][1]))
    assert all(all(x <= y for x, y in zip(M.dim_vector(), total.dim_vector())) for M in sources)
    # the nullity count agrees with a validated basis on the sum
    assert all(hom_dim(M, total) == len(hom_basis(M, total)) for M in sources)


NULLITY_TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5"]


@pytest.mark.parametrize("q", [pytest.param(build_quiver(t), id=f"{t}-default") for t in NULLITY_TYPES]
                         + list(_opposite_quivers(NULLITY_TYPES)))
def test_hom_dim_is_the_size_of_a_validated_basis(q):
    # `hom_dim` counts the nullity of the intertwining equations; `hom_basis`
    # builds and validates one morphism per nullspace vector
    items = [rep for _, rep in list_indecomposables(q)]
    for M, N in itertools.product(items, items):
        assert hom_dim(M, N) == len(hom_basis(M, N))


# ---------------------------------------------------------------------------
# the knitted translation quiver


def test_knit_a2_chain():
    q = build_quiver("A2")
    ar = knit_ar_quiver(q)
    names = [str(l) for l in ar.vertices]
    assert names == ["P1", "P2", "t-1P1"]
    assert [(str(a), str(b)) for a, b in ar.arrows] == [("P1", "P2"), ("P2", "t-1P1")]
    assert [(str(a), str(b)) for a, b in ar.tau_pairs] == [("t-1P1", "P1")]


@settings(max_examples=20, deadline=None)
@given(small_quivers())
def test_mesh_dimension_additivity(q):
    """Around each translate pair, middle dims add up to the ends."""
    ar = knit_ar_quiver(q)
    ins = {}
    for a, b in ar.arrows:
        ins.setdefault(b, []).append(a)
    for x, tx in ar.tau_pairs:
        mid = sum(indec_rep(m).total_dim for m in ins.get(x, []))
        assert indec_rep(x).total_dim + indec_rep(tx).total_dim == mid


@settings(max_examples=20, deadline=None)
@given(small_quivers())
def test_ar_quiver_vertex_set(q):
    ar = knit_ar_quiver(q)
    assert set(ar.vertices) == {lab for lab, _ in list_indecomposables(q)}
    srcs = {a for a, _ in ar.tau_pairs}
    assert len(srcs) == len(ar.tau_pairs)
