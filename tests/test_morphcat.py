import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy_kernel as NK
import quiverlab
from quiverlab.dynkin import build_quiver, coxeter_number, nakayama_involution
from quiverlab import morphcat as mp
from quiverlab import reps, stalks
from quiverlab.errors import GuardError, InternalCheckError
from quiverlab.stalks import DerivedLabel, e_exponent
from tests.test_dynkin import quiver_strategy
from tests.test_stalks import ORACLE_TYPES, _opposite_quivers, _oracle_quivers

SMALL = ["A1", "A2", "A3", "A4", "D4"]

# The full translation quiver over A3 (linear orientation), frozen:
# ids follow the canonical numbering.
A3_LABELS = [
    "M(P1)", "M(P2)", "M(P3)", "Z(1)", "M(t-1P1)", "M(t-1P2)",
    "E(1)", "Z(2)", "M(t-2P1)", "E(2)", "Z(3)", "E(3)",
]
A3_ARROWS = {
    (1, 2), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (5, 6), (5, 8),
    (6, 7), (6, 9), (7, 10), (8, 9), (9, 10), (9, 11), (10, 12), (11, 12),
}
A3_TAU = {(5, 1), (6, 2), (7, 3), (9, 5), (10, 6), (12, 9)}
A3_MESHES = {
    (5, 1, (2, 4)), (6, 2, (3, 5)), (7, 3, (6,)),
    (9, 5, (6, 8)), (10, 6, (7, 9)), (12, 9, (10, 11)),
}

# The seven power-functor assignments on the projective slice of A3,
# as (input id, source-term ids, target-term ids).
A3_POWER_STEPS = [
    (1, (4,), (5,)),
    (2, (4,), (6,)),
    (3, (4,), (7,)),
    (5, (4,), (9,)),
    (6, (4,), (10,)),
    (8, (4,), (11,)),
    (9, (4,), (12,)),
]


def test_a3_numbering():
    q = build_quiver("A3")
    assert [str(l) for l in mp.mpr_indecomposables(q)] == A3_LABELS


def test_a3_translation_quiver():
    q = build_quiver("A3")
    ar = mp.mpr_ar_quiver(q)
    assert len(ar.vertices) == 12
    assert set(ar.arrows) == A3_ARROWS
    assert set(ar.tau_pairs) == A3_TAU
    assert {(m.target, m.tau_target, m.middles) for m in ar.meshes} == A3_MESHES


def test_a1_chain():
    q = build_quiver("A1")
    ar = mp.mpr_ar_quiver(q)
    assert [str(l) for l in ar.vertices] == ["M(P1)", "Z(1)", "E(1)"]
    assert ar.arrows == ((1, 2), (2, 3))
    assert ar.tau_pairs == ((3, 1),)


@pytest.mark.parametrize(
    "name,count", [("A1", 3), ("A2", 7), ("A3", 12), ("A4", 18), ("D4", 20)]
)
def test_object_counts(name, count):
    # positive roots plus two framing families of size n
    q = build_quiver(name)
    assert len(mp.mpr_indecomposables(q)) == count


@settings(max_examples=20, deadline=None)
@given(quiver_strategy(SMALL))
def test_numbering_round_trips(q):
    num = mp.mpr_number(q)
    for lab, n in num.items():
        assert mp.label_by_number(q, n) == lab
    with pytest.raises(GuardError):
        mp.label_by_number(q, len(num) + 1)
    with pytest.raises(GuardError):
        mp.label_by_number(q, 0)


@settings(max_examples=20, deadline=None)
@given(quiver_strategy(SMALL))
def test_window_edges(q):
    star = nakayama_involution(q)
    for v in q.vertices:
        e = e_exponent(q, v)
        assert mp.window(q, v, 0) == mp.MprLabel(q, "mod", v, 0)
        assert mp.window(q, v, e) == mp.MprLabel(q, "done", star[v])


def test_presentations_by_kind():
    q = build_quiver("A2")
    z = mp.presentation(mp.MprLabel(q, "dzero", 1))
    assert z.p1 == (1,) and z.p0 == (1,) and z.mat[0][0] == 1
    e = mp.presentation(mp.MprLabel(q, "done", 2))
    assert e.p1 == (2,) and e.p0 == ()
    m = mp.presentation(mp.MprLabel(q, "mod", 1, 1))  # tauinv P1 = S2
    assert m.p1 == (1,) and m.p0 == (2,)


def test_embeddings():
    q = build_quiver("A3")
    p = reps.IndecLabel(q, 2, 0)
    assert mp.functor_D(-1, p) == mp.MprLabel(q, "mod", 2, 0)
    assert mp.functor_D(0, p) == mp.MprLabel(q, "dzero", 2)
    assert mp.functor_D(1, p) == mp.MprLabel(q, "done", 2)
    with pytest.raises(GuardError):
        mp.functor_D(2, p)
    with pytest.raises(GuardError):
        mp.functor_D(0, reps.IndecLabel(q, 1, 1))


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_hom_against_term_formulas(q):
    """Maps from the identity family and into either framing family reduce
    to path counts on one term of the presentation."""
    labels = mp.mpr_indecomposables(q)
    for u in q.vertices:
        z = mp.MprLabel(q, "dzero", u)
        e = mp.MprLabel(q, "done", u)
        for x in labels:
            t1 = mp.functor_C(1, x)
            t0 = mp.functor_C(0, x)
            assert mp.hom_dim_mpr(z, x) == sum(q.has_path(u, v) for v in t1)
            assert mp.hom_dim_mpr(x, z) == sum(q.has_path(v, u) for v in t0)
            assert mp.hom_dim_mpr(x, e) == sum(q.has_path(v, u) for v in t1)
            m = mp.MprLabel(q, "mod", u, 0)
            assert mp.hom_dim_mpr(m, x) == sum(q.has_path(u, v) for v in t0)


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_cone_classes(q):
    for x in mp.mpr_indecomposables(q):
        c = mp.cone(x)
        if x.kind == "dzero":
            assert c == []
        elif x.kind == "done":
            assert c == [DerivedLabel(q, x.vertex, 0, 1)]
        else:
            assert c == [DerivedLabel(q, x.vertex, x.power, 0)]


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_translate_matches_quiver(q):
    ar = mp.mpr_ar_quiver(q)
    num = mp.mpr_number(q)
    pairs = set()
    for x in mp.mpr_indecomposables(q):
        t = mp.tau_mpr(x)
        if x.kind == "dzero" or (x.kind == "mod" and x.power == 0):
            assert t is None
        if t is not None:
            pairs.add((num[x], num[t]))
    assert pairs == set(ar.tau_pairs)


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_meshes_use_incoming_arrows(q):
    ar = mp.mpr_ar_quiver(q)
    ins = {}
    for a, b in ar.arrows:
        ins.setdefault(b, set()).add(a)
    for m in ar.meshes:
        assert set(m.middles) == ins[m.target]
        for mid in m.middles:
            assert (m.tau_target, mid) in ar.arrows


def test_a3_power_functor_fixture():
    q = build_quiver("A3")
    num = mp.mpr_number(q)
    for n, src, tgt in A3_POWER_STEPS:
        u1, u0 = mp.f_presentation(mp.label_by_number(q, n))
        assert tuple(num[l] for l in u1) == src
        assert tuple(num[l] for l in u0) == tgt
    # the walk ends by wrapping the kill family into suspensions
    u1, u0 = mp.f_presentation(mp.label_by_number(q, 11))
    assert (tuple(num[l] for l in u1), u0) == ((4,), ())
    u1, u0 = mp.f_presentation(mp.label_by_number(q, 12))
    assert (tuple(num[l] for l in u1), u0) == ((7,), ())


@pytest.mark.parametrize("q", list(_oracle_quivers()))
def test_f_presentation_reads_the_functor_terms_from_the_knitting(q):
    """The identity and kill families map termwise through the derived
    inverse translate of P_v: its terms, knitted as dim Hom(S_w, P_v) and
    dim Ext^1(S_w, P_v) in vertex order, are the injective copresentation
    terms S and W of the matrix functor."""
    from quiverlab import complexes as cx

    F = cx.tau_inv_functor(q)
    for v in q.vertices:
        for kind in ("dzero", "done"):
            u1, u0 = mp.f_presentation(mp.MprLabel(q, kind, v))
            assert all(lab.kind == kind for lab in u1 + u0)
            assert (tuple(lab.vertex for lab in u1), tuple(lab.vertex for lab in u0)) == (F.S[v], F.W[v])


def test_f_presentation_still_raises_on_the_known_labels():
    """The known counting defect of the module family stays where
    `KNOWN_FPRES_DEFECT` in `perfbench/run.py` expects it: the labels below
    raise, and no other label of D4 or D5 does."""
    known = {"D4": {11, 12, 13, 14}, "D5": {19, 20, 21, 22, 23}}
    for t, bad in known.items():
        q = build_quiver(t)
        raised = set()
        for n, lab in enumerate(mp.mpr_indecomposables(q), start=1):
            try:
                mp.f_presentation(lab)
            except InternalCheckError:
                raised.add(n)
        assert raised == bad


def test_a3_power_walk_labels():
    q = build_quiver("A3")
    num = mp.mpr_number(q)
    hops = {1: 5, 2: 6, 3: 7, 5: 9, 6: 10, 9: 12}
    for a, b in hops.items():
        out = mp.f_power_label(mp.label_by_number(q, a), 1)
        assert out.shift == 0 and num[out.label()] == b


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_power_walk_wraps_with_suspension(q):
    star = nakayama_involution(q)
    for v in q.vertices:
        e = e_exponent(q, v)
        z = mp.MprLabel(q, "dzero", v)
        out = mp.f_power_label(z, e)
        assert (out.family, out.vertex, out.power, out.shift) == ("dzero", star[v], 0, 1)
        m = mp.MprLabel(q, "mod", v, 0)
        out = mp.f_power_label(m, e)
        assert (out.family, out.vertex, out.power, out.shift) == ("done", star[v], 0, 0)


def test_power_walk_composes():
    q = build_quiver("D4")
    x = mp.MprLabel(q, "dzero", 2)
    for p in range(6):
        step = mp.f_power_label(mp.f_power_label(x, p), 1)
        assert step == mp.f_power_label(x, p + 1)


# ---------------------------------------------------------------------------
# commuting squares against a hand-built linear system


def _hom_dim_mpr_by_system(x, y) -> int:
    """Commuting squares (f1, f0) with Y.mat f1 = f0 X.mat, solved as one
    linear system over the path-basis scalars of f1 and f0."""
    from quiverlab import complexes as cx

    X, Y = mp.presentation(x), mp.presentation(y)
    q = X.quiver
    mask1 = cx._hom_mask(q, X.p1, Y.p1)
    mask0 = cx._hom_mask(q, X.p0, Y.p0)
    vars1 = [(r, c) for r in range(len(Y.p1)) for c in range(len(X.p1)) if mask1[r][c]]
    vars0 = [(r, c) for r in range(len(Y.p0)) for c in range(len(X.p0)) if mask0[r][c]]
    nvar = len(vars1) + len(vars0)
    rows = []
    for a in range(len(Y.p0)):
        for b in range(len(X.p1)):
            row = np.zeros(nvar, dtype=np.int64)
            for k, (r, c) in enumerate(vars1):
                if c == b:
                    row[k] += Y.mat[a][r]
            for k, (r, c) in enumerate(vars0):
                if r == a:
                    row[len(vars1) + k] -= X.mat[c][b]
            rows.append(row)
    if not rows:
        return nvar
    return NK.nullspace(np.array(rows, dtype=np.int64)).shape[1]


def _default_and_reversed(names):
    for name in names:
        q = build_quiver(name)
        yield pytest.param(q, id=f"{name}-default")
        yield pytest.param(build_quiver(name, [(j, i) for i, j in q.arrows]), id=f"{name}-reversed")


def _stepwise_power_walk(x: mp.MprLabel, p: int) -> mp.MprQuotientLabel:
    """The power functor applied one step at a time: each lineage moves one
    slot per step, the module lineage crossing into the kill lineage at the
    window edge and the other two wrapping to the suspended start."""
    q = x.quiver
    _, exponents, star = stalks._defect_data(q)
    fam, v, k, s = x.kind, x.vertex, x.power, 0
    for _ in range(p):
        if k + 1 < exponents[v]:
            k += 1
        elif fam == "mod":
            fam, v, k = "done", star[v], 0
        else:
            v, k, s = star[v], 0, s + 1
    return mp.MprQuotientLabel(q, fam, v, k, s)


@pytest.mark.parametrize("q", list(_default_and_reversed(ORACLE_TYPES)))
def test_power_walk_matches_the_stepwise_walk(q):
    h = coxeter_number(q.dtype)
    for x in mp.mpr_indecomposables(q):
        for p in range(3 * h):
            assert mp.f_power_label(x, p) == _stepwise_power_walk(x, p)


@pytest.mark.parametrize("q", list(_default_and_reversed(["A3", "D5", "E6"])))
def test_resumed_power_walk_matches_the_stepwise_walk(q):
    """Every state the walk returns is one it accepts: a walk resumed from
    any of its states lands where the stepwise walk does."""
    h = coxeter_number(q.dtype)
    for x in mp.mpr_indecomposables(q):
        for a in range(2 * h):
            mid = mp.f_power_label(x, a)
            for b in (0, 1, h + 1):
                assert mp.f_power_label(mid, b) == _stepwise_power_walk(x, a + b)


@pytest.mark.parametrize("family, vertex, power", [
    ("mod", 1, 99), ("mod", 1, -5), ("mod", 9, 0),  # past the window, before it, no vertex
    ("dzero", 2, 4), ("done", 3, -1), ("free", 1, 0)])
def test_power_walk_refuses_states_outside_the_window(family, vertex, power):
    q = build_quiver("A3")
    with pytest.raises(GuardError, match="not a state of the power functor walk"):
        mp.f_power_label(mp.MprQuotientLabel(q, family, vertex, power, 0), 1)


@pytest.mark.parametrize("name", ["A3", "E8"])
def test_power_walk_repeats_after_a_full_lap(name):
    """Past the window edge, h more steps suspend twice (tauinv^h = Sigma^2),
    so a power of a million reads off a power below 2h."""
    q = build_quiver(name)
    h = coxeter_number(q.dtype)
    laps, rest = divmod(10**6, h)
    for x in mp.mpr_indecomposables(q):
        base = mp.f_power_label(x, h + rest)
        assert mp.f_power_label(x, 10**6 + h) == base._replace(shift=base.shift + 2 * laps)


@pytest.mark.parametrize("q", [*_oracle_quivers(), *_opposite_quivers()])
def test_no_two_labels_share_their_terms(q):
    """The lift keys labels by their knitted terms (p1, p0)."""
    labels = mp.mpr_indecomposables(q)
    assert len({mp._terms(lab) for lab in labels}) == len(labels)


@pytest.mark.parametrize("q", list(_default_and_reversed(ORACLE_TYPES)))
def test_cone_of_a_label_matches_a_split_of_its_object(q):
    # the cone of a label, label arithmetic, against the matrix split of its
    # object
    for x in mp.mpr_indecomposables(q):
        assert mp.cone(x) == mp.cone(mp.presentation(x)), x


@pytest.mark.parametrize("q", list(_default_and_reversed(["A1", "A2", "A3", "A4", "D4"])))
def test_hom_dim_mpr_matches_linear_system(q):
    labels = mp.mpr_indecomposables(q)
    for x, y in itertools.product(labels, labels):
        assert mp.hom_dim_mpr(x, y) == _hom_dim_mpr_by_system(x, y), (x, y)


# ---------------------------------------------------------------------------
# the two term routes check each other


@pytest.fixture
def fresh_memos():
    """Empty memos before and after, so that no result computed under a
    monkeypatch outlives the test."""
    quiverlab.clear_caches()
    yield
    quiverlab.clear_caches()


def test_mesh_check_sees_a_misplaced_identity_object(monkeypatch, fresh_memos):
    q = build_quiver("D5")
    dims, by_dims, simples = stalks._module_window(q)
    # move Z(1) to the slot of a module that is not simple; the knitted
    # presentation terms are read before, from the true simples
    lab = next(lab for lab, d in dims.items() if sum(d) > 1)
    assert lab not in simples.values()
    moved = {**simples, 1: lab}
    stalks.presentation_terms(q)
    monkeypatch.setattr(stalks, "_module_window", lambda _: (dims, by_dims, moved))
    with pytest.raises(InternalCheckError, match="mesh fails dimension additivity"):
        mp.mpr_ar_quiver(q)


def test_presentation_checks_the_knitted_terms(monkeypatch, fresh_memos):
    q = build_quiver("D5")
    lab = stalks.IndecLabel(q, 2, 1)
    terms = dict(stalks.presentation_terms(q))
    p1, p0 = terms[lab]
    terms[lab] = (p1, tuple(sorted(p0 + (1,))))
    monkeypatch.setattr(stalks, "presentation_terms", lambda _: terms)
    mp.presentation(mp.MprLabel(q, "mod", 2, 0))  # other labels still build
    with pytest.raises(InternalCheckError, match="other terms than the knitted presentation"):
        mp.presentation(mp.MprLabel(q, "mod", 2, 1))
