import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiverlab import reps, stalks
from quiverlab.dynkin import DynkinType, build_quiver, coxeter_number, nakayama_involution
from quiverlab.reps import IndecLabel, ext1_dim as rep_ext1, hom_dim as rep_hom, list_indecomposables
from quiverlab.stalks import (
    DerivedLabel,
    as_derived_label,
    derived_hom,
    e_exponent,
    knit_ar_quiver,
    normalize_label,
    pi2_hom,
    sigma,
)

from tests.test_dynkin import quiver_strategy

SMALL = ["A1", "A2", "A3", "A4", "D4"]


# ---------------------------------------------------------------------------
# exponents


@settings(max_examples=25, deadline=None)
@given(quiver_strategy(SMALL + ["D5", "E6"]))
def test_exponents_match_orbit_lengths(q):
    # dual route: the knitting-table exponents equal the module-category
    # orbit lengths computed representation by representation
    assert e_exponent(q) == reps._indec_data(q)[1]
    h = coxeter_number(q.dtype)
    star = nakayama_involution(q)
    for v in q.vertices:
        assert e_exponent(q, v) + e_exponent(q, star[v]) == h


def test_e6_exponent_profile():
    q = build_quiver("E6")
    assert [e_exponent(q, v) for v in q.vertices] == [8, 7, 6, 5, 4, 6]


# ---------------------------------------------------------------------------
# label arithmetic


@settings(max_examples=20, deadline=None)
@given(quiver_strategy(SMALL))
def test_orbit_closes_after_coxeter_steps(q):
    # walking the full inverse-translate orbit for h steps lands on the
    # double suspension of the same stalk
    h = coxeter_number(q.dtype)
    for v in q.vertices:
        lab = normalize_label(q, v, 0)
        cur = lab
        for _ in range(h):
            cur = normalize_label(q, cur.vertex, cur.power + 1, cur.shift)
        assert cur == DerivedLabel(q, v, 0, 2)
        assert sigma(lab, 2) == cur


def test_normalization_walks_into_the_window():
    q = build_quiver("A2")
    # e_1 = 2, so tauinv^2 P_1 is the suspended projective at the star
    lab = normalize_label(q, 1, 2)
    assert (lab.vertex, lab.power, lab.shift) == (2, 0, 1)
    back = normalize_label(q, 1, -1)
    assert (back.vertex, back.power, back.shift) == (2, 0, -1)


# ---------------------------------------------------------------------------
# graded homs


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_derived_hom_degree0_matches_module_homs(q):
    items = [lab for lab, _ in list_indecomposables(q)]
    for a, b in itertools.product(items, items):
        g = derived_hom(a, b)
        assert g.get(0, 0) == rep_hom(a, b)
        # stalk-to-stalk homs sit in one degree, and between modules that
        # degree is 0 (plain homs) or 1 (extensions)
        assert len(g) <= 1
        assert all(d in (0, 1) for d in g)


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_derived_hom_degree1_is_ext(q):
    items = [lab for lab, _ in list_indecomposables(q)]
    for a, b in itertools.product(items, items):
        assert derived_hom(a, b).get(1, 0) == rep_ext1(a, b)


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL))
def test_suspension_shifts_derived_hom(q):
    items = [as_derived_label(lab) for lab, _ in list_indecomposables(q)]
    for a, b in itertools.product(items[:4], items[:4]):
        base = derived_hom(a, b)
        # suspending the target moves every entry down one degree
        assert derived_hom(a, sigma(b)) == {d - 1: n for d, n in base.items()}
        assert derived_hom(sigma(a), sigma(b)) == base


@settings(max_examples=10, deadline=None)
@given(quiver_strategy(SMALL))
def test_orbit_sum_hom_nonpositive_from_projectives(q):
    for u in q.vertices:
        src = normalize_label(q, u, 0)
        for v in q.vertices:
            g = pi2_hom(src, normalize_label(q, v, 0), min_degree=-6)
            assert all(d <= 0 for d in g)
            # degree 0 of the orbit sum dominates the plain module hom
            assert g.get(0, 0) >= derived_hom(src, normalize_label(q, v, 0)).get(0, 0)


@settings(max_examples=15, deadline=None)
@given(quiver_strategy(SMALL + ["D5"]), st.data())
def test_homs_of_labels_outside_the_window(q, data):
    """A label of any power is read through its normalized form."""
    h = coxeter_number(q.dtype)
    label = st.builds(IndecLabel, st.just(q), st.sampled_from(q.vertices), st.integers(-h, 2 * h))
    label |= st.builds(DerivedLabel, st.just(q), st.sampled_from(q.vertices),
                       st.integers(-h, 2 * h), st.integers(-2, 2))
    for _ in range(10):
        x, y = data.draw(label), data.draw(label)
        a, b = as_derived_label(x), as_derived_label(y)
        assert 0 <= a.power < e_exponent(q, a.vertex)
        assert derived_hom(x, y) == derived_hom(a, b)
        assert pi2_hom(x, y, min_degree=-4) == pi2_hom(a, b, min_degree=-4)


def test_pi2_a1_self():
    q = build_quiver("A1")
    p = normalize_label(q, 1, 0)
    g = pi2_hom(p, p, min_degree=-4)
    # the single-vertex orbit steps down one degree per translate
    assert g == {0: 1, -1: 1, -2: 1, -3: 1, -4: 1}


def one_cluster_hom(x, y) -> int:
    """Total degree-0 hom from x into the full two-sided tauinv orbit of y,
    as one `pi2_hom` walk started 2h steps back: tau^(2h) y is Sigma^-4 y,
    so every step before that start sits above degree 0."""
    b = as_derived_label(y)
    h = coxeter_number(b.quiver.dtype)
    start = DerivedLabel(b.quiver, b.vertex, b.power - 2 * h, b.shift)
    return pi2_hom(x, start, min_degree=0).get(0, 0)


def test_orbit_total_hom_fixtures():
    q = build_quiver("A1")
    p = normalize_label(q, 1, 0)
    assert one_cluster_hom(p, p) == 1
    q3 = build_quiver("A3")
    for u, v in itertools.product(q3.vertices, q3.vertices):
        want = 2 if u == v == 2 else 1
        assert one_cluster_hom(normalize_label(q3, u, 0), normalize_label(q3, v, 0)) == want


def test_orbit_total_hom_a2_projective_total():
    # over the two-vertex chain the pairwise totals add up to the loop
    # algebra dimension
    q = build_quiver("A2")
    total = sum(
        one_cluster_hom(normalize_label(q, u, 0), normalize_label(q, v, 0))
        for u, v in itertools.product(q.vertices, q.vertices)
    )
    assert total == 4


def test_orbit_total_hom_translation_invariance():
    q = build_quiver("A3")
    x = DerivedLabel(q, 2, 0, 0)
    y = DerivedLabel(q, 3, 1, 0)
    base = one_cluster_hom(x, y)
    tx, ty = normalize_label(q, 2, -1, 0), normalize_label(q, 3, 0, 0)  # the translates
    assert one_cluster_hom(x, ty) == base
    assert one_cluster_hom(tx, ty) == base
    assert one_cluster_hom(sigma(x), sigma(y)) == base


def test_orbit_total_hom_brute_force():
    # independent route: window-summed degree-0 entries of the graded homs
    def brute(a, b, rng=40):
        total = 0
        for p in range(-rng, rng + 1):
            lab = DerivedLabel(b.quiver, b.vertex, b.power + p, b.shift)
            total += derived_hom(a, lab).get(0, 0)
        return total

    for name in ("A2", "A3"):
        q = build_quiver(name)
        labels = [DerivedLabel(q, v, k, s)
                  for v in q.vertices for k in (0, 1) for s in (0, 1)]
        for a in labels[:4]:
            for b in labels:
                assert one_cluster_hom(a, b) == brute(a, b)


def test_orbit_closure_is_shift_equivariant():
    # the h-step closure holds wherever the stalk starts in the derived
    # direction, not just for honest modules
    for name in SMALL:
        q = build_quiver(name)
        h = coxeter_number(q.dtype)
        for v in q.vertices:
            for k in (0, 1):
                for s in range(-3, 4):
                    lab = DerivedLabel(q, v, k, s)
                    cur = lab
                    for _ in range(h):
                        cur = normalize_label(q, cur.vertex, cur.power + 1, cur.shift)
                    want = sigma(lab, 2)
                    assert normalize_label(
                        q, cur.vertex, cur.power, cur.shift
                    ) == normalize_label(q, want.vertex, want.power, want.shift)


# ---------------------------------------------------------------------------
# the knitted module category against the matrix route


ORACLE_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]


def _oracle_quivers(types=ORACLE_TYPES):
    """Each type in its default orientation and in two seeded ones."""
    for t in types:
        yield pytest.param(build_quiver(t), id=f"{t}-default")
        for seed in (1, 2):
            rng = random.Random(f"{t}/{seed}")
            edges = [(i, j) if rng.random() < 0.5 else (j, i) for i, j in DynkinType.parse(t).edges]
            yield pytest.param(build_quiver(t, edges), id=f"{t}-seed{seed}")


def _opposite_quivers(types=ORACLE_TYPES):
    """Each type in the opposite of its default orientation."""
    for t in types:
        yield pytest.param(build_quiver(t).opposite(), id=f"{t}-opposite")


@pytest.mark.parametrize("q", list(_oracle_quivers()))
def test_knitted_window_matches_matrix_route(q):
    table, orbit_len = reps._indec_data(q)
    dims = stalks._module_window(q)[0]
    # same labels in the same order, same dimension vectors, same orbits
    assert list(dims) == [lab for lab, _ in reps.list_indecomposables(q)]
    assert dims == {lab: rep.dim_vector() for lab, rep in table.items()}
    assert e_exponent(q) == orbit_len
    ar = knit_ar_quiver(q)
    assert list(ar.vertices) == list(dims)

    def matrix_label(d):
        return next(lab for lab, rep in table.items() if rep.dim_vector() == d)

    for v in q.vertices:
        for rep in (reps.simple_rep(q, v), reps.injective_rep(q, v)):
            d = rep.dim_vector()
            assert stalks._module_window(q)[1][d] == matrix_label(d)


HOM_MATRIX_TYPES = [f"A{n}" for n in range(1, 7)] + ["D4", "D5", "D6", "E6"]


@pytest.mark.parametrize("q", list(_oracle_quivers(HOM_MATRIX_TYPES)))
def test_module_hom_matrix_matches_matrix_route(q):
    H = stalks._module_hom_matrix(q)
    items = reps.list_indecomposables(q)
    assert list(stalks._module_window(q)[0]) == [lab for lab, _ in items]
    assert H == tuple(tuple(rep_hom(x, y) for _, y in items) for _, x in items)


# ---------------------------------------------------------------------------
# graded homs against a per-vertex scalar knit


def _reference_hom_table(q, i):
    """f[j][m] = dim Hom(P_i, tauinv^m P_j), knitted as a scalar table from
    its own seed: dim Hom(P_i, P_j) = 1 exactly when there is a path i ~> j."""
    depth = 2 * coxeter_number(q.dtype)
    table = stalks._knit(q, {j: (int(q.has_path(i, j)),) for j in q.vertices}, depth)
    return {j: [row[0] for row in rows] for j, rows in table.items()}


def _reference_derived_hom(a, b, tables):
    rel = normalize_label(a.quiver, b.vertex, b.power - a.power, b.shift - a.shift)
    f = tables[a.vertex][rel.vertex][rel.power]
    return {-rel.shift: f} if f else {}


def _reference_pi2_hom(a, b, min_degree, tables):
    """Every step of the orbit walk normalized from scratch."""
    q = a.quiver
    out = {}
    for p in range(8 * coxeter_number(q.dtype) + 9):
        rel = normalize_label(q, b.vertex, b.power + p - a.power, b.shift - a.shift)
        if -rel.shift < min_degree:
            return {d: n for d, n in out.items() if n}
        out[-rel.shift] = out.get(-rel.shift, 0) + tables[a.vertex][rel.vertex][rel.power]
    raise AssertionError("orbit walk failed to leave the degree window")


@pytest.mark.parametrize("q", [*_oracle_quivers(), *_opposite_quivers()])
def test_graded_homs_match_a_scalar_knit_per_vertex(q):
    """`derived_hom` and `pi2_hom` read coordinate i of the defect table
    and step along its orbits; the reference knits one scalar table per
    source vertex and normalizes every step of the walk."""
    tables = {i: _reference_hom_table(q, i) for i in q.vertices}
    window = list(stalks._module_window(q)[0])
    for a in map(as_derived_label, window):
        for b in (DerivedLabel(q, lab.vertex, lab.power, s) for lab in window for s in (0, 1)):
            assert derived_hom(a, b) == _reference_derived_hom(a, b, tables)
    # the walks start from the projectives, the last slot of each orbit and
    # one suspended stalk, into every module label
    last = [normalize_label(q, v, e_exponent(q, v) - 1) for v in q.vertices]
    sources = [normalize_label(q, v, 0) for v in q.vertices] + last + [sigma(last[0])]
    for a in sources:
        for b in window:
            b = as_derived_label(b)
            for floor in (0, -3, -6):
                assert pi2_hom(a, b, floor) == _reference_pi2_hom(a, b, floor, tables)


# ---------------------------------------------------------------------------
# closed-form normalization against the stepwise walk


def _stepwise_normalize(exponents, star, v, k, s):
    """The orbit walked one window at a time: the oracle for the closed
    form of `stalks._normalize_raw`."""
    while k >= exponents[v]:
        k -= exponents[v]
        v = star[v]
        s += 1
    while k < 0:
        v = star[v]
        k += exponents[v]
        s -= 1
    return v, k, s


@pytest.mark.parametrize("q", [*(pytest.param(build_quiver(t), id=f"{t}-default") for t in ORACLE_TYPES),
                               *_opposite_quivers()])
def test_closed_form_normalization_matches_the_stepwise_walk(q):
    h = coxeter_number(q.dtype)
    _, exponents, star = stalks._defect_data(q)
    for v in q.vertices:
        for k in range(-4 * h, 4 * h):
            for s in (-2, 0, 3):
                want = _stepwise_normalize(exponents, star, v, k, s)
                assert stalks._normalize_raw(exponents, star, v, k, s) == want


@pytest.mark.parametrize("name", ["A3", "E8"])
def test_a_huge_power_normalizes_by_whole_laps(name):
    """tauinv^h = Sigma^2, so a power of a million is its residue mod h
    suspended twice per lap; the stepwise walk agrees."""
    q = build_quiver(name)
    h = coxeter_number(q.dtype)
    _, exponents, star = stalks._defect_data(q)
    for v in q.vertices:
        for k in (10**6, -(10**6), 10**6 + h // 2):
            laps, rest = divmod(k, h)
            assert normalize_label(q, v, k) == sigma(normalize_label(q, v, rest), 2 * laps)
            assert sigma(DerivedLabel(q, v, k, 0), 3) == normalize_label(q, v, k, 3)
    want = _stepwise_normalize(exponents, star, 1, 10**6, 0)
    assert normalize_label(q, 1, 10**6) == DerivedLabel(q, *want)


@pytest.mark.parametrize("name", ["A3", "E8"])
def test_deep_floors_truncate_and_repeat_every_two_degrees(name):
    """A walk to floor -40 or -20 holds the shallower walk on their shared
    degrees, and below the first lap it repeats with period 2
    (tauinv^h = Sigma^2).  The reference walk checks the shallow floor."""
    q = build_quiver(name)
    tables = {i: _reference_hom_table(q, i) for i in q.vertices}
    window = [as_derived_label(lab) for lab in stalks._module_window(q)[0]]
    for a in window[: 2 * q.rank] + [sigma(window[-1])]:
        for b in window:
            walks = {floor: pi2_hom(a, b, floor) for floor in (-10, -20, -40)}
            assert walks[-10] == _reference_pi2_hom(a, b, -10, tables)
            for upper, lower in ((-10, -20), (-20, -40)):
                assert {d: n for d, n in walks[lower].items() if d >= upper} == walks[upper]
            deep = walks[-40]
            assert min(deep) == -40
            for d in range(-40, -10):
                assert deep.get(d, 0) == deep.get(d + 2, 0)
