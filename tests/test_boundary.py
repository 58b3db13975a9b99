import itertools
from collections import Counter

import pytest

from quiverlab import complexes as cx
from quiverlab.boundary import (
    DEFAULT_FLOOR,
    export_hom_table,
    gamma_hom,
    hom_table,
    thm1_hom,
    thm2_hom,
)
from quiverlab.dynkin import build_quiver
from quiverlab.errors import GuardError
from quiverlab.morphcat import functor_C, functor_D, mpr_indecomposables
from quiverlab.reps import IndecLabel, list_indecomposables
from quiverlab.stalks import DerivedLabel, derived_hom, e_exponent, pi2_hom
from tests.test_complexes import (
    apply_map,
    compose_maps,
    embedding_slots,
    min_presentation_pcpx,
    unshared_two_column_dims,
)
from tests.test_morphcat import _default_and_reversed
from tests.test_stalks import ORACLE_TYPES, _opposite_quivers

EMBED = (-1, 0, 1)
FORBIDDEN = ((-1, 1), (0, -1), (1, 0))


def projectives(q):
    return [IndecLabel(q, v, 0) for v in q.vertices]


def test_a1_degree0_grid():
    table = hom_table(build_quiver("A1"))
    assert table.grid == ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    assert table.total() == 6


def test_a1_tsv_snapshot():
    text = export_hom_table(hom_table(build_quiver("A1")), "tsv")
    assert text == (
        "hom0\tD-1P1\tD0P1\tD1P1\n"
        "D-1P1\t1\t1\t0\n"
        "D0P1\t0\t1\t1\n"
        "D1P1\t1\t0\t1\n"
    )


def test_a2_cells_are_uniform():
    q = build_quiver("A2")
    ladder = {0: 1, -1: 1, -2: 1, -3: 1}
    for (i, j) in itertools.product(EMBED, EMBED):
        for x, y in itertools.product(projectives(q), projectives(q)):
            g = thm1_hom(i, x, j, y)
            if (i, j) in FORBIDDEN:
                assert not g
            else:
                assert g == ladder


def test_a3_middle_slot_doubles():
    q = build_quiver("A3")
    P = projectives(q)
    for (i, j) in ((-1, -1), (1, -1)):
        for x, y in itertools.product(P, P):
            g = thm1_hom(i, x, j, y)
            want = 2 if x.vertex == y.vertex == 2 else 1
            assert g == {0: want, -1: want, -2: want, -3: want}


def test_totals_are_six_times_the_loop_algebra():
    from quiverlab.higgs import preprojective_algebra

    for name in ("A1", "A2", "A3"):
        q = build_quiver(name)
        assert hom_table(q).total() == 6 * preprojective_algebra(q).dim


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4"])
def test_adjacent_embeddings_never_map(name):
    q = build_quiver(name)
    for i in EMBED:
        j = i - 1
        if j not in EMBED:
            continue
        for x, y in itertools.product(projectives(q), projectives(q)):
            assert not thm1_hom(i, x, j, y)


def test_embedding_index_guard():
    q = build_quiver("A1")
    p = IndecLabel(q, 1, 0)
    with pytest.raises(GuardError):
        thm1_hom(2, p, 0, p)
    with pytest.raises(GuardError):
        thm2_hom(-2, p, mpr_indecomposables(q)[0])
    for i, j in ((2, 0), (0, -2)):
        with pytest.raises(GuardError):
            gamma_hom(i, p, j, p)


@pytest.mark.parametrize("name", ["A1", "A2"])
def test_thm2_agrees_with_thm1_on_embedded_projectives(name):
    q = build_quiver(name)
    for i, j in itertools.product(EMBED, EMBED):
        for x, y in itertools.product(projectives(q), projectives(q)):
            assert thm2_hom(i, x, functor_D(j, y)) == thm1_hom(i, x, j, y)


def test_thm2_on_a_general_object():
    # against the term formulas: identity-embedded source sees the source term
    q = build_quiver("A2")
    Y = mpr_indecomposables(q)[3]  # M(t-1P1): P1 -> P2
    x = IndecLabel(q, 2, 0)
    from quiverlab.boundary import _pi2_over_labels

    assert thm2_hom(0, x, Y) == _pi2_over_labels(x, (1,), q, -3)
    assert thm2_hom(-1, x, Y) == _pi2_over_labels(x, (2,), q, -3)


def test_thm2_adds_the_orbit_homs_of_every_term():
    # a term with several summands whose orbit homs share a degree: thm2
    # adds them degree by degree
    q = build_quiver("D4")
    shared = 0
    for Y, x in itertools.product(mpr_indecomposables(q), projectives(q)):
        for i, c in ((-1, 0), (0, 1)):
            parts = [pi2_hom(x, IndecLabel(q, v, 0), min_degree=DEFAULT_FLOOR) for v in functor_C(c, Y)]
            assert thm2_hom(i, x, Y) == dict(sum(map(Counter, parts), Counter()))
            shared += sum(map(len, parts)) > len(set().union(*parts))
    assert shared


def test_thm2_on_labels_splits_no_complex(monkeypatch):
    # the i = 1 case reads the cone of the label it is given, which is label
    # arithmetic: no complex is split
    q = build_quiver("D5")
    calls = []
    split = cx.split_complex
    monkeypatch.setattr(cx, "split_complex", lambda C: calls.append(C) or split(C))
    for x, j, y in itertools.product(projectives(q), EMBED, projectives(q)):
        thm2_hom(1, x, functor_D(j, y))
    assert calls == []


EVOLUTION_TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6"]


@pytest.mark.parametrize("q", [*(pytest.param(build_quiver(t), id=t) for t in EVOLUTION_TYPES),
                               *_opposite_quivers(EVOLUTION_TYPES)])
def test_evolution_oracle_matches_case_map(q):
    """Every embedding pair, including the three that the case map sends to
    zero, and every pair of projectives."""
    for i, j in itertools.product(EMBED, EMBED):
        for x, y in itertools.product(projectives(q), projectives(q)):
            assert gamma_hom(i, x, j, y) == thm1_hom(i, x, j, y)


def test_evolution_oracle_spot_checks_a3():
    q = build_quiver("A3")
    P = projectives(q)
    cases = [(-1, P[1], -1, P[1]), (1, P[0], -1, P[2]), (0, P[2], 1, P[0])]
    for i, x, j, y in cases:
        assert gamma_hom(i, x, j, y) == thm1_hom(i, x, j, y)


@pytest.mark.parametrize("name", ["A1", "A2", "A3"])
def test_degree0_support_matches_frozen_subquiver(name):
    # Arrows between frozen vertices of the decorated quiver run in the same
    # direction as nonzero degree-0 hom cells, and zero cells carry no arrow.
    # Dimensions alone cannot recover rad/rad^2 multiplicities, so the check
    # stays at support level.
    from quiverlab.ice import build_ice_quiver
    from quiverlab.morphcat import mpr_number

    q = build_quiver(name)
    table = hom_table(q)
    iq = build_ice_quiver(q)
    number = mpr_number(q)
    position = {
        number[functor_D(i, IndecLabel(q, v, 0))]: n
        for n, (i, v) in enumerate(table.keys)
    }
    frozen = set(iq.frozen_ids())
    assert frozen == set(position)
    arrows = {
        (s, d) for (s, d) in iq.arrow_pairs() if s in frozen and d in frozen
    }
    for s, d in arrows:
        assert table.grid[position[s]][position[d]] > 0
    for s, d in itertools.product(frozen, frozen):
        if s != d and table.grid[position[s]][position[d]] == 0:
            assert (s, d) not in arrows


def test_min_degree_floor():
    q = build_quiver("A2")
    p = IndecLabel(q, 1, 0)
    g = thm1_hom(-1, p, -1, p, min_degree=-1)
    assert g == {0: 1, -1: 1}
    assert thm1_hom(-1, p, -1, p, min_degree=0) == {0: 1}


@pytest.mark.parametrize("name", ORACLE_TYPES)
def test_table_walks_to_degree_zero_only(name):
    # the table's walks stop at degree 0; the full walks to the default
    # floor have the same degree-0 entries
    q = build_quiver(name)
    keys = [(i, IndecLabel(q, v, 0)) for i in EMBED for v in q.vertices]
    grid = tuple(tuple(thm1_hom(i, x, j, y, min_degree=DEFAULT_FLOOR).get(0, 0) for j, y in keys)
                 for i, x in keys)
    assert hom_table(q).grid == grid


def test_table_json_fields():
    t = hom_table(build_quiver("A2"))
    data = t.to_json()
    assert data["total"] == t.total() == 24
    assert len(data["keys"]) == 6 and len(data["grid"]) == 6


# ---------------------------------------------------------------------------
# the one-complex evolution against the two-slot evolution


def _two_slot_orbit(j, y):
    """Target slots (N0, N1, connecting map) at powers 0..h, with both slots
    and their connecting map transported separately: each slot is
    translated and minimized, and the translated map is conjugated by the
    minimizing transports."""
    from quiverlab.dynkin import coxeter_number

    q = y.quiver
    N0, N1, nmap = embedding_slots(j, min_presentation_pcpx(y))
    T = cx.tau_inv_functor(q)
    out = []
    for _ in range(coxeter_number(q.dtype) + 1):
        out.append((N0, N1, nmap))
        TN0, TN1 = T.apply(N0), T.apply(N1)
        Tn = apply_map(T, nmap, TN1, TN0)
        N0, _, p0 = cx.minimize(TN0)
        N1, i1, _ = cx.minimize(TN1)
        nmap = compose_maps(p0, compose_maps(Tn, i1))
    return out


def _gamma_two_slots(i, x, orbit, min_degree=-3):
    """The orbit sum over a `_two_slot_orbit` of the target, totalized by
    the dense oracle, which takes any connecting maps."""
    X0, X1, xmap = embedding_slots(i, min_presentation_pcpx(x))
    raw = [unshared_two_column_dims(X0, X1, xmap, *slots) for slots in orbit]
    h = len(orbit) - 1
    assert raw[h] == {d - 2: n for d, n in raw[0].items()}
    total = {}
    for contrib in raw[:h]:
        s = 0
        while contrib and max(contrib) - 2 * s >= min_degree:
            for d, n in contrib.items():
                if min_degree <= d - 2 * s <= 0:
                    total[d - 2 * s] = total.get(d - 2 * s, 0) + n
            s += 1
    return total


@pytest.mark.parametrize("q", list(_default_and_reversed(["A2", "A3", "D4"])))
def test_one_complex_evolution_matches_two_slots(q):
    labels = [lab for lab, _ in list_indecomposables(q)]
    # targets: every projective, one module in the middle of the longest
    # orbit and the last injective; sources: a projective and an injective
    targets = sorted({labels[len(labels) // 2], labels[-1]} | set(projectives(q)))
    sources = (labels[0], labels[-1])
    for j, y in itertools.product(EMBED, targets):
        orbit = _two_slot_orbit(j, y)
        for i, x in itertools.product(EMBED, sources):
            assert gamma_hom(i, x, j, y) == _gamma_two_slots(i, x, orbit), (i, x, j, y)


def _plain_graded(g, min_degree=None) -> bool:
    """A plain dict {degree: dim} of ints, with no zero value and, when a
    floor is given, no degree below it."""
    return (type(g) is dict
            and all(type(d) is int and (min_degree is None or d >= min_degree) for d in g)
            and all(type(n) is int and n > 0 for n in g.values()))


@pytest.mark.parametrize("q", [*(pytest.param(build_quiver(t), id=f"{t}-default") for t in ORACLE_TYPES),
                               *_opposite_quivers()])
def test_graded_homs_are_plain_dicts(q):
    P = projectives(q)
    last = [IndecLabel(q, v, e_exponent(q, v) - 1) for v in q.vertices]
    for x, y in itertools.product(P + last, P + last):
        for s in (-1, 0, 1, 2):
            assert _plain_graded(derived_hom(x, DerivedLabel(q, y.vertex, y.power, s)))
        assert _plain_graded(pi2_hom(x, y, min_degree=-4), -4)
    # the cone term of the (1, -1) case and of thm2 at i = 1 walks one degree
    # further; sums over several labels merge into one dict
    objects = mpr_indecomposables(q)[::max(1, len(mpr_indecomposables(q)) // 5)]
    for i in EMBED:
        for floor in (0, DEFAULT_FLOOR):
            for j, y in itertools.product(EMBED, (P[0], P[-1])):
                assert _plain_graded(thm1_hom(i, P[0], j, y, min_degree=floor), floor)
            for Y in objects:
                assert _plain_graded(thm2_hom(i, P[-1], Y, min_degree=floor), floor)
        for j in EMBED:
            assert _plain_graded(gamma_hom(i, P[0], j, P[-1]), DEFAULT_FLOOR)


@pytest.mark.parametrize("name", ["A3", "E8"])
def test_case_map_matches_evolution_at_deep_floors(name):
    """The case map walks orbits down to the floor; the evolution route
    sums one lap and repeats it two degrees down per lap."""
    q = build_quiver(name)
    P = projectives(q)
    pairs = itertools.product(P, P) if name == "A3" else [(P[0], P[1]), (P[-1], P[0])]
    for x, y in pairs:
        for i, j in itertools.product(EMBED, EMBED):
            for floor in (-20, -40):
                assert thm1_hom(i, x, j, y, min_degree=floor) == gamma_hom(i, x, j, y, min_degree=floor)
