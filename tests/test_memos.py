"""The in-process memos: shared objects are read-only, labels map to one
object each, and `quiverlab.clear_caches` empties every memo without
changing any result."""

import numpy as np
import pytest

import quiverlab
from quiverlab import boundary, cli
from quiverlab import complexes as cx
from quiverlab import morphcat as mp
from quiverlab import reps
from quiverlab.dynkin import build_quiver, coxeter_number
from quiverlab.errors import GuardError
from quiverlab.stalks import IndecLabel, e_exponent


def test_projective_rep_maps_are_read_only():
    q = build_quiver("A3")
    P = reps.projective_rep(q, 3)
    assert P is reps.projective_rep(q, 3)
    m = P.map((2, 3))
    assert m.shape == (1, 1)
    with pytest.raises(ValueError):
        m[0, 0] = 5
    assert reps.projective_rep(q, 3).map((2, 3))[0, 0] == 1


def test_canonical_morphism_matrices_are_read_only():
    q = build_quiver("D4")
    f = reps.canonical_projective_morphism(q, 1, 2)
    assert f is reps.canonical_projective_morphism(q, 1, 2)
    with pytest.raises(ValueError):
        f.mat(1)[0, 0] = 7
    g = reps.canonical_injective_morphism(q, 1, 2)
    with pytest.raises(ValueError):
        g.mat(2)[...] = 0


def test_presentation_is_shared_and_read_only():
    q = build_quiver("A3")
    lab = mp.MprLabel(q, "mod", 1, 1)
    obj = mp.presentation(lab)
    assert obj is mp.presentation(lab)
    assert mp.presentation(obj) is obj
    with pytest.raises(ValueError):
        obj.mat[0, 0] = 3
    with pytest.raises(ValueError):
        obj.mat += 1


def test_memos_cover_the_new_constructors():
    names = set(quiverlab.memos())
    for fn in ("reps.projective_rep", "reps.injective_rep",
               "reps.canonical_projective_morphism", "reps.canonical_injective_morphism",
               "morphcat._label_presentation", "reps._indec_data", "cli.source_digest",
               "complexes.tau_inv_orbit", "complexes._reachability",
               "stalks.presentation_terms"):
        assert f"quiverlab.{fn}" in names


def test_clear_caches_empties_every_memo_and_keeps_results(capsys):
    argv = ["mpr", "--type", "E8", "--format", "json"]
    assert cli.main(argv) == 0
    before = capsys.readouterr().out
    assert sum(m.cache_info().currsize for m in quiverlab.memos().values()) > 0
    quiverlab.clear_caches()
    sizes = {name: m.cache_info().currsize for name, m in quiverlab.memos().items()}
    assert sizes and not any(sizes.values()), sizes
    assert "quiverlab.complexes.tau_inv_orbit" in sizes and "quiverlab.complexes._reachability" in sizes
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == before
    # fresh objects after the clear, equal to the old ones
    q = build_quiver("E8")
    assert np.array_equal(reps.projective_rep(q, 2).map((1, 2)), np.ones((1, 1)))


def test_shared_objects_cannot_be_rebound():
    q = build_quiver("A3")
    with pytest.raises(TypeError):
        reps.projective_rep(q, 3).maps[(1, 2)] = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(TypeError):
        reps.canonical_projective_morphism(q, 1, 3).mats[0] = np.zeros((1, 1), dtype=np.int64)


def test_equal_quivers_share_hash_and_memo_entries():
    a, b = build_quiver("D5"), build_quiver("D5", "1->2 2->3 3->4 3->5")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != build_quiver("D5", "2->1 2->3 3->4 3->5")
    assert build_quiver("A3") < a  # ordering stays field by field
    reps.projective_rep.cache_clear()
    P = reps.projective_rep(a, 2)
    assert reps.projective_rep(b, 2) is P
    info = reps.projective_rep.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_orbit_and_reachability_arrays_are_read_only():
    q = build_quiver("D5")
    R = cx._reachability(q)
    assert R is cx._reachability(q)
    with pytest.raises(ValueError):
        R[0, 0] = False
    C = cx.tau_inv_orbit(q, 1, 2)
    assert C is cx.tau_inv_orbit(q, 1, 2) and C.diffs
    for m in C.diffs.values():
        with pytest.raises(ValueError):
            m[0, 0] = 1
    # the memo holds one lap past the window, no further
    last = e_exponent(q, 1) + coxeter_number(q.dtype) - 1
    cx.tau_inv_orbit(q, 1, last)
    with pytest.raises(GuardError):
        cx.tau_inv_orbit(q, 1, last + 1)


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_repeated_gamma_hom_minimizes_one_lap(monkeypatch):
    q = build_quiver("D4")
    h = coxeter_number(q.dtype)
    quiverlab.clear_caches()
    calls = _counting(monkeypatch, cx, "minimize")
    x, y = IndecLabel(q, 2, 0), IndecLabel(q, 2, 1)
    first = [boundary.gamma_hom(i, x, j, y) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    again = [boundary.gamma_hom(i, x, j, y) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    assert first == again
    assert 0 < len(calls) <= h + 1


def test_mpr_builds_no_matrix_translates(monkeypatch):
    q = build_quiver("E8")
    quiverlab.clear_caches()
    calls = _counting(monkeypatch, reps, "tau_inv_rep")
    assert len(mp.mpr_ar_quiver(q).meshes) == 120
    assert calls == []
