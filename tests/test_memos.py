"""The in-process memos: shared objects are read-only, labels map to one
object each, and `quiverlab.clear_caches` empties every memo without
changing any result."""

import numpy as np
import pytest

import quiverlab
from quiverlab import cli
from quiverlab import morphcat as mp
from quiverlab import reps
from quiverlab.dynkin import build_quiver


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
               "morphcat._label_presentation", "reps._indec_data", "cli.source_digest"):
        assert f"quiverlab.{fn}" in names


def test_clear_caches_empties_every_memo_and_keeps_results(capsys):
    argv = ["mpr", "--type", "E8", "--format", "json"]
    assert cli.main(argv) == 0
    before = capsys.readouterr().out
    assert sum(m.cache_info().currsize for m in quiverlab.memos().values()) > 0
    quiverlab.clear_caches()
    sizes = {name: m.cache_info().currsize for name, m in quiverlab.memos().items()}
    assert sizes and not any(sizes.values()), sizes
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
