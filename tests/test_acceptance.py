"""Acceptance gate: eleven end-to-end criteria, each printing one
[PASS]/[FAIL] line with its runtime against the stated budget."""

import itertools
import json
import os
import random
import subprocess
import sys
import time


import quiverlab
from quiverlab import boundary
from quiverlab import braids as br
from quiverlab import dynkin as dy
from quiverlab import higgs as hg
from quiverlab import lifting as lf
from quiverlab import morphcat as mc
from quiverlab import reps
from quiverlab.reps import IndecLabel

from tests.test_braids import adjacency, random_word, rewrite
from tests.test_ice import A3_FROZEN_ARROWS, A3_MESH_REVERSE
from tests.test_morphcat import A3_ARROWS, A3_LABELS, A3_POWER_STEPS, A3_TAU


def criterion(num, desc, budget, fn):
    t0 = time.perf_counter()
    err = None
    try:
        fn()
    except BaseException as e:  # noqa: BLE001 - reported then re-raised
        err = e
    dt = time.perf_counter() - t0
    ok = err is None and dt < budget
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc} "
          f"({dt:.2f}s / {budget:.0f}s)")
    if err is not None:
        raise err
    assert dt < budget, f"criterion {num} exceeded its {budget:.0f}s budget"


def cli_json(*args):
    # Run the CLI of the very package under test, not a script found on
    # PATH, and without a disk cache that could replay older output.
    env = dict(os.environ)
    env.pop("QUIVERLAB_CACHE_DIR", None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(quiverlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quiverlab", *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def projectives(q):
    return [IndecLabel(q, v, 0) for v in q.vertices]


def test_criterion_01_mpr_quiver():
    def check():
        out = cli_json("mpr", "--type", "A3", "--format", "json")

        def name(v):
            if v["kind"] == "dzero":
                return f"Z({v['vertex']})"
            if v["kind"] == "done":
                return f"E({v['vertex']})"
            if v["power"] == 0:
                return f"M(P{v['vertex']})"
            return f"M(t-{v['power']}P{v['vertex']})"

        assert [name(v) for v in out["vertices"]] == list(A3_LABELS)
        assert sorted(tuple(a) for a in out["arrows"]) == sorted(A3_ARROWS)
        assert sorted(tuple(t) for t in out["tau"]) == sorted(A3_TAU)

    criterion(1, "12-vertex translation quiver from the CLI", 1.0, check)


def test_criterion_02_ice_quiver():
    def check():
        out = cli_json("ice", "--type", "A3", "--format", "json")
        assert len(out["vertices"]) == 12
        # the vertex-12 flag is not compared; the remaining flags must match
        frozen = {v["id"] for v in out["vertices"] if v["frozen"]}
        assert frozen - {12} == {1, 2, 3, 4, 7, 8, 10, 11}
        assert not {5, 6, 9} & frozen
        by_origin = {}
        for a in out["arrows"]:
            by_origin.setdefault(a["origin"], []).append((a["src"], a["dst"]))
        assert sorted(by_origin["AR"]) == sorted(A3_ARROWS)
        assert set(by_origin["mesh-reverse"]) == A3_MESH_REVERSE
        assert all(
            not a["frozen"] for a in out["arrows"] if a["origin"] == "mesh-reverse"
        )
        dashed = {(a["src"], a["dst"]) for a in out["arrows"] if a["frozen"]}
        assert dashed == A3_FROZEN_ARROWS
        assert {tuple(t["rho"]) for t in out["potential"]} == A3_MESH_REVERSE

    criterion(2, "decorated quiver with frozen part and potential", 1.0, check)


def test_criterion_03_power_functor_fixture():
    def check():
        q = dy.build_quiver("A3")
        num = mc.mpr_number(q)
        for n, src, tgt in A3_POWER_STEPS:
            t1, t0 = mc.f_presentation(mc.label_by_number(q, n))
            assert tuple(num[l] for l in t1) == src
            assert tuple(num[l] for l in t0) == tgt

    criterion(3, "all 7 power-functor assignments", 1.0, check)


def test_criterion_04_adjacent_embeddings_vanish():
    def check():
        for t in ("A1", "A2", "A3", "A4", "D4"):
            q = dy.build_quiver(t)
            for i in (0, 1):
                for x, y in itertools.product(projectives(q), projectives(q)):
                    assert sum(boundary.thm1_hom(i, x, i - 1, y).values()) == 0
                    # independent route through the hom complexes
                    assert sum(boundary.gamma_hom(i, x, i - 1, y).values()) == 0

    criterion(4, "graded homs between adjacent embeddings vanish", 30.0, check)


def test_criterion_05_rank_one_endomorphism_algebra():
    def check():
        assert boundary.hom_table(dy.build_quiver("A1")).total() == 6

    criterion(5, "rank-one degree-zero table totals 6", 1.0, check)


def test_criterion_06_table_routes_agree():
    def check():
        for t in ("A1", "A2", "A3"):
            q = dy.build_quiver(t)
            for i, j in itertools.product((-1, 0, 1), repeat=2):
                for x, y in itertools.product(projectives(q), projectives(q)):
                    lhs = boundary.thm2_hom(i, x, mc.functor_D(j, y))
                    assert lhs == boundary.thm1_hom(i, x, j, y)

    criterion(6, "object-route homs equal slot-route homs", 60.0, check)


def test_criterion_07_omega_orders():
    def check():
        for t, n in (("A2", 6), ("A3", 6), ("D4", 3)):
            assert mc.omega_order(dy.build_quiver(t)) == n

    criterion(7, "degree-shift symmetry has order 6/6/3", 1.0, check)


def test_criterion_08_block_algebra():
    def check():
        for t, d in (("A1", 1), ("A2", 4), ("A3", 10)):
            tq = lf.tq_algebra(dy.build_quiver(t))
            assert tq.total_dim == 6 * d
            order = tq.nakayama_order()
            assert 6 % order == 0
            if t == "A2":
                assert order == 6

    criterion(8, "block algebra dimensions and socle permutation", 5.0, check)


def test_criterion_09_presentation_round_trip():
    def check():
        q = dy.build_quiver("A2")
        labels = mc.mpr_indecomposables(q)
        images = [hg.phi_image(l) for l in labels]
        for lab, f in zip(labels, images):
            lift = lf.lift_morphism(f)
            assert lift.labels == (lab,) and lift.unresolved == ()
            assert lf.is_isomorphic(f, lf.realize_lift(q, lift))
        for i, a in enumerate(images):
            for b in images[i + 1:]:
                assert not lf.is_isomorphic(a, b)

    criterion(9, "presentation functor is a label bijection", 30.0, check)


def test_criterion_10_braid_property_suite():
    def check():
        rng = random.Random(2026)
        for t, pairs in (("A2", 334), ("A3", 333), ("D4", 333)):
            dt = dy.DynkinType.parse(t)
            adj = adjacency(dt)
            D = br.garside_element(t)
            # rewriting-equivalent pairs normalize identically
            for _ in range(pairs):
                w = random_word(dt, rng.randrange(1, 10), rng)
                u = rewrite(w, adj, moves=10)
                assert br.garside_normal_form(u) == br.garside_normal_form(w)
            # every reduced word of a Weyl element lifts to the same braid
            for _ in range(8):
                w = random_word(dt, 6, rng)
                pos = br.BraidWord(dt, tuple((i, 1) for (i, _) in w.letters))
                lifts = [
                    br.BraidWord.from_ints(dt, rw)
                    for rw in br.reduced_words(br.project_to_weyl(pos))
                ]
                for u in lifts[1:]:
                    assert br.braid_equal(lifts[0], u)
            # the star involution is conjugation by the lifted longest element
            for _ in range(200):
                w = random_word(dt, rng.randrange(0, 8), rng)
                assert br.braid_equal(br.star_involution(w), D.inverse() * w * D)
            # the square of the lifted longest element is central
            sq = D * D
            for _ in range(30):
                w = random_word(dt, 8, rng)
                assert br.braid_equal(sq * w, w * sq)

    criterion(10, "braid word-problem property suite", 60.0, check)


def test_criterion_11_extension_oracle_coherence():
    def check():
        for t in ("A1", "A2", "A3", "A4", "D4"):
            q = dy.build_quiver(t)
            items = reps.list_indecomposables(q)
            for (_, ra), (_, rb) in itertools.product(items, items):
                euler = reps.euler_form(q, ra.dim_vector(), rb.dim_vector())
                assert reps.ext1_dim(ra, rb) == reps.hom_dim(ra, rb) - euler

    criterion(11, "translate-hom extensions match the bilinear form", 60.0, check)
