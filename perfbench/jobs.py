"""Seeded job generation for the four workloads.

Everything here is plain Python: no quiverlab code runs while jobs are
generated.  One `random.Random(seed)` drives every choice (orientations,
formats, `hom --pair` indices, phi labels, braid words, crosscheck order).
The *shape* of a pass (which type meets which command, how long each braid
word roughly is, how many checks each type contributes) is fixed, so that
two seeds measure the same mix of work on different inputs.

A CLI job is a dict ``{"argv": [...], "expect": {...}}``; a lift job has
``"lift_of": k`` instead of a spec, naming the earlier phi job whose output
becomes its ``--lift`` argument.  A crosscheck comparison is a list
``[route, type, *args]`` that `crosscheck.py` understands.
"""
from __future__ import annotations

import functools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))


def rank(t: str) -> int:
    return int(t[1:])


def coxeter(t: str) -> int:
    n = rank(t)
    return {"A": n + 1, "D": 2 * n - 2, "E": {6: 12, 7: 18, 8: 30}.get(n)}[t[0]]


def positive_roots(t: str) -> int:
    return rank(t) * coxeter(t) // 2


def mpr_count(t: str) -> int:
    """Objects of the two-term morphism category: n*h/2 + 2n."""
    return positive_roots(t) + 2 * rank(t)


def edges(t: str) -> list[tuple[int, int]]:
    n = rank(t)
    path = [(i, i + 1) for i in range(1, n - 1)]
    if t[0] == "A":
        return [(i, i + 1) for i in range(1, n)]
    if t[0] == "D":
        return path + [(n - 2, n)]
    return path + [(3, n)]


def vertex_involution(t: str) -> dict[int, int]:
    """The diagram involution the braid star map applies letter by letter."""
    n = rank(t)
    nu = {v: v for v in range(1, n + 1)}
    if t[0] == "A":
        return {v: n + 1 - v for v in nu}
    if t[0] == "D" and n % 2 == 1:
        nu[n - 1], nu[n] = n, n - 1
    if t == "E6":
        nu.update({1: 5, 5: 1, 2: 4, 4: 2})
    return nu


@functools.cache
def golden() -> dict:
    """Committed reference data; `make_golden.py` writes it."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def frozen_labels(t: str) -> list[int]:
    """Numbers of the `dzero`/`done` objects in the default orientation."""
    return golden()["frozen_labels"][t]


# ---------------------------------------------------------------------------
# catalog: module-category artifacts, cold and then replayed

# (type, command, default orientation?): every type once, both orientations,
# every command at least twice; heavy and light jobs interleaved
CATALOG_PASS = (
    ("E8", "mpr", True), ("A4", "quiver", False), ("D6", "ice", False),
    ("A7", "hom-table", True), ("E6", "ar", False), ("D4", "hom-pair", True),
    ("A8", "mpr", False), ("D7", "ar", True), ("E7", "hom-pair", False),
    ("A5", "ice", True), ("D8", "hom-table", False), ("A6", "ar", True),
    ("D5", "quiver", True),
)
FORMATS = {
    "quiver": ("text", "json", "dot"),
    "ar": ("text", "json", "dot"),
    "mpr": ("text", "json", "dot"),
    "ice": ("dot", "json"),
    "hom-table": ("tsv", "json"),
    "hom-pair": ("tsv", "json"),
}


def _orientation(t: str, rng: random.Random) -> str:
    return " ".join(f"{a}->{b}" if rng.random() < 0.5 else f"{b}->{a}" for a, b in edges(t))


def catalog_pass(rng: random.Random) -> list[dict]:
    jobs = []
    for t, cmd, default in CATALOG_PASS:
        fmt = rng.choice(FORMATS[cmd])
        argv = [cmd.split("-")[0], "--type", t]
        if not default:
            argv += ["--orient", _orientation(t, rng)]
        n = rank(t)
        expect: dict = {"command": cmd, "format": fmt, "type": t}
        if cmd == "hom-table":
            argv.append("--table")
            expect["keys"] = 3 * n
        elif cmd == "hom-pair":
            a, b = rng.randint(1, 3 * n), rng.randint(1, 3 * n)
            argv += ["--pair", str(a), str(b)]
            keys = [f"D{e}P{v}" for e in (-1, 0, 1) for v in range(1, n + 1)]
            expect["pair"] = [keys[a - 1], keys[b - 1]]
        elif cmd == "quiver":
            expect["vertices"] = n
        elif cmd == "ar":
            expect["vertices"] = positive_roots(t)
        else:  # mpr, ice
            expect["vertices"] = mpr_count(t)
        jobs.append({"argv": argv + ["--format", fmt], "expect": expect})
    return jobs


# ---------------------------------------------------------------------------
# presentations: higgs jobs

PHI_TYPES = ("A3", "A4", "A5", "D4", "D5")
LIFT_TYPES = ("A2", "A3", "A4")  # round trips stay inside the liftable types A1-A4


def _phi(t: str, label: int) -> dict:
    return {"argv": ["higgs", "--type", t, "--phi", str(label)],
            "expect": {"command": "phi", "label": label}}


def presentations_pass(rng: random.Random) -> list[dict]:
    """Five phi jobs, three phi->lift round trips and two omega orbits."""
    jobs: list[dict] = []

    def omega():
        t = rng.choice(PHI_TYPES)
        label = rng.choice(frozen_labels(t))
        jobs.append({"argv": ["higgs", "--type", t, "--omega-orbit", str(label)],
                     "expect": {"command": "omega", "label": label}})

    def round_trip(t):
        label = rng.randint(1, mpr_count(t))
        jobs.append(_phi(t, label))
        jobs.append({"argv": ["higgs", "--type", t, "--lift"], "lift_of": len(jobs) - 1,
                     "expect": {"command": "lift", "label": label}})

    for k, t in enumerate(PHI_TYPES):
        jobs.append(_phi(t, rng.randint(1, mpr_count(t))))
        if k < len(LIFT_TYPES):
            round_trip(LIFT_TYPES[k])
        if k % 2:
            omega()
    return jobs


# ---------------------------------------------------------------------------
# braids: Garside normal forms

# two words per Garside type; lengths within 20..100 picked so that every
# job normalises for roughly as long (E6 words cost most per letter)
BRAID_SLOTS = (("E6", 40), ("A1", 100), ("D5", 80), ("A3", 100), ("A5", 100), ("D4", 100),
               ("A2", 100), ("A4", 100))


def braids_pass(rng: random.Random) -> list[dict]:
    """Sixteen seeded words, two per type, one of each pair under --star."""
    jobs = []
    for star in (False, True):
        for t, length in BRAID_SLOTS:
            n = rank(t)
            word = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length)]
            fmt = rng.choice(("text", "json"))
            argv = ["braid", "--type", t, "--word", " ".join(map(str, word))]
            jobs.append({"argv": argv + (["--star"] if star else []) + ["--format", fmt],
                         "expect": {"command": "braid", "format": fmt, "type": t,
                                    "word": word, "star": star}})
    return jobs


def cli_jobs(workload: str, seed: int) -> list[dict]:
    """One pass of a CLI workload; a run repeats it round after round."""
    rng = random.Random(seed)
    passes = {"catalog": catalog_pass, "presentations": presentations_pass,
              "braids": braids_pass}
    return passes[workload](rng)


# ---------------------------------------------------------------------------
# crosscheck: independent routes compared in one process

CROSS_TYPES = ("A3", "A4", "A5", "D4", "D5")


def crosscheck_ops(seed: int) -> dict:
    """A fixed set of comparisons in seeded order: every type and route is
    checked the same number of times whatever the seed.

    gamma compares adjacent embeddings (j = i - 1) for every pair of
    projectives, thm2 every pair of embeddings and projectives, ext1 every
    pair of indecomposables.  ``fpres_labels`` lists every label of every
    type, for the untimed f_presentation sweep."""
    ops: list[list] = []
    labels: list[list] = []
    for t in CROSS_TYPES:
        n = rank(t)
        pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
        ops += [["gamma", t, i, x, i - 1, y] for i in (0, 1) for x, y in pairs]
        ops += [["thm2", t, i, x, j, y] for i in (-1, 0, 1) for j in (-1, 0, 1) for x, y in pairs]
        roots = range(positive_roots(t))
        ops += [["ext1", t, a, b] for a in roots for b in roots]
        labels += [[t, label] for label in range(1, mpr_count(t) + 1)]
    random.Random(seed).shuffle(ops)
    return {"ops": ops, "fpres_labels": labels}
