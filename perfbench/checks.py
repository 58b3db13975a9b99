"""Seed-independent checks on the stdout of one CLI job.

Each check restates a closed formula or an identity that holds for every
input, so it needs no stored data: vertex counts n*h/2 (translation quiver)
and n*h/2 + 2n (morphism category, ice quiver), the 3n embedded slots of the
hom tables, the phi -> lift label identity, and for braids the letterwise
star map and the exponent sum, which normal forms preserve.
"""
from __future__ import annotations

import json
import re

import jobs as J

_DOT_NODE = re.compile(r"^\s*[nv]\d+ \[label=", re.M)
_MPR_LINE = re.compile(r"^\s*\d+: ", re.M)
_FACTOR = re.compile(r"\[([^\]]*)\]")


def _vertices(cmd: str, fmt: str, out: str) -> int:
    if fmt == "json":
        return len(json.loads(out)["vertices"])
    if fmt == "dot":
        return len(_DOT_NODE.findall(out))
    if cmd == "ar":
        return len(out.splitlines()[0].split()) - 1
    if cmd == "mpr":
        return len(_MPR_LINE.findall(out))
    # quiver text form: a header and one line per arrow of a tree
    return len(out.splitlines())


def _braid_fields(fmt: str, out: str) -> tuple[list[int], int, list[list[int]], list[int], list]:
    """(word, delta power, factors, star, k0) from either output format."""
    if fmt == "json":
        d = json.loads(out)
        nf = d["normal_form"]
        return d["word"], nf["delta_power"], nf["factors"], d["star"], d["k0"]
    lines = dict(line.split(":", 1) for line in out.splitlines())
    normal = lines["normal"].split()
    delta = int(normal[0].removeprefix("D^"))
    factors = [[int(x) for x in f.split()] for f in _FACTOR.findall(lines["normal"])]
    return ([int(x) for x in lines["word"].split()], delta, factors,
            [int(x) for x in lines["star"].split()], json.loads(lines["k0"]))


def check(job: dict, out: str) -> str | None:
    """None when the output satisfies the job's invariants, else a reason."""
    try:
        return _check(job["expect"], out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})"


def _check(e: dict, out: str) -> str | None:
    cmd = e["command"]
    if cmd in ("quiver", "ar", "mpr", "ice"):
        got = _vertices(cmd, e["format"], out)
        return None if got == e["vertices"] else f"{got} vertices, expected {e['vertices']}"
    if cmd == "hom-table":
        if e["format"] == "json":
            d = json.loads(out)
            rows, cols = len(d["grid"]), {len(r) for r in d["grid"]}
        else:
            lines = out.splitlines()
            rows, cols = len(lines) - 1, {len(line.split("\t")) - 1 for line in lines}
        ok = rows == e["keys"] and cols == {e["keys"]}
        return None if ok else f"table is {rows} x {sorted(cols)}, expected {e['keys']} square"
    if cmd == "hom-pair":
        if e["format"] == "json":
            d = json.loads(out)
            got = [d["source"], d["target"]]
        else:
            got = out.splitlines()[0].split(" -> ")
        return None if got == e["pair"] else f"pair {got}, expected {e['pair']}"
    if cmd == "phi":
        d = json.loads(out)
        shape_ok = len(d["matrix"]) == len(d["p0"]) and all(len(r) == len(d["p1"]) for r in d["matrix"])
        if d["label"]["id"] != e["label"] or not shape_ok:
            return f"phi of label {d['label']['id']} with a malformed matrix"
        return None
    if cmd == "lift":
        d = json.loads(out)
        got = [lab["id"] for lab in d["labels"]]
        if got != [e["label"]] or d["unresolved"]:
            return f"lift gave labels {got} (unresolved {len(d['unresolved'])}), expected [{e['label']}]"
        return None
    if cmd == "omega":
        d = json.loads(out)
        ids = [lab["id"] for lab in d["orbit"]]
        if ids[0] != e["label"] or d["order"] != len(ids) or len(set(ids)) != len(ids):
            return f"orbit {ids} of order {d['order']} does not start at {e['label']}"
        return None
    if cmd == "braid":
        return _check_braid(e, out)
    raise ValueError(f"no check for command {cmd!r}")


def _check_braid(e: dict, out: str) -> str | None:
    t, word = e["type"], e["word"]
    nu = J.vertex_involution(t)
    starred = [nu[abs(x)] * (1 if x > 0 else -1) for x in word]
    shown, delta, factors, star, k0 = _braid_fields(e["format"], out)
    want_word, want_star = (starred, word) if e["star"] else (word, starred)
    if shown != want_word or star != want_star:
        return "word or star image differs from the letterwise involution"
    exponent = sum(1 if x > 0 else -1 for x in word)
    if exponent != delta * J.positive_roots(t) + sum(len(f) for f in factors):
        return "normal form changes the exponent sum"
    n = J.rank(t)
    if len(k0) != n or any(len(row) != n for row in k0):
        return "K0 matrix has the wrong size"
    return None
