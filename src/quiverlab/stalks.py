"""Derived-category bookkeeping for stalk objects Sigma^s tauinv^k P_v,
and the module category as labels and dimension vectors.

Everything in the bounded derived category of a Dynkin quiver is a sum of
(de)suspended indecomposable modules, and every indecomposable module is
tauinv^k of a projective.  This module works purely with such labels and
one knitting table, in plain integers (it imports no matrix layer): the
defect table of dimension vectors of tauinv^k P_v, continued formally past
the module range, where the value at (v, k) equals (-1)^s times the
dimension vector of the normalized stalk.  Hom(P_i, -) is exact on
almost-split sequences, so coordinate i of the entry at (j, m) is
dim Hom(P_i, tauinv^m P_j), and every graded hom between stalks is one
entry of the same table.

The module window of the defect table (k < e_v) is the module category:
its labels, their dimension vectors (by Gabriel's theorem, the positive
roots), the orbit lengths and the translation quiver `knit_ar_quiver`.
The terms of each minimal projective presentation, `presentation_terms`,
come from the table too: the mesh check of `morphcat.mpr_ar_quiver`
reads them, and every presentation that the orbit route of `complexes`
builds must have exactly these terms.  The matrix representations behind
the same labels live in `reps`, which serves as the independent route.

Degree convention for graded hom spaces, which are plain dicts
{degree: dim} without zero values: entry d of `derived_hom(x, y)` is
dim Hom(x, Sigma^d y); the suspension Sigma moves entries down one degree,
so raising every degree by one applies an inverse suspension to the
second argument.
"""
from __future__ import annotations

import functools
from types import MappingProxyType
from typing import NamedTuple

from .dynkin import Quiver, coxeter_number, nakayama_involution
from .errors import InternalCheckError


class IndecLabel(NamedTuple):
    """Label (vertex, power) for the module tauinv^power applied to P_vertex."""

    quiver: Quiver
    vertex: int
    power: int

    def __str__(self) -> str:
        if self.power == 0:
            return f"P{self.vertex}"
        return f"t-{self.power}P{self.vertex}"


class DerivedLabel(NamedTuple):
    """Sigma^shift tauinv^power P_vertex, with 0 <= power < e_vertex once
    normalized."""

    quiver: Quiver
    vertex: int
    power: int
    shift: int

    def __str__(self) -> str:
        core = f"P{self.vertex}" if self.power == 0 else f"t-{self.power}P{self.vertex}"
        if self.shift == 0:
            return core
        return f"S^{self.shift}[{core}]"

    def module_label(self) -> IndecLabel:
        if self.shift != 0:
            raise InternalCheckError(f"{self} is not concentrated in degree 0")
        return IndecLabel(self.quiver, self.vertex, self.power)


# ---------------------------------------------------------------------------
# knitting tables


Vector = tuple[int, ...]


def _knit(q: Quiver, seed: dict[int, Vector], depth: int) -> dict[int, list[Vector]]:
    """Run the mesh recursion t(i, k+1) = sum_{j->i} t(j, k+1)
    + sum_{i->j} t(j, k) - t(i, k) from the given degree-0 seed."""
    before = {i: [j for j, _ in q.arrows_into(i)] for i in q.vertices}
    after = {i: [j for _, j in q.arrows_from(i)] for i in q.vertices}
    table = {v: [tuple(seed[v])] for v in q.vertices}
    for k in range(depth):
        for i in q.topological_order():
            terms = [table[j][k + 1] for j in before[i]] + [table[j][k] for j in after[i]]
            table[i].append(tuple(sum(col) - x for x, *col in zip(table[i][k], *terms)))
    return table


def _scaled(c: int, vec: Vector) -> Vector:
    return tuple(c * x for x in vec)


@functools.cache
def _defect_data(q: Quiver):
    """The defect table, the orbit exponents e_v and the vertex involution,
    the last read-only since every label normalization reads it."""
    h = coxeter_number(q.dtype)
    depth = 2 * h
    # dim (P_v)_w = 1 exactly when there is a path w ~> v
    seed = {v: tuple(int(q.has_path(w, v)) for w in q.vertices) for v in q.vertices}
    table = _knit(q, seed, depth)
    star = nakayama_involution(q)
    exponents = {}
    for v in q.vertices:
        e = next(k for k in range(1, depth + 1) if min(table[v][k]) < 0)
        exponents[v] = e
        if table[v][e] != _scaled(-1, seed[star[v]]):
            raise InternalCheckError(f"first negative defect at vertex {v} is not minus a projective")
    for v in q.vertices:
        if exponents[v] + exponents[star[v]] != h:
            raise InternalCheckError("orbit exponents do not pair up to the Coxeter number")
    # continuation consistency: the formal value at (v, k) is (-1)^s times
    # the value at the normalized position
    for v in q.vertices:
        for k in range(depth + 1):
            vv, kk, ss = _normalize_raw(exponents, star, v, k, 0)
            if table[v][k] != _scaled((-1) ** ss, table[vv][kk]):
                raise InternalCheckError("defect table continuation is inconsistent")
    return table, exponents, MappingProxyType(star)


def _normalize_raw(exponents: dict[int, int], star: dict[int, int], v: int, k: int, s: int):
    guard = 0
    while k >= exponents[v]:
        k -= exponents[v]
        v = star[v]
        s += 1
        guard += 1
        if guard > 10_000:
            raise InternalCheckError("normalization loop runaway")
    while k < 0:
        v = star[v]
        k += exponents[v]
        s -= 1
        guard += 1
        if guard > 10_000:
            raise InternalCheckError("normalization loop runaway")
    return v, k, s


def e_exponent(q: Quiver, vertex: int | None = None):
    """Number of module-category steps in the tauinv orbit of P_vertex
    (tauinv^e P_v first leaves the module range, as the suspended projective
    at the involuted vertex)."""
    _, exponents, _ = _defect_data(q)
    if vertex is None:
        return dict(exponents)
    if vertex not in exponents:
        raise InternalCheckError(f"no vertex {vertex}")
    return exponents[vertex]


# ---------------------------------------------------------------------------
# the module category: the window k < e_v of the defect table


def _tits_form(q: Quiver, d: Vector) -> int:
    """sum d_i^2 - sum over edges d_i d_j; a nonnegative vector is a positive
    root exactly when this is 1."""
    return sum(x * x for x in d) - sum(d[i - 1] * d[j - 1] for i, j in q.arrows)


@functools.cache
def _module_window(q: Quiver):
    """Dimension vector of each indecomposable tauinv^k P_v (k < e_v), in the
    order (power, topological position of the vertex), the inverse map, and
    the label of each simple module S_w (dimension vector the unit vector
    e_w); all read-only, since the memo shares them."""
    table, exponents, _ = _defect_data(q)
    topo = {v: i for i, v in enumerate(q.topological_order())}
    labels = sorted((IndecLabel(q, v, k) for v in q.vertices for k in range(exponents[v])),
                    key=lambda lab: (lab.power, topo[lab.vertex]))
    dims = {lab: table[lab.vertex][lab.power] for lab in labels}
    expected = q.dtype.positive_root_count()
    if len(dims) != expected:
        raise InternalCheckError(
            f"found {len(dims)} indecomposables, expected {expected} for {q.dtype}"
        )
    by_dims = {d: lab for lab, d in dims.items()}
    if len(by_dims) != len(dims):
        raise InternalCheckError("two indecomposables share a dimension vector")
    for lab, d in dims.items():
        if _tits_form(q, d) != 1:
            raise InternalCheckError(f"dimension vector of {lab} is not a root")
    simples = {w: by_dims[tuple(int(u == w) for u in q.vertices)] for w in q.vertices}
    return MappingProxyType(dims), MappingProxyType(by_dims), MappingProxyType(simples)


@functools.cache
def _module_hom_matrix(q: Quiver) -> tuple[tuple[int, ...], ...]:
    """dim Hom(x, y) between the indecomposables, rows x and columns y in
    window order.  It is unitriangular (ones on the diagonal, zeros below),
    which is what lets `reps.decompose` solve for multiplicities by back
    substitution."""
    labels = tuple(_module_window(q)[0])
    H = tuple(tuple(hom_dim(x, y) for y in labels) for x in labels)
    for a, row in enumerate(H):
        if row[a] != 1 or any(row[:a]):
            raise InternalCheckError("hom matrix of the indecomposables is not unitriangular")
    return H


@functools.cache
def presentation_terms(q: Quiver):
    """Terms of the minimal projective presentation 0 -> P1 -> P0 -> M -> 0
    of each indecomposable M, as sorted vertex tuples (p1, p0).

    The path algebra is hereditary, so P_w occurs dim Hom(M, S_w) times in
    P0 and dim Ext^1(M, S_w) times in P1; both numbers are one lookup in
    the defect table.  Checked against dim M = sum_w (P0_w - P1_w) dim P_w;
    read-only, since the memo shares it."""
    dims, _, simple = _module_window(q)
    proj = {w: dims[IndecLabel(q, w, 0)] for w in q.vertices}
    out = {}
    for lab, d in dims.items():
        p1, p0 = [], []
        for w in q.vertices:
            # Hom(M, S_w) sits in degree 0 and Ext^1(M, S_w) in degree 1
            deg, f = _hom_entry(q, lab.vertex, lab.power, 0, simple[w].vertex, simple[w].power, 0)
            if deg == 0:
                p0 += [w] * f
            elif deg == 1:
                p1 += [w] * f
        p1, p0 = tuple(p1), tuple(p0)
        total = [sum(proj[w][u] for w in p0) - sum(proj[w][u] for w in p1) for u in range(q.rank)]
        if tuple(total) != d:
            raise InternalCheckError(f"presentation terms of {lab} miss its dimension vector")
        out[lab] = (p1, p0)
    return MappingProxyType(out)


class ARQuiver(NamedTuple):
    quiver: Quiver
    vertices: tuple[IndecLabel, ...]
    arrows: tuple[tuple[IndecLabel, IndecLabel], ...]
    tau_pairs: tuple[tuple[IndecLabel, IndecLabel], ...]  # (x, translate of x)

    def to_json(self) -> dict:
        def lab(l):
            return {"vertex": l.vertex, "power": l.power}

        return {
            "type": str(self.quiver.dtype),
            "quiver_arrows": [list(a) for a in self.quiver.arrows],
            "vertices": [lab(l) for l in self.vertices],
            "arrows": [[lab(a), lab(b)] for a, b in self.arrows],
            "tau_pairs": [[lab(a), lab(b)] for a, b in self.tau_pairs],
        }

    def to_dot(self) -> str:
        idx = {l: i for i, l in enumerate(self.vertices)}
        lines = ["digraph ar {", "  rankdir=LR;"]
        by_power: dict[int, list[IndecLabel]] = {}
        for l in self.vertices:
            by_power.setdefault(l.power, []).append(l)
        for l in self.vertices:
            lines.append(f'  n{idx[l]} [label="{l}"];')
        for k in sorted(by_power):
            same = " ".join(f"n{idx[l]};" for l in sorted(by_power[k]))
            lines.append("  { rank=same; %s }" % same)
        for a, b in self.arrows:
            lines.append(f"  n{idx[a]} -> n{idx[b]};")
        for a, b in self.tau_pairs:
            lines.append(f"  n{idx[a]} -> n{idx[b]} [style=dotted, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def knit_ar_quiver(q: Quiver) -> ARQuiver:
    """The translation quiver of the module category, generated orbitwise.

    Vertices are the labels (v, k); for every quiver arrow u -> w there are
    arrows (u, k) -> (w, k) and (w, k) -> (u, k+1) whenever both endpoints
    exist.  Translate pairs link (v, k+1) back to (v, k).
    """
    e = e_exponent(q)
    verts = list(_module_window(q)[0])
    vs = set(verts)
    arrows = []
    for (u, w) in q.arrows:
        for k in range(0, max(e.values())):
            a, b = IndecLabel(q, u, k), IndecLabel(q, w, k)
            if a in vs and b in vs:
                arrows.append((a, b))
            c, d = IndecLabel(q, w, k), IndecLabel(q, u, k + 1)
            if c in vs and d in vs:
                arrows.append((c, d))
    tau_pairs = []
    for v in q.vertices:
        for k in range(1, e[v]):
            tau_pairs.append((IndecLabel(q, v, k), IndecLabel(q, v, k - 1)))
    order = {lab: i for i, lab in enumerate(verts)}
    arrows = sorted(set(arrows), key=lambda ab: (order[ab[0]], order[ab[1]]))
    return ARQuiver(q, tuple(verts), tuple(arrows), tuple(sorted(tau_pairs, key=lambda ab: order[ab[0]])))


# ---------------------------------------------------------------------------
# labels


def normalize_label(q: Quiver, vertex: int, power: int, shift: int = 0) -> DerivedLabel:
    _, exponents, star = _defect_data(q)
    v, k, s = _normalize_raw(exponents, star, vertex, power, shift)
    return DerivedLabel(q, v, k, s)


def as_derived_label(x) -> DerivedLabel:
    if isinstance(x, DerivedLabel):
        return normalize_label(x.quiver, x.vertex, x.power, x.shift)
    if isinstance(x, IndecLabel):
        return normalize_label(x.quiver, x.vertex, x.power, 0)
    raise InternalCheckError(f"cannot interpret {x!r} as a derived stalk label")


def sigma(x, s: int = 1) -> DerivedLabel:
    """Suspend a stalk label s times."""
    lab = as_derived_label(x)
    return DerivedLabel(lab.quiver, lab.vertex, lab.power, lab.shift + s)


# ---------------------------------------------------------------------------
# graded hom spaces


def _hom_entry(q: Quiver, u: int, k: int, s: int, v: int, m: int, t: int) -> tuple[int, int]:
    """(d, dim Hom(x, Sigma^d y)) for x = Sigma^s tauinv^k P_u and
    y = Sigma^t tauinv^m P_v, the one degree d where that hom can be nonzero.

    Hom(P_u, -) is exact on almost-split sequences, so dim Hom(P_u, z) is
    coordinate u of the defect-table entry of z."""
    table, exponents, star = _defect_data(q)
    w, j, r = _normalize_raw(exponents, star, v, m - k, t - s)
    return -r, table[w][j][u - 1]


def derived_hom(x, y) -> dict[int, int]:
    """Graded hom between two stalk labels: entry d is dim Hom(x, Sigma^d y).

    Between normalized stalks the answer is concentrated in the single
    degree determined by the relative suspension.
    """
    a, b = as_derived_label(x), as_derived_label(y)
    if a.quiver is not b.quiver and a.quiver != b.quiver:
        raise InternalCheckError("labels live on different quivers")
    deg, f = _hom_entry(a.quiver, a.vertex, a.power, a.shift, b.vertex, b.power, b.shift)
    return {deg: f} if f else {}


_PI_CAP_FACTOR = 8  # hard cap on orbit walks, in Coxeter numbers


def pi2_hom(x, y, min_degree: int = 0) -> dict[int, int]:
    """Graded hom from x into the non-negative tauinv orbit of y, summed over
    all p >= 0 and truncated below min_degree.

    The contribution of step p sits in a single degree which is
    non-increasing in p, so the walk stops at the first step below the
    floor.  Only step 0 is normalized; each later step moves one slot
    along the orbit of the defect table, wrapping at the end of the window
    to the suspended start of the involuted vertex.
    """
    a, b = as_derived_label(x), as_derived_label(y)
    q = a.quiver
    table, exponents, star = _defect_data(q)
    col = a.vertex - 1
    v, k, s = _normalize_raw(exponents, star, b.vertex, b.power - a.power, b.shift - a.shift)
    cap = _PI_CAP_FACTOR * coxeter_number(q.dtype) + 8
    out: dict[int, int] = {}
    for _ in range(cap + 1):
        if -s < min_degree:
            break
        f = table[v][k][col]
        if f:
            out[-s] = out.get(-s, 0) + f
        k += 1
        if k == exponents[v]:
            v, k, s = star[v], 0, s + 1
    else:
        raise InternalCheckError("orbit walk failed to leave the degree window")
    return out


def hom_dim(m, n) -> int:
    """Module-category hom dimension between stalk labels."""
    return derived_hom(m, n).get(0, 0)


def ext1_dim(m, n) -> int:
    """Module-category first extension dimension between module labels."""
    a, b = as_derived_label(m), as_derived_label(n)
    if a.shift or b.shift:
        raise InternalCheckError("ext of shifted stalks: use derived_hom")
    return derived_hom(a, sigma(b, 1)).get(0, 0)
