"""Finite dimensional representations of a tree quiver, with exact arithmetic.

Conventions, fixed package-wide:

* A representation M assigns to each vertex v a space M_v and to each arrow
  a: i -> j a linear map M(a): M_j -> M_i (note the direction: arrows act
  against their orientation).  With this choice the projective at vertex i
  has (P_i)_v spanned by the directed path v ~> i (so dim <= 1 on a tree),
  the injective at i has (I_i)_v spanned by the path i ~> v, and the space
  of morphisms P_i -> P_j is spanned by the path i ~> j.
* Canonical bases: the basis-path morphism P_u -> P_w ("append the path
  u ~> w") and I_v -> I_w ("strip the path v ~> w") have every defined
  matrix entry equal to 1.  Both systems compose strictly: the composite of
  two basis morphisms is the basis morphism of the composed path.
* All matrices are exact, over the fixed prime field of `_kernels`.

The irreducible data extracted from a quiver is the orbit structure of the
inverse translate: every indecomposable is tauinv^k applied to a projective,
which is how `list_indecomposables` generates them.
"""
from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from types import MappingProxyType

import numpy as np

from . import _kernels as K
from .dynkin import Quiver, positive_roots
from .errors import GuardError, InternalCheckError


@dataclasses.dataclass(frozen=True, order=True)
class IndecLabel:
    """Label (vertex, power) for the module tauinv^power applied to P_vertex."""

    quiver: Quiver
    vertex: int
    power: int

    def __str__(self) -> str:
        if self.power == 0:
            return f"P{self.vertex}"
        return f"t-{self.power}P{self.vertex}"


def _read_only(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only, so that an object shared through a memo
    raises on an in-place write instead of corrupting later results."""
    a.setflags(write=False)
    return a


class Rep:
    """A representation: dims per vertex and one read-only matrix per arrow."""

    def __init__(self, quiver: Quiver, dims, maps):
        self.quiver = quiver
        self.dims = tuple(int(d) for d in dims)
        # maps[(i, j)] has shape (dims[i-1], dims[j-1]) and sends M_j -> M_i
        self.maps = MappingProxyType({a: _read_only(K.reduce_mod(m)) for a, m in maps.items()})
        for (i, j), m in self.maps.items():
            if m.shape != (self.dims[i - 1], self.dims[j - 1]):
                raise InternalCheckError(f"bad map shape at arrow {(i, j)}")

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def map(self, arrow) -> np.ndarray:
        return self.maps[arrow]

    def dim_vector(self) -> tuple[int, ...]:
        return self.dims

    def __repr__(self) -> str:
        return f"Rep{self.dims}"


@dataclasses.dataclass
class Morphism:
    src: Rep
    tgt: Rep
    mats: list | tuple  # per vertex v (1-based): shape (tgt.dim(v), src.dim(v))

    def mat(self, v: int) -> np.ndarray:
        return self.mats[v - 1]

    def validate(self) -> "Morphism":
        mats = [K.reduce_mod(m) for m in self.mats]
        for (i, j) in self.src.quiver.arrows:
            lhs = K.matmul_reduced(mats[i - 1], self.src.map((i, j)))
            rhs = K.matmul_reduced(self.tgt.map((i, j)), mats[j - 1])
            if not np.array_equal(lhs, rhs):
                raise InternalCheckError(f"matrices do not intertwine at arrow {(i, j)}")
        return self

    def compose(self, other: "Morphism") -> "Morphism":
        # self after other: other: A -> B, self: B -> C
        mats = [K.matmul(s, o) for s, o in zip(self.mats, other.mats)]
        return Morphism(other.src, self.tgt, mats)

    def total_rank(self) -> int:
        return sum(K.rank(m) for m in self.mats)


def zero_rep(q: Quiver) -> Rep:
    return Rep(q, [0] * q.rank, {a: np.zeros((0, 0), dtype=np.int64) for a in q.arrows})


def _path_indicator_rep(q: Quiver, cond) -> Rep:
    dims = [1 if cond(v) else 0 for v in q.vertices]
    maps = {}
    for (i, j) in q.arrows:
        di, dj = dims[i - 1], dims[j - 1]
        maps[(i, j)] = np.ones((di, dj), dtype=np.int64)
    return Rep(q, dims, maps)


@functools.cache
def projective_rep(q: Quiver, i: int) -> Rep:
    return _path_indicator_rep(q, lambda v: q.has_path(v, i))


@functools.cache
def injective_rep(q: Quiver, i: int) -> Rep:
    return _path_indicator_rep(q, lambda v: q.has_path(i, v))


def simple_rep(q: Quiver, i: int) -> Rep:
    return _path_indicator_rep(q, lambda v: v == i)


def path_action(M: Rep, a: int, b: int) -> np.ndarray:
    """The composite map M_b -> M_a along the directed path a ~> b."""
    path = M.quiver.path_vertices(a, b)
    if path is None:
        raise InternalCheckError(f"no path {a} ~> {b}")
    out = np.eye(M.dim(b), dtype=np.int64)
    for u, w in zip(reversed(path[:-1]), reversed(path[1:])):
        out = K.matmul_reduced(M.map((u, w)), out)
    return out


def direct_sum(reps: list[Rep]) -> tuple[Rep, list[list[int]]]:
    """Direct sum plus, per summand, the starting offset at each vertex."""
    if not reps:
        raise InternalCheckError("empty direct sum needs an explicit quiver")
    q = reps[0].quiver
    dims = [sum(r.dim(v) for r in reps) for v in q.vertices]
    offsets = []
    run = [0] * q.rank
    for r in reps:
        offsets.append(list(run))
        for v in q.vertices:
            run[v - 1] += r.dim(v)
    maps = {}
    for a in q.arrows:
        i, j = a
        m = np.zeros((dims[i - 1], dims[j - 1]), dtype=np.int64)
        for r, off in zip(reps, offsets):
            blk = r.map(a)
            m[off[i - 1] : off[i - 1] + r.dim(i), off[j - 1] : off[j - 1] + r.dim(j)] = blk
        maps[a] = m
    return Rep(q, dims, maps), offsets


def _indicator_sum(build, q: Quiver, labels: tuple[int, ...]):
    if not labels:
        return zero_rep(q), ()
    total, offsets = direct_sum([build(q, v) for v in labels])
    return total, tuple(tuple(off) for off in offsets)


@functools.cache
def projective_sum(q: Quiver, labels: tuple[int, ...]) -> tuple[Rep, tuple[tuple[int, ...], ...]]:
    """`direct_sum` of the projectives at `labels` (zero for no labels)."""
    return _indicator_sum(projective_rep, q, labels)


@functools.cache
def injective_sum(q: Quiver, labels: tuple[int, ...]) -> tuple[Rep, tuple[tuple[int, ...], ...]]:
    """`direct_sum` of the injectives at `labels` (zero for no labels)."""
    return _indicator_sum(injective_rep, q, labels)


def _all_ones_morphism(src: Rep, tgt: Rep) -> Morphism:
    """The validated morphism whose every defined entry is 1, with read-only
    matrices: the canonical basis morphisms are shared through memos."""
    mats = tuple(_read_only(np.ones((tgt.dim(v), src.dim(v)), dtype=np.int64))
                 for v in src.quiver.vertices)
    return Morphism(src, tgt, mats).validate()


@functools.cache
def canonical_projective_morphism(q: Quiver, u: int, w: int) -> Morphism:
    """The basis morphism P_u -> P_w appending the path u ~> w."""
    if not q.has_path(u, w):
        raise InternalCheckError(f"Hom(P{u}, P{w}) = 0: no path")
    return _all_ones_morphism(projective_rep(q, u), projective_rep(q, w))


@functools.cache
def canonical_injective_morphism(q: Quiver, v0: int, w: int) -> Morphism:
    """The basis morphism I_v0 -> I_w stripping the path v0 ~> w."""
    if not q.has_path(v0, w):
        raise InternalCheckError(f"Hom(I{v0}, I{w}) = 0: no path")
    return _all_ones_morphism(injective_rep(q, v0), injective_rep(q, w))


# ---------------------------------------------------------------------------
# hom spaces


def hom_basis(M: Rep, N: Rep) -> list[Morphism]:
    q = M.quiver
    sizes = [N.dim(v) * M.dim(v) for v in q.vertices]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    nvar = int(starts[-1])
    rows = []
    for (i, j) in q.arrows:
        # f_i @ M(a) = N(a) @ f_j, entries (r, c) with r < N.dim(i), c < M.dim(j)
        Ma, Na = M.map((i, j)), N.map((i, j))
        for r in range(N.dim(i)):
            for c in range(M.dim(j)):
                row = np.zeros(nvar, dtype=np.int64)
                base_i = starts[i - 1]
                for t in range(M.dim(i)):
                    row[base_i + r * M.dim(i) + t] += Ma[t, c]
                base_j = starts[j - 1]
                for t in range(N.dim(j)):
                    row[base_j + t * M.dim(j) + c] -= Na[r, t]
                rows.append(row % K.P)
    if rows:
        sol = K.nullspace(np.array(rows, dtype=np.int64))
    else:
        sol = np.eye(nvar, dtype=np.int64)
    out = []
    for k in range(sol.shape[1]):
        vec = sol[:, k]
        mats = []
        for v in q.vertices:
            seg = vec[starts[v - 1] : starts[v]]
            mats.append(seg.reshape(N.dim(v), M.dim(v)))
        out.append(Morphism(M, N, mats).validate())
    return out


def _as_rep(x) -> Rep:
    if isinstance(x, Rep):
        return x
    if isinstance(x, IndecLabel):
        return indec_rep(x)
    raise InternalCheckError(f"cannot interpret {x!r} as a representation")


def hom_dim(m, n) -> int:
    """dim Hom(M, N) between two representations (or indecomposable labels)."""
    return len(hom_basis(_as_rep(m), _as_rep(n)))


# ---------------------------------------------------------------------------
# kernels, cokernels, socle, radical


def kernel(f: Morphism) -> tuple[Rep, Morphism]:
    q = f.src.quiver
    bases = [K.nullspace(f.mat(v)) for v in q.vertices]
    dims = [b.shape[1] for b in bases]
    maps = {}
    for (i, j) in q.arrows:
        img = K.matmul(f.src.map((i, j)), bases[j - 1])
        x = K.solve(bases[i - 1], img)
        if x is None:
            raise InternalCheckError("kernel is not a subrepresentation")
        maps[(i, j)] = x
    ker = Rep(q, dims, maps)
    incl = Morphism(ker, f.src, [bases[v - 1] for v in q.vertices]).validate()
    return ker, incl


def cokernel(f: Morphism) -> tuple[Rep, Morphism]:
    q = f.tgt.quiver
    projs = []
    for v in q.vertices:
        left = K.nullspace(f.mat(v).T).T  # rows kill the image
        projs.append(left)
    dims = [p.shape[0] for p in projs]
    maps = {}
    for (i, j) in q.arrows:
        # X with X @ proj_j = proj_i @ N(a)
        rhs = K.matmul(projs[i - 1], f.tgt.map((i, j)))
        xt = K.solve(projs[j - 1].T, rhs.T)
        if xt is None:
            raise InternalCheckError("cokernel maps do not descend")
        maps[(i, j)] = xt.T
    cok = Rep(q, dims, maps)
    proj = Morphism(f.tgt, cok, projs).validate()
    return cok, proj


def socle_bases(M: Rep) -> list[np.ndarray]:
    """Per vertex, columns spanning the largest semisimple subrepresentation."""
    q = M.quiver
    out = []
    for v in q.vertices:
        incoming = [M.map((i, v)) for (i, _) in q.arrows_into(v)]
        if not incoming:
            out.append(np.eye(M.dim(v), dtype=np.int64))
        else:
            out.append(K.nullspace(np.concatenate(incoming, axis=0)))
    return out


def radical_projections(M: Rep) -> list[np.ndarray]:
    """Per vertex, a projection whose kernel is the radical subspace."""
    q = M.quiver
    out = []
    for v in q.vertices:
        outgoing = [M.map((v, j)) for (_, j) in q.arrows_from(v)]
        if not outgoing:
            out.append(np.eye(M.dim(v), dtype=np.int64))
        else:
            img = np.concatenate(outgoing, axis=1)
            out.append(K.nullspace(img.T).T)
    return out


# ---------------------------------------------------------------------------
# projective covers and presentations


def projective_cover(M: Rep) -> tuple[list[int], Morphism]:
    """Vertex labels (with multiplicity) of P(top M) and the cover morphism."""
    q = M.quiver
    projs = radical_projections(M)
    labels: list[int] = []
    gens: list[tuple[int, np.ndarray]] = []
    for v in q.vertices:
        pv = projs[v - 1]
        t = pv.shape[0]
        if t == 0:
            continue
        lift = K.solve(pv, np.eye(t, dtype=np.int64))
        if lift is None:
            raise InternalCheckError("top projection has no section")
        for c in range(t):
            labels.append(v)
            gens.append((v, lift[:, c]))
    if not labels:
        return [], Morphism(zero_rep(q), M, [np.zeros((M.dim(v), 0), dtype=np.int64) for v in q.vertices])
    dom, offsets = projective_sum(q, tuple(labels))
    mats = [np.zeros((M.dim(v), dom.dim(v)), dtype=np.int64) for v in q.vertices]
    for slot, (v, vec) in enumerate(gens):
        pv_rep = projective_rep(q, v)
        for u in q.vertices:
            if pv_rep.dim(u) == 0:
                continue
            col = offsets[slot][u - 1]
            mats[u - 1][:, col] = K.matmul(path_action(M, u, v), vec.reshape(-1, 1))[:, 0]
    cover = Morphism(dom, M, mats).validate()
    # surjectivity
    for v in q.vertices:
        if K.rank(cover.mat(v)) != M.dim(v):
            raise InternalCheckError("projective cover is not surjective")
    return labels, cover


def scalar_matrix_of_projective_map(f: Morphism, src_labels: list[int], src_offsets, tgt_labels: list[int], tgt_offsets) -> np.ndarray:
    """Express a morphism between sums of projectives in canonical basis scalars.

    Entry (r, c) is the coefficient of the append-path morphism
    P_{src_labels[c]} -> P_{tgt_labels[r]}; it is read off by evaluating at
    the source generator and asserted to reproduce the whole morphism.
    """
    q = f.src.quiver
    out = np.zeros((len(tgt_labels), len(src_labels)), dtype=np.int64)
    for c, u in enumerate(src_labels):
        col_at_u = src_offsets[c][u - 1]
        vec = f.mat(u)[:, col_at_u]
        for r, w in enumerate(tgt_labels):
            if q.has_path(u, w):
                out[r, c] = vec[tgt_offsets[r][u - 1]]
    return out


def min_presentation(M: Rep) -> tuple[list[int], list[int], np.ndarray]:
    """Minimal projective presentation: labels of P1, labels of P0 and the
    scalar matrix of the map P1 -> P0 in canonical path-basis coordinates."""
    q = M.quiver
    labels0, cover = projective_cover(M)
    ker, incl = kernel(cover)
    labels1, cover1 = projective_cover(ker)
    if not ker.is_zero():
        # over a hereditary algebra the kernel is projective: the cover is an iso
        if projective_sum(q, tuple(labels1))[0].total_dim != ker.total_dim:
            raise InternalCheckError("first syzygy of a module is not projective")
    d = incl.compose(cover1)
    if labels1 and labels0:
        off1 = projective_sum(q, tuple(labels1))[1]
        off0 = projective_sum(q, tuple(labels0))[1]
        scal = scalar_matrix_of_projective_map(d, labels1, off1, labels0, off0)
        rebuilt = assemble_projective_map(q, labels1, labels0, scal)
        for v in q.vertices:
            if not np.array_equal(rebuilt.mat(v), d.mat(v)):
                raise InternalCheckError("presentation map is not a scalar combination of path morphisms")
    else:
        scal = np.zeros((len(labels0), len(labels1)), dtype=np.int64)
    return labels1, labels0, scal


def assemble_projective_map(q: Quiver, src_labels, tgt_labels, scal) -> Morphism:
    """Rebuild the rep-level morphism from canonical-basis scalars."""
    dom, off_s = projective_sum(q, tuple(src_labels))
    cod, off_t = projective_sum(q, tuple(tgt_labels))
    mats = [np.zeros((cod.dim(v), dom.dim(v)), dtype=np.int64) for v in q.vertices]
    for c, u in enumerate(src_labels):
        for r, w in enumerate(tgt_labels):
            s = int(scal[r, c]) % K.P
            if s == 0:
                continue
            if not q.has_path(u, w):
                raise InternalCheckError("scalar entry without a path")
            base = canonical_projective_morphism(q, u, w)
            for v in q.vertices:
                if base.src.dim(v) and base.tgt.dim(v):
                    mats[v - 1][off_t[r][v - 1], off_s[c][v - 1]] = (
                        mats[v - 1][off_t[r][v - 1], off_s[c][v - 1]] + s
                    ) % K.P
    return Morphism(dom, cod, mats).validate()


# ---------------------------------------------------------------------------
# the inverse translate and its inverse


def _injective_envelope(M: Rep) -> tuple[list[int], Morphism]:
    """Socle-by-socle embedding of M into a sum of injectives."""
    q = M.quiver
    socs = socle_bases(M)
    labels: list[int] = []
    funcs: list[tuple[int, np.ndarray]] = []  # (vertex, functional row)
    for v in q.vertices:
        B = socs[v - 1]
        s = B.shape[1]
        if s == 0:
            continue
        d = M.dim(v)
        # extend the socle basis to a basis and take the dual rows
        ext = np.concatenate([B, np.eye(d, dtype=np.int64)], axis=1)
        _, piv = K.rref(ext)
        cols = [int(c) for c in piv]
        full = ext[:, cols]
        finv = K.solve(full, np.eye(d, dtype=np.int64))
        if finv is None:
            raise InternalCheckError("socle basis failed to extend")
        for c in range(s):
            labels.append(v)
            funcs.append((v, finv[c]))
    if not labels:
        cod = zero_rep(q)
        return [], Morphism(M, cod, [np.zeros((0, M.dim(v)), dtype=np.int64) for v in q.vertices])
    cod, offsets = injective_sum(q, tuple(labels))
    mats = [np.zeros((cod.dim(v), M.dim(v)), dtype=np.int64) for v in q.vertices]
    for slot, (v, phi) in enumerate(funcs):
        iv = injective_rep(q, v)
        for u in q.vertices:
            if iv.dim(u) == 0:
                continue
            row = K.matmul(phi.reshape(1, -1), path_action(M, v, u))
            mats[u - 1][offsets[slot][u - 1], :] = row[0]
    emb = Morphism(M, cod, mats).validate()
    if emb.total_rank() != M.total_dim:
        raise InternalCheckError("envelope embedding is not injective")
    return labels, emb


def _scalar_matrix_of_injective_map(f: Morphism, src_labels, src_offsets, tgt_labels, tgt_offsets) -> np.ndarray:
    """Canonical-basis scalars of a morphism between sums of injectives."""
    q = f.src.quiver
    out = np.zeros((len(tgt_labels), len(src_labels)), dtype=np.int64)
    for r, w in enumerate(tgt_labels):
        row_at_w = tgt_offsets[r][w - 1]
        for c, v in enumerate(src_labels):
            if q.has_path(v, w):
                out[r, c] = f.mat(w)[row_at_w, src_offsets[c][w - 1]]
    return out


def assemble_injective_map(q: Quiver, src_labels, tgt_labels, scal) -> Morphism:
    """Rebuild a morphism between sums of injectives from path-basis scalars."""
    dom, off_s = injective_sum(q, tuple(src_labels))
    cod, off_t = injective_sum(q, tuple(tgt_labels))
    mats = [np.zeros((cod.dim(v), dom.dim(v)), dtype=np.int64) for v in q.vertices]
    for c, u in enumerate(src_labels):
        for r, w in enumerate(tgt_labels):
            s = int(scal[r, c]) % K.P
            if s == 0:
                continue
            base = canonical_injective_morphism(q, u, w)
            for v in q.vertices:
                if base.src.dim(v) and base.tgt.dim(v):
                    mats[v - 1][off_t[r][v - 1], off_s[c][v - 1]] = (
                        mats[v - 1][off_t[r][v - 1], off_s[c][v - 1]] + s
                    ) % K.P
    return Morphism(dom, cod, mats).validate()


def tau_inv_rep(M: Rep) -> Rep:
    """The inverse translate of a module (zero on injectives).

    Computed from the two-step injective envelope: embed M, take the
    cokernel, embed again; transport the connecting map to projectives
    through the canonical degree-preserving identification and take its
    cokernel.
    """
    q = M.quiver
    if M.is_zero():
        return M
    labels0, emb = _injective_envelope(M)
    cok, proj = cokernel(emb)
    if cok.is_zero():
        return zero_rep(q)
    labels1, emb1 = _injective_envelope(cok)
    g = emb1.compose(proj)
    off0 = injective_sum(q, tuple(labels0))[1]
    off1 = injective_sum(q, tuple(labels1))[1]
    scal = _scalar_matrix_of_injective_map(g, labels0, off0, labels1, off1)
    rebuilt = assemble_injective_map(q, labels0, labels1, scal)
    for v in q.vertices:
        if not np.array_equal(rebuilt.mat(v), g.mat(v)):
            raise InternalCheckError("copresentation map is not a scalar combination of path morphisms")
    ghat = assemble_projective_map(q, labels0, labels1, scal)
    result, _ = cokernel(ghat)
    return result


def tau_rep(M: Rep) -> Rep:
    """The translate of a module (zero on projectives), dual construction."""
    q = M.quiver
    if M.is_zero():
        return M
    labels1, labels0, scal = min_presentation(M)
    if not labels1:
        return zero_rep(q)  # M projective
    nu_d = assemble_injective_map(q, labels1, labels0, scal)
    result, _ = kernel(nu_d)
    return result


# ---------------------------------------------------------------------------
# the list of indecomposables


@functools.cache
def _indec_data(q: Quiver):
    table: dict[IndecLabel, Rep] = {}
    orbit_len: dict[int, int] = {}
    for v in q.vertices:
        M = projective_rep(q, v)
        k = 0
        while not M.is_zero():
            table[IndecLabel(q, v, k)] = M
            M = tau_inv_rep(M)
            k += 1
        orbit_len[v] = k
    expected = q.dtype.positive_root_count()
    if len(table) != expected:
        raise InternalCheckError(
            f"found {len(table)} indecomposables, expected {expected} for {q.dtype}"
        )
    roots = {tuple(int(x) for x in r) for r in positive_roots(q.dtype)}
    for lab, rep in table.items():
        if rep.dim_vector() not in roots:
            raise InternalCheckError(f"dimension vector of {lab} is not a root")
    return table, orbit_len


def list_indecomposables(q: Quiver) -> list[tuple[IndecLabel, Rep]]:
    """All indecomposables as (label, representation), deterministically ordered."""
    table, _ = _indec_data(q)
    topo = {v: i for i, v in enumerate(q.topological_order())}
    return sorted(table.items(), key=lambda it: (it[0].power, topo[it[0].vertex]))


def orbit_lengths(q: Quiver) -> dict[int, int]:
    """Length of the inverse-translate orbit through each projective."""
    return dict(_indec_data(q)[1])


def indec_rep(label: IndecLabel) -> Rep:
    table, _ = _indec_data(label.quiver)
    if label not in table:
        raise InternalCheckError(f"{label} is not a valid indecomposable label")
    return table[label]


def label_by_dim_vector(q: Quiver, dims) -> IndecLabel:
    dims = tuple(int(d) for d in dims)
    for lab, rep in _indec_data(q)[0].items():
        if rep.dim_vector() == dims:
            return lab
    raise GuardError(f"no indecomposable with dimension vector {dims}")


def decompose(M: Rep) -> Counter:
    """Multiplicities of each indecomposable summand of M.

    Uses the fact that the hom-dimension matrix between indecomposables is
    unitriangular for the (power, topological) order, so the multiplicities
    solve a triangular linear system of hom counts.
    """
    q = M.quiver
    items = list_indecomposables(q)
    hom_to_M = [hom_dim(rep, M) for _, rep in items]
    n = len(items)
    H = np.zeros((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            H[a, b] = hom_dim(items[a][1], items[b][1])
        if H[a, a] != 1:
            raise InternalCheckError("endomorphism ring of an indecomposable is not trivial")
    mult = [0] * n
    for a in range(n - 1, -1, -1):
        acc = int(hom_to_M[a] - sum(H[a, b] * mult[b] for b in range(a + 1, n)))
        mult[a] = acc
        if acc < 0:
            raise InternalCheckError("negative multiplicity in decomposition")
    if sum(m * rep.total_dim for m, (_, rep) in zip(mult, items)) != M.total_dim:
        raise InternalCheckError("decomposition does not add up")
    return Counter({items[a][0]: mult[a] for a in range(n) if mult[a]})


def is_injective_rep(M: Rep) -> bool:
    q = M.quiver
    inj_labels = {label_by_dim_vector(q, injective_rep(q, v).dim_vector()) for v in q.vertices}
    return all(lab in inj_labels for lab in decompose(M))


# ---------------------------------------------------------------------------
# translation structure of the module category


@dataclasses.dataclass(frozen=True)
class ARQuiver:
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
    e = orbit_lengths(q)
    verts = [lab for lab, _ in list_indecomposables(q)]
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
# extensions and the Euler form


def ext1_dim(m, n) -> int:
    """dim Ext^1(M, N), as hom into the translate of M; the translate kills
    projective summands, which have no extensions out of them."""
    M, N = _as_rep(m), _as_rep(n)
    return hom_dim(N, tau_rep(M))


def _ext1_via_presentation(m, n) -> int:
    """Independent route for cross-checks: dim Ext^1(M, N) from a minimal
    projective presentation of M."""
    M, N = _as_rep(m), _as_rep(n)
    q = M.quiver
    labels1, labels0, scal = min_presentation(M)
    if not labels1:
        return 0
    # Hom(P_v, N) is N_v via evaluation at the generator; precomposition with
    # the presentation map acts by the path action weighted by the scalars.
    dim0 = sum(N.dim(v) for v in labels0)
    dim1 = sum(N.dim(v) for v in labels1)
    if dim1 == 0:
        return 0
    rows0 = np.concatenate([[0], np.cumsum([N.dim(v) for v in labels0])])
    rows1 = np.concatenate([[0], np.cumsum([N.dim(v) for v in labels1])])
    mat = np.zeros((dim1, dim0), dtype=np.int64)
    for c1, u in enumerate(labels1):
        for c0, w in enumerate(labels0):
            s = int(scal[c0, c1]) % K.P
            if s == 0:
                continue
            blk = s * path_action(N, u, w)  # N_w -> N_u along u ~> w
            mat[rows1[c1] : rows1[c1 + 1], rows0[c0] : rows0[c0 + 1]] = blk % K.P
    return dim1 - K.rank(mat)


def euler_form(q: Quiver, d, e) -> int:
    """The bilinear form computing hom minus ext on dimension vectors."""
    d = [int(x) for x in d]
    e = [int(x) for x in e]
    total = sum(a * b for a, b in zip(d, e))
    for (i, j) in q.arrows:
        total -= d[j - 1] * e[i - 1]
    return total
