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
* All matrices are exact, over the fixed prime field of `_kernels`: tuples
  of int rows in [0, P), so a representation shared through a memo cannot
  be changed in place.

The irreducible data extracted from a quiver is the orbit structure of the
inverse translate: every indecomposable is tauinv^k applied to a projective,
which is how `list_indecomposables` generates them.  The labels, dimension
vectors and translation quiver alone are knitted in integers by `stalks`
(and re-exported here); the matrix route of this module is the independent
check on them.
"""
from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from itertools import accumulate
from types import MappingProxyType

from . import _kernels as K
from . import stalks
from .dynkin import Quiver, positive_roots
from .errors import InternalCheckError
# labels, orbit lengths (the exponents e_v) and the translation quiver are
# knitted in integers
from .stalks import ARQuiver, IndecLabel, knit_ar_quiver, label_by_dim_vector
from .stalks import e_exponent as orbit_lengths


def _has_shape(m, rows: int, cols: int) -> bool:
    return len(m) == rows and all(len(r) == cols for r in m)


class Rep:
    """A representation: dims per vertex and one matrix per arrow."""

    def __init__(self, quiver: Quiver, dims, maps):
        self.quiver = quiver
        self.dims = tuple(int(d) for d in dims)
        # maps[(i, j)] has shape (dims[i-1], dims[j-1]) and sends M_j -> M_i
        self.maps = MappingProxyType({a: K.as_matrix(m) for a, m in maps.items()})
        for (i, j), m in self.maps.items():
            if not _has_shape(m, self.dims[i - 1], self.dims[j - 1]):
                raise InternalCheckError(f"bad map shape at arrow {(i, j)}")

    def dim(self, v: int) -> int:
        return self.dims[v - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def map(self, arrow) -> tuple:
        return self.maps[arrow]

    def dim_vector(self) -> tuple[int, ...]:
        return self.dims

    def __repr__(self) -> str:
        return f"Rep{self.dims}"


@dataclasses.dataclass
class Morphism:
    src: Rep
    tgt: Rep
    mats: tuple  # per vertex v (1-based): shape (tgt.dim(v), src.dim(v))

    def __post_init__(self):
        self.mats = tuple(K.as_matrix(m) for m in self.mats)

    def mat(self, v: int) -> tuple:
        return self.mats[v - 1]

    def validate(self) -> "Morphism":
        for v in self.src.quiver.vertices:
            if not _has_shape(self.mat(v), self.tgt.dim(v), self.src.dim(v)):
                raise InternalCheckError(f"bad matrix shape at vertex {v}")
        for (i, j) in self.src.quiver.arrows:
            n = self.src.dim(j)
            lhs = K.matmul(self.mat(i), self.src.map((i, j)), n)
            rhs = K.matmul(self.tgt.map((i, j)), self.mat(j), n)
            if lhs != rhs:
                raise InternalCheckError(f"matrices do not intertwine at arrow {(i, j)}")
        return self

    def compose(self, other: "Morphism") -> "Morphism":
        # self after other: other: A -> B, self: B -> C
        mats = [K.matmul(s, o, other.src.dim(v))
                for v, s, o in zip(self.src.quiver.vertices, self.mats, other.mats)]
        return Morphism(other.src, self.tgt, mats)

    def total_rank(self) -> int:
        return sum(K.rank(m) for m in self.mats)


def zero_rep(q: Quiver) -> Rep:
    return Rep(q, [0] * q.rank, {a: () for a in q.arrows})


def _path_indicator_rep(q: Quiver, cond) -> Rep:
    dims = [1 if cond(v) else 0 for v in q.vertices]
    maps = {}
    for (i, j) in q.arrows:
        maps[(i, j)] = ((1,) * dims[j - 1],) * dims[i - 1]
    return Rep(q, dims, maps)


@functools.cache
def projective_rep(q: Quiver, i: int) -> Rep:
    return _path_indicator_rep(q, lambda v: q.has_path(v, i))


@functools.cache
def injective_rep(q: Quiver, i: int) -> Rep:
    return _path_indicator_rep(q, lambda v: q.has_path(i, v))


def simple_rep(q: Quiver, i: int) -> Rep:
    return _path_indicator_rep(q, lambda v: v == i)


def path_action(M: Rep, a: int, b: int) -> tuple:
    """The composite map M_b -> M_a along the directed path a ~> b."""
    path = M.quiver.path_vertices(a, b)
    if path is None:
        raise InternalCheckError(f"no path {a} ~> {b}")
    out = K.identity(M.dim(b))
    for u, w in zip(reversed(path[:-1]), reversed(path[1:])):
        out = K.matmul(M.map((u, w)), out, M.dim(b))
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
        m = [[0] * dims[j - 1] for _ in range(dims[i - 1])]
        for r, off in zip(reps, offsets):
            for t, row in enumerate(r.map(a)):
                m[off[i - 1] + t][off[j - 1] : off[j - 1] + r.dim(j)] = row
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
    """The validated morphism whose every defined entry is 1."""
    mats = tuple(((1,) * src.dim(v),) * tgt.dim(v) for v in src.quiver.vertices)
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
    starts = [0, *accumulate(N.dim(v) * M.dim(v) for v in q.vertices)]
    rows = []
    for (i, j) in q.arrows:
        # f_i @ M(a) = N(a) @ f_j, entries (r, c) with r < N.dim(i), c < M.dim(j)
        Ma, Na = M.map((i, j)), N.map((i, j))
        for r in range(N.dim(i)):
            for c in range(M.dim(j)):
                row: dict[int, int] = {}
                base_i = starts[i - 1]
                for t in range(M.dim(i)):
                    k = base_i + r * M.dim(i) + t
                    row[k] = row.get(k, 0) + Ma[t][c]
                base_j = starts[j - 1]
                for t in range(N.dim(j)):
                    k = base_j + t * M.dim(j) + c
                    row[k] = row.get(k, 0) - Na[r][t]
                rows.append(row)
    out = []
    for vec in K.nullspace(rows, starts[-1]):
        mats = []
        for v in q.vertices:
            seg, m = vec[starts[v - 1] : starts[v]], M.dim(v)
            mats.append([seg[r * m : (r + 1) * m] for r in range(N.dim(v))])
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
    null = [K.nullspace(f.mat(v), f.src.dim(v)) for v in q.vertices]
    dims = [len(b) for b in null]
    # per vertex, the inclusion of the kernel: its basis as columns
    bases = [K.transpose(b, f.src.dim(v)) for v, b in zip(q.vertices, null)]
    maps = {}
    for (i, j) in q.arrows:
        img = K.matmul(f.src.map((i, j)), bases[j - 1], dims[j - 1])
        x = K.solve(bases[i - 1], img, dims[i - 1])
        if x is None:
            raise InternalCheckError("kernel is not a subrepresentation")
        maps[(i, j)] = x
    ker = Rep(q, dims, maps)
    incl = Morphism(ker, f.src, bases).validate()
    return ker, incl


def cokernel(f: Morphism) -> tuple[Rep, Morphism]:
    q = f.tgt.quiver
    # per vertex, rows that kill the image
    projs = [K.nullspace(K.transpose(f.mat(v), f.src.dim(v)), f.tgt.dim(v)) for v in q.vertices]
    dims = [len(p) for p in projs]
    maps = {}
    for (i, j) in q.arrows:
        # X with X @ proj_j = proj_i @ N(a)
        rhs = K.matmul(projs[i - 1], f.tgt.map((i, j)), f.tgt.dim(j))
        xt = K.solve(K.transpose(projs[j - 1], f.tgt.dim(j)), K.transpose(rhs, f.tgt.dim(j)),
                     dims[j - 1])
        if xt is None:
            raise InternalCheckError("cokernel maps do not descend")
        maps[(i, j)] = K.transpose(xt, dims[i - 1])
    cok = Rep(q, dims, maps)
    proj = Morphism(f.tgt, cok, projs).validate()
    return cok, proj


def socle_bases(M: Rep) -> list[tuple]:
    """Per vertex, a basis (as rows) of the largest semisimple subrepresentation."""
    q = M.quiver
    out = []
    for v in q.vertices:
        incoming = [row for (i, _) in q.arrows_into(v) for row in M.map((i, v))]
        out.append(K.nullspace(incoming, M.dim(v)))
    return out


def radical_projections(M: Rep) -> list[tuple]:
    """Per vertex, a projection whose kernel is the radical subspace."""
    q = M.quiver
    out = []
    for v in q.vertices:
        # the columns of the outgoing maps span the radical subspace
        image = [col for (_, j) in q.arrows_from(v) for col in K.transpose(M.map((v, j)), M.dim(j))]
        out.append(K.nullspace(image, M.dim(v)))
    return out


# ---------------------------------------------------------------------------
# projective covers and presentations


def projective_cover(M: Rep) -> tuple[list[int], Morphism]:
    """Vertex labels (with multiplicity) of P(top M) and the cover morphism."""
    q = M.quiver
    projs = radical_projections(M)
    labels: list[int] = []
    gens: list[tuple[int, tuple[int, ...]]] = []
    for v in q.vertices:
        pv = projs[v - 1]
        t = len(pv)
        if t == 0:
            continue
        lift = K.solve(pv, K.identity(t), M.dim(v))
        if lift is None:
            raise InternalCheckError("top projection has no section")
        for c in range(t):
            labels.append(v)
            gens.append((v, tuple(row[c] for row in lift)))
    if not labels:
        return [], Morphism(zero_rep(q), M, [((),) * M.dim(v) for v in q.vertices])
    dom, offsets = projective_sum(q, tuple(labels))
    mats = [[[0] * dom.dim(v) for _ in range(M.dim(v))] for v in q.vertices]
    for slot, (v, vec) in enumerate(gens):
        pv_rep = projective_rep(q, v)
        for u in q.vertices:
            if pv_rep.dim(u) == 0:
                continue
            col = offsets[slot][u - 1]
            for row, (x,) in zip(mats[u - 1], K.matmul(path_action(M, u, v), [(x,) for x in vec])):
                row[col] = x
    cover = Morphism(dom, M, mats).validate()
    # surjectivity
    for v in q.vertices:
        if K.rank(cover.mat(v)) != M.dim(v):
            raise InternalCheckError("projective cover is not surjective")
    return labels, cover


def scalar_matrix_of_projective_map(f: Morphism, src_labels: list[int], src_offsets, tgt_labels: list[int], tgt_offsets) -> tuple:
    """Express a morphism between sums of projectives in canonical basis scalars.

    Entry (r, c) is the coefficient of the append-path morphism
    P_{src_labels[c]} -> P_{tgt_labels[r]}; it is read off by evaluating at
    the source generator and asserted to reproduce the whole morphism.
    """
    q = f.src.quiver
    out = [[0] * len(src_labels) for _ in tgt_labels]
    for c, u in enumerate(src_labels):
        col_at_u = src_offsets[c][u - 1]
        for r, w in enumerate(tgt_labels):
            if q.has_path(u, w):
                out[r][c] = f.mat(u)[tgt_offsets[r][u - 1]][col_at_u]
    return K.as_matrix(out)


def min_presentation(M: Rep) -> tuple[list[int], list[int], tuple]:
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
        if assemble_projective_map(q, labels1, labels0, scal).mats != d.mats:
            raise InternalCheckError("presentation map is not a scalar combination of path morphisms")
    else:
        scal = K.zeros(len(labels0), len(labels1))
    return labels1, labels0, scal


def _assemble_map(make_sum, canonical, q: Quiver, src_labels, tgt_labels, scal) -> Morphism:
    """Rebuild a morphism between direct sums (built by `make_sum`) from its
    scalars on the basis morphisms (built by `canonical`) between summands."""
    dom, off_s = make_sum(q, tuple(src_labels))
    cod, off_t = make_sum(q, tuple(tgt_labels))
    mats = [[[0] * dom.dim(v) for _ in range(cod.dim(v))] for v in q.vertices]
    for c, u in enumerate(src_labels):
        for r, w in enumerate(tgt_labels):
            s = scal[r][c] % K.P
            if s == 0:
                continue
            base = canonical(q, u, w)
            for v in q.vertices:
                if base.src.dim(v) and base.tgt.dim(v):
                    mats[v - 1][off_t[r][v - 1]][off_s[c][v - 1]] += s
    return Morphism(dom, cod, mats).validate()


def assemble_projective_map(q: Quiver, src_labels, tgt_labels, scal) -> Morphism:
    """Rebuild the rep-level morphism from canonical-basis scalars."""
    return _assemble_map(projective_sum, canonical_projective_morphism,
                         q, src_labels, tgt_labels, scal)


# ---------------------------------------------------------------------------
# the inverse translate and its inverse


def _injective_envelope(M: Rep) -> tuple[list[int], Morphism]:
    """Socle-by-socle embedding of M into a sum of injectives."""
    q = M.quiver
    socs = socle_bases(M)
    labels: list[int] = []
    funcs: list[tuple[int, tuple[int, ...]]] = []  # (vertex, functional row)
    for v in q.vertices:
        B = socs[v - 1]
        if not B:
            continue
        d = M.dim(v)
        # extend the socle basis to a basis and take the dual rows: the
        # pivot columns of [B | 1] are B's and the unit vectors that extend it
        ext = [tuple(b[r] for b in B) + row for r, row in enumerate(K.identity(d))]
        cols = sorted(K.rref(ext))
        full = [[row[c] for c in cols] for row in ext]
        finv = K.solve(full, K.identity(d), d)
        if finv is None:
            raise InternalCheckError("socle basis failed to extend")
        for c in range(len(B)):
            labels.append(v)
            funcs.append((v, finv[c]))
    if not labels:
        cod = zero_rep(q)
        return [], Morphism(M, cod, [() for v in q.vertices])
    cod, offsets = injective_sum(q, tuple(labels))
    mats = [[(0,) * M.dim(v)] * cod.dim(v) for v in q.vertices]
    for slot, (v, phi) in enumerate(funcs):
        iv = injective_rep(q, v)
        for u in q.vertices:
            if iv.dim(u) == 0:
                continue
            (row,) = K.matmul((phi,), path_action(M, v, u), M.dim(u))
            mats[u - 1][offsets[slot][u - 1]] = row
    emb = Morphism(M, cod, mats).validate()
    if emb.total_rank() != M.total_dim:
        raise InternalCheckError("envelope embedding is not injective")
    return labels, emb


def _scalar_matrix_of_injective_map(f: Morphism, src_labels, src_offsets, tgt_labels, tgt_offsets) -> tuple:
    """Canonical-basis scalars of a morphism between sums of injectives."""
    q = f.src.quiver
    out = [[0] * len(src_labels) for _ in tgt_labels]
    for r, w in enumerate(tgt_labels):
        row_at_w = tgt_offsets[r][w - 1]
        for c, v in enumerate(src_labels):
            if q.has_path(v, w):
                out[r][c] = f.mat(w)[row_at_w][src_offsets[c][w - 1]]
    return K.as_matrix(out)


def assemble_injective_map(q: Quiver, src_labels, tgt_labels, scal) -> Morphism:
    """Rebuild a morphism between sums of injectives from path-basis scalars."""
    return _assemble_map(injective_sum, canonical_injective_morphism,
                         q, src_labels, tgt_labels, scal)


def min_copresentation(M: Rep) -> tuple[list[int], Morphism, list[int], tuple]:
    """Minimal injective copresentation 0 -> M -> I0 -> I1 from the two-step
    injective envelope (embed M, take the cokernel, embed again): labels of
    I0, the embedding M -> I0, labels of I1 and the path-basis scalars of
    the connecting map I0 -> I1, asserted to rebuild it."""
    q = M.quiver
    labels0, emb = _injective_envelope(M)
    cok, proj = cokernel(emb)
    if cok.is_zero():
        return labels0, emb, [], ()
    labels1, emb1 = _injective_envelope(cok)
    g = emb1.compose(proj)
    off0 = injective_sum(q, tuple(labels0))[1]
    off1 = injective_sum(q, tuple(labels1))[1]
    scal = _scalar_matrix_of_injective_map(g, labels0, off0, labels1, off1)
    if assemble_injective_map(q, labels0, labels1, scal).mats != g.mats:
        raise InternalCheckError("copresentation map is not a scalar combination of path morphisms")
    return labels0, emb, labels1, scal


def tau_inv_rep(M: Rep) -> Rep:
    """The inverse translate of a module (zero on injectives): the cokernel
    of the connecting map of `min_copresentation`, transported to
    projectives through the canonical degree-preserving identification."""
    q = M.quiver
    if M.is_zero():
        return M
    labels0, _, labels1, scal = min_copresentation(M)
    if not labels1:
        return zero_rep(q)
    result, _ = cokernel(assemble_projective_map(q, labels0, labels1, scal))
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
    roots = set(positive_roots(q.dtype))
    for lab, rep in table.items():
        if rep.dim_vector() not in roots:
            raise InternalCheckError(f"dimension vector of {lab} is not a root")
    return table, orbit_len


def list_indecomposables(q: Quiver) -> list[tuple[IndecLabel, Rep]]:
    """All indecomposables as (label, representation), deterministically ordered."""
    table, _ = _indec_data(q)
    topo = {v: i for i, v in enumerate(q.topological_order())}
    return sorted(table.items(), key=lambda it: (it[0].power, topo[it[0].vertex]))


def indec_rep(label: IndecLabel) -> Rep:
    table, _ = _indec_data(label.quiver)
    if label not in table:
        raise InternalCheckError(f"{label} is not a valid indecomposable label")
    return table[label]


def decompose(M: Rep) -> Counter:
    """Multiplicities of each indecomposable summand of M.

    The hom-dimension matrix between indecomposables, knitted by `stalks`,
    is unitriangular for the (power, topological) order, so the
    multiplicities solve a triangular linear system of hom counts into M.
    """
    q = M.quiver
    items = list_indecomposables(q)
    H = stalks._module_hom_matrix(q)
    hom_to_M = [hom_dim(rep, M) for _, rep in items]
    n = len(items)
    mult = [0] * n
    for a in range(n - 1, -1, -1):
        acc = hom_to_M[a] - sum(H[a][b] * mult[b] for b in range(a + 1, n))
        mult[a] = acc
        if acc < 0:
            raise InternalCheckError("negative multiplicity in decomposition")
    if sum(m * rep.total_dim for m, (_, rep) in zip(mult, items)) != M.total_dim:
        raise InternalCheckError("decomposition does not add up")
    return Counter({items[a][0]: mult[a] for a in range(n) if mult[a]})


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
    rows0 = [0, *accumulate(N.dim(v) for v in labels0)]
    rows1 = [0, *accumulate(N.dim(v) for v in labels1)]
    mat = [[0] * dim0 for _ in range(dim1)]
    for c1, u in enumerate(labels1):
        for c0, w in enumerate(labels0):
            s = scal[c0][c1] % K.P
            if s == 0:
                continue
            # N_w -> N_u along u ~> w
            for t, row in enumerate(path_action(N, u, w)):
                mat[rows1[c1] + t][rows0[c0] : rows0[c0 + 1]] = [s * x for x in row]
    return dim1 - K.rank(mat)


def euler_form(q: Quiver, d, e) -> int:
    """The bilinear form computing hom minus ext on dimension vectors."""
    d = [int(x) for x in d]
    e = [int(x) for x in e]
    total = sum(a * b for a, b in zip(d, e))
    for (i, j) in q.arrows:
        total -= d[j - 1] * e[i - 1]
    return total
