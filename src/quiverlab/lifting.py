"""The triangular block algebra over the preprojective algebra, and the lift
from block morphisms back to morphism-category labels.

The lift is the partial inverse of the presentation functor
`higgs.phi_image`: identity summands split off as identity-object labels,
the rest splits into indecomposable pieces by Fitting projectors of random
endomorphisms, each piece is matched against the table of phi images, and
a piece that matches no label is witnessed by a universal two-term
conflation.  The block algebra's Nakayama permutation is the independent
route to the order of the rotation omega.

Elements stay sparse (basis index, coefficient) terms, multiplied by
`PreprojAlgebra.mult`.  Every linear map of blocks (the underlying map of
a block morphism, the hom-pair systems, local inverses, the left actions
of basis words) is a dense matrix that `_action` reads off the algebra's
`products`.  numpy, imported at the top with `_kernels`, does only the
linear algebra on them: nullspaces, ranks, solves and the Fitting
projectors.  `higgs` itself loads neither.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import _kernels as K
from . import morphcat as mp
from .dynkin import Quiver
from .errors import GuardError, InternalCheckError
from .higgs import LambdaMorphism, PreprojAlgebra, Terms, _pairs, phi_image, preprojective_algebra
from .morphcat import MprLabel


def _action(alg: PreprojAlgebra, x, rows, cols, left: bool) -> np.ndarray:
    """The matrix of b -> x * b (left) or b -> b * x (right) on the span of
    the basis words `cols`, read in the basis words `rows`, for x given as
    (index, coefficient) terms: column c holds the product with b_cols[c],
    read off the nonzero products of basis words."""
    at = {k: r for r, k in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for c, j in enumerate(cols):
        for i, a in x:
            for k, v in alg.products.get((i, j) if left else (j, i), ()):
                out[at[k]][c] += a * v
    return np.array(out, dtype=np.int64).reshape(len(rows), len(cols)) % K.P


def _minus(x, y) -> Terms:
    """x - y for elements given as terms."""
    out = dict(x)
    for k, c in y:
        out[k] = out.get(k, 0) - c
    return _pairs(out)


def underlying_matrix(f: LambdaMorphism) -> np.ndarray:
    """The induced linear map on underlying spaces (source basis maps
    through right multiplication by the entries)."""
    alg = f.alg
    rows = [alg.module_indices(v) for v in f.p0]
    cols = [alg.module_indices(v) for v in f.p1]
    if not rows or not cols:
        return np.zeros((f.target_dim(), f.source_dim()), dtype=np.int64)
    return np.block([[_action(alg, f.entries[r][c], kr, kc, left=False) for c, kc in enumerate(cols)]
                     for r, kr in enumerate(rows)])


# ---------------------------------------------------------------------------
# the triangular block algebra


class TQAlgebra:
    """Cyclic 3x3 block algebra with pattern
    [[L, 0, L'], [L, L, 0], [0, L, L]]: six copies of the loop algebra L
    arranged so that every product leaving the pattern vanishes.  The
    corner block L' is the twisted copy: passing through it is what makes
    the socle-to-top permutation pick up the vertex involution once per
    lap around the cycle, instead of closing up after three steps."""

    BLOCKS = ((0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2))
    CORNER = (0, 2)

    def __init__(self, q: Quiver):
        self.algebra = preprojective_algebra(q)
        self.quiver = q
        d = self.algebra.dim
        self.total_dim = 6 * d
        self._check_associativity()

    def block_product(self, b1, x, b2, y):
        """Product of an element x in block b1 with y in block b2; returns
        (block, terms) or None when it is structurally zero."""
        if b1[1] != b2[0]:
            return None
        tgt = (b1[0], b2[1])
        if tgt not in self.BLOCKS:
            return None  # forced zero through a vanishing block
        return tgt, self.algebra.mult(x, y)

    def _check_associativity(self):
        rng = np.random.default_rng(2)
        d = self.algebra.dim
        for b1 in self.BLOCKS:
            for b2 in self.BLOCKS:
                for b3 in self.BLOCKS:
                    x, y, z = (dict(enumerate(rng.integers(0, K.P, d).tolist())) for _ in range(3))
                    xy = self.block_product(b1, x, b2, y)
                    left = self.block_product(*xy, b3, z) if xy else None
                    yz = self.block_product(b2, y, b3, z)
                    right = self.block_product(b1, x, *yz) if yz else None
                    # a zero product lies in no block
                    lb = {left[0]: left[1]} if left and left[1] else {}
                    rb = {right[0]: right[1]} if right and right[1] else {}
                    if lb != rb:
                        raise InternalCheckError(f"block product not associative at {b1}{b2}{b3}")

    def idempotents(self):
        return [(r, v) for r in range(3) for v in self.quiver.vertices]

    def projective_basis(self, r: int, v: int):
        """Basis of the left projective at the diagonal idempotent (r, v):
        pairs (block, algebra basis index)."""
        alg = self.algebra
        out = []
        for b in self.BLOCKS:
            if b[1] != r:
                continue
            out.extend((b, k) for k in alg.module_indices(v))
        return out

    def nakayama_permutation(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Socle chase: each left projective has simple socle, whose weight
        is the image idempotent."""
        alg = self.algebra
        rad = [k for k, (_, w) in enumerate(alg.basis) if w]
        perm = {}
        for (r, v) in self.idempotents():
            pbasis = self.projective_basis(r, v)
            mod = alg.module_indices(v)
            col = {b: t * len(mod) for t, b in enumerate(b for b in self.BLOCKS if b[1] == r)}
            # the radical generators are the off-diagonal block basis elements
            # plus the diagonal radical elements; each one kills the socle.
            # Row (block, g, k) is the b_k coefficient of g times the block's
            # component, so only the nonzero products make rows
            rows: dict[tuple, dict[int, int]] = {}
            for gb in self.BLOCKS:
                if (gb[0], r) not in col or (gb[1], r) not in col:
                    continue  # the product leaves the block pattern
                gens = rad if gb[0] == gb[1] else range(alg.dim)
                c = col[(gb[1], r)]
                for g in gens:
                    for t, y in enumerate(mod):
                        for k, x in alg.products.get((g, y), ()):
                            rows.setdefault((gb, g, k), {})[c + t] = x
            eq = np.zeros((max(len(rows), 1), len(pbasis)), dtype=np.int64)
            for n, row in enumerate(rows.values()):
                eq[n, list(row)] = list(row.values())
            ns = K.nullspace(eq)
            if ns.shape[1] != 1:
                raise InternalCheckError(
                    f"left projective at {(r, v)} has socle dimension {ns.shape[1]}"
                )
            soc = ns[:, 0]
            weights = set()
            for i in np.nonzero(soc % K.P)[0]:
                b, k = pbasis[int(i)]
                weights.add((b[0], alg.word_start(k)))
            if len(weights) != 1:
                raise InternalCheckError("socle is not weight-homogeneous")
            perm[(r, v)] = weights.pop()
        return perm

    def nakayama_order(self) -> int:
        perm = self.nakayama_permutation()
        order = 1
        for start in perm:
            cur, n = perm[start], 1
            while cur != start:
                cur, n = perm[cur], n + 1
            order = math.lcm(order, n)
        return order


def tq_algebra(q: Quiver) -> TQAlgebra:
    return TQAlgebra(q)


# ---------------------------------------------------------------------------
# hom pairs


def _hom_pair_space(X: LambdaMorphism, Y: LambdaMorphism):
    """Basis of pairs (f1, f0) with f0 x = y f1, as flat coefficient
    vectors over the per-entry path spaces."""
    alg = X.alg
    slots1 = [
        (r, c, i)
        for r in range(len(Y.p1))
        for c in range(len(X.p1))
        for i in alg.block_indices(X.p1[c], Y.p1[r])
    ]
    slots0 = [
        (r, c, i)
        for r in range(len(Y.p0))
        for c in range(len(X.p0))
        for i in alg.block_indices(X.p0[c], Y.p0[r])
    ]
    nvar = len(slots1) + len(slots0)
    # the first variable of each entry of f1 and of f0
    first1: dict[tuple[int, int], int] = {}
    first0: dict[tuple[int, int], int] = {}
    for k, (r, c, _) in enumerate(slots1):
        first1.setdefault((r, c), k)
    for k, (r, c, _) in enumerate(slots0):
        first0.setdefault((r, c), len(slots1) + k)
    rows = []
    for r in range(len(Y.p0)):
        for c in range(len(X.p1)):
            # entry (r, c) of f0 x - y f1, which lies in the path space
            # X.p1[c] -> Y.p0[r]: sum_cc x[cc][c] * f0[r][cc] minus
            # sum_rr f1[rr][c] * y[r][rr]
            out = alg.block_indices(X.p1[c], Y.p0[r])
            eq = np.zeros((len(out), nvar), dtype=np.int64)
            for cc in range(len(X.p0)):
                if (r, cc) in first0 and X.entries[cc][c]:
                    k, ins = first0[r, cc], alg.block_indices(X.p0[cc], Y.p0[r])
                    eq[:, k : k + len(ins)] = _action(alg, X.entries[cc][c], out, ins, left=True)
            for rr in range(len(Y.p1)):
                if (rr, c) in first1 and Y.entries[r][rr]:
                    k, ins = first1[rr, c], alg.block_indices(X.p1[c], Y.p1[rr])
                    eq[:, k : k + len(ins)] = -_action(alg, Y.entries[r][rr], out, ins, left=False)
            rows.append(eq)
    if rows:
        system = K.reduce_mod(np.vstack(rows))
        basis = K.nullspace(system)
    else:
        basis = np.eye(nvar, dtype=np.int64)
    return slots1, slots0, basis


def hom_pair_dim(X: LambdaMorphism, Y: LambdaMorphism) -> int:
    return _hom_pair_space(X, Y)[2].shape[1]


def _pair_matrices(X, Y, slots1, slots0, vec):
    """The pair (f1, f0) with the flat coefficient vector vec; a side with no
    entries is None."""

    def side(slots, start, src, tgt):
        if not src or not tgt:
            return None
        ent = [[{} for _ in src] for _ in tgt]
        for k, (r, c, i) in enumerate(slots, start=start):
            ent[r][c][i] = int(vec[k])
        return LambdaMorphism(X.alg, src, tgt, ent)

    return side(slots1, 0, X.p1, Y.p1), side(slots0, len(slots1), X.p0, Y.p0)


def _invertible(m: LambdaMorphism | None, n_src, n_tgt) -> bool:
    if m is None:
        return n_src == 0 and n_tgt == 0
    U = underlying_matrix(m)
    return U.shape[0] == U.shape[1] and K.rank(U) == U.shape[0]


def is_isomorphic(X: LambdaMorphism, Y: LambdaMorphism) -> bool:
    if sorted(X.p1) != sorted(Y.p1) or sorted(X.p0) != sorted(Y.p0):
        return False
    slots1, slots0, basis = _hom_pair_space(X, Y)
    if basis.shape[1] == 0:
        return len(X.p1) + len(X.p0) == 0
    rng = np.random.default_rng(0)
    for _ in range(24):
        vec = K.reduce_mod(basis @ rng.integers(0, K.P, basis.shape[1]))
        f1, f0 = _pair_matrices(X, Y, slots1, slots0, vec)
        ok1 = _invertible(f1, len(X.p1), len(Y.p1)) if len(X.p1) or len(Y.p1) else True
        ok0 = _invertible(f0, len(X.p0), len(Y.p0)) if len(X.p0) or len(Y.p0) else True
        if ok1 and ok0:
            return True
    return False


# ---------------------------------------------------------------------------
# reduction, splitting, lifting


def _local_inverse(alg: PreprojAlgebra, x: Terms, v: int) -> Terms:
    """Inverse of an element of the local endomorphism ring at v."""
    idx = alg.block_indices(v, v)
    unit = ((alg.e_index[v], 1),)
    rhs = np.zeros(len(idx), dtype=np.int64)
    rhs[idx.index(alg.e_index[v])] = 1
    sol = K.solve(_action(alg, x, idx, idx, left=True), rhs)
    if sol is None:
        raise InternalCheckError("local element is not invertible")
    out = _pairs(zip(idx, sol.tolist()))
    if alg.mult(x, out) != unit:
        raise InternalCheckError("local inverse failed")
    return out


def strip_identity_summands(f: LambdaMorphism):
    """Split off all invertible-pivot summands; returns the reduced
    morphism and the vertices of the removed identity objects."""
    alg = f.alg
    p1, p0 = list(f.p1), list(f.p0)
    ent = [list(row) for row in f.entries]
    stripped = []
    while True:
        pivot = next(((r, c) for r in range(len(p0)) for c in range(len(p1))
                      if p1[c] == p0[r] and dict(ent[r][c]).get(alg.e_index[p1[c]])), None)
        if pivot is None:
            break
        r0, c0 = pivot
        v = p1[c0]
        minv = _local_inverse(alg, ent[r0][c0], v)
        # clear the pivot row via source column operations
        for c in range(len(p1)):
            if c == c0 or not ent[r0][c]:
                continue
            coef = alg.mult(ent[r0][c], minv)  # p1[c] -> v
            for r in range(len(p0)):
                ent[r][c] = _minus(ent[r][c], alg.mult(coef, ent[r][c0]))
        # clear the pivot column via target row operations
        for r in range(len(p0)):
            if r == r0 or not ent[r][c0]:
                continue
            coef = alg.mult(minv, ent[r][c0])  # v -> p0[r]
            for c in range(len(p1)):
                ent[r][c] = _minus(ent[r][c], alg.mult(ent[r0][c], coef))
        stripped.append(v)
        del ent[r0], p0[r0], p1[c0]
        for row in ent:
            del row[c0]
    return LambdaMorphism(alg, p1, p0, ent), tuple(sorted(stripped))


def _end_pair_algebra(X: LambdaMorphism):
    slots1, slots0, basis = _hom_pair_space(X, X)
    n = basis.shape[1]
    pairs = [_pair_matrices(X, X, slots1, slots0, basis[:, k]) for k in range(n)]
    mats = []
    d1, d0 = X.source_dim(), X.target_dim()
    for (f1, f0) in pairs:
        U1 = underlying_matrix(f1) if f1 is not None else np.zeros((d1, d1), dtype=np.int64)
        U0 = underlying_matrix(f0) if f0 is not None else np.zeros((d0, d0), dtype=np.int64)
        M = np.zeros((d1 + d0, d1 + d0), dtype=np.int64)
        M[:d1, :d1] = U1
        M[d1:, d1:] = U0
        mats.append(M)
    return mats


def _end_corank(X: LambdaMorphism) -> int:
    """Dimension of the semisimple quotient of the endomorphism ring: the
    trace form of the action kills exactly the radical (the working prime
    exceeds every dimension in sight)."""
    mats = _end_pair_algebra(X)
    if not mats:
        return 0
    # G[a, b] = trace(A_a A_b) = sum_ij A_a[i, j] A_b[j, i]; each entry sums
    # D^2 products below P^2 (D the matrix size), well inside int64
    A = K.reduce_mod(np.stack(mats))
    return K.rank(np.einsum("aij,bji->ab", A, A) % K.P)


def is_indecomposable(X: LambdaMorphism) -> bool:
    return _end_corank(X) == 1


def _left_actions(alg: PreprojAlgebra, labels, words) -> np.ndarray:
    """Left multiplication by each basis word on the sum of the left
    projectives at `labels`, in row form: x @ out[t] is words[t] * x."""
    mods = [alg.module_indices(v) for v in labels]
    n = sum(map(len, mods))
    out = np.zeros((len(words), n, n), dtype=np.int64)
    for t, g in enumerate(words):
        start = 0
        for idx in mods:
            end = start + len(idx)
            out[t, start:end, start:end] = _action(alg, ((g, 1),), idx, idx, left=True).T
            start = end
    return out


def _split_projective_submodule(alg: PreprojAlgebra, labels, proj_mat):
    """Given an idempotent endomorphism of a sum of left projectives,
    realign its image as a sum of projectives: returns the new labels and
    the generators as underlying vectors."""
    img = K.rref(proj_mat.T)[0]
    img = img[np.any(img % K.P, axis=1)]
    W = img  # rows span the image
    if W.shape[0] == 0:
        return (), []
    rad = [k for k, (_, w) in enumerate(alg.basis) if w]
    JW = K.matmul(W, _left_actions(alg, labels, rad)).reshape(-1, W.shape[1])
    # generators: weight components of the image that are new modulo the
    # radical part (weight projections of a submodule stay inside it)
    gens = []
    new_labels = []
    current = JW.copy()
    # the start vertex of each underlying basis word
    starts = np.array([alg.word_start(k) for v in labels for k in alg.module_indices(v)])
    for v in alg.quiver.vertices:
        wmask = starts == v
        proj = np.zeros_like(W)
        proj[:, wmask] = W[:, wmask]
        for row in proj:
            if not np.any(row % K.P) or K.row_space_contains(current, row):
                continue
            gens.append(row)
            new_labels.append(v)
            current = np.vstack([current, row.reshape(1, -1)])
    if K.rank(current) != K.rank(np.vstack([JW, W]) if JW.shape[0] else W):
        raise InternalCheckError("generators do not span the image submodule")
    return tuple(new_labels), gens


def _express_in_generators(alg, labels, gens, summands, target_vec):
    """Solve target = sum_j z_j . gen_j in the sum of the left projectives
    at `summands`, with z_j in the left projective at labels[j]; returns
    the per-generator algebra coefficients as sparse maps."""
    cols = []
    keys = []
    for j, v in enumerate(labels):
        ks = alg.module_indices(v)
        cols.extend(K.matmul(gens[j], _left_actions(alg, summands, ks)))
        keys.extend((j, k) for k in ks)
    A = np.array(cols, dtype=np.int64).T if cols else np.zeros((len(target_vec), 0), dtype=np.int64)
    sol = K.solve(A, K.reduce_mod(target_vec))
    if sol is None:
        raise InternalCheckError("target does not lie in the generated submodule")
    out: list[dict[int, int]] = [{} for _ in labels]
    for t, (j, k) in enumerate(keys):
        out[j][k] = int(sol[t])
    return out


def _charpoly_modp(M: np.ndarray) -> list[int]:
    """Characteristic polynomial coefficients (monic, highest first) over
    the working prime field, by Newton's identities on power-sum traces."""
    n = M.shape[0]
    s = [0] * (n + 1)
    Mk = np.eye(n, dtype=np.int64)
    for k in range(1, n + 1):
        Mk = K.matmul(Mk, M)
        s[k] = int(np.trace(Mk) % K.P)
    c = [1] + [0] * n
    for k in range(1, n + 1):
        acc = s[k]
        for i in range(1, k):
            acc += c[i] * s[k - i]
        c[k] = (-acc * K.inv_mod(k)) % K.P
    return c


def split_summands(X: LambdaMorphism) -> list[LambdaMorphism]:
    """Fitting decomposition via eigen-projectors of random endomorphism
    pairs, recursing until every piece has local endomorphism ring."""
    if len(X.p1) + len(X.p0) == 0:
        return []
    if is_indecomposable(X):
        return [X]
    slots1, slots0, basis = _hom_pair_space(X, X)
    rng = np.random.default_rng(0)
    d1 = X.source_dim()
    points = np.arange(K.P, dtype=np.int64)
    for _ in range(40):
        vec = K.reduce_mod(basis @ rng.integers(0, K.P, basis.shape[1]))
        f1, f0 = _pair_matrices(X, X, slots1, slots0, vec)
        U1 = underlying_matrix(f1) if f1 is not None else np.zeros((0, 0), dtype=np.int64)
        U0 = underlying_matrix(f0) if f0 is not None else np.zeros((0, 0), dtype=np.int64)
        M = np.zeros((U1.shape[0] + U0.shape[0],) * 2, dtype=np.int64)
        M[:U1.shape[0], :U1.shape[0]] = U1
        M[U1.shape[0]:, U1.shape[0]:] = U0
        # an eigenvalue: the first root of the characteristic polynomial
        value = np.zeros(K.P, dtype=np.int64)
        for cf in _charpoly_modp(M):
            value = (value * points + cf) % K.P
        roots = np.flatnonzero(value == 0)
        if roots.size == 0:
            continue
        # Fitting projector onto ker A along im A, for A = (M - lam)^n
        n = M.shape[0]
        eye = np.eye(n, dtype=np.int64)
        A = K.reduce_mod(M - int(roots[0]) * eye)
        for _ in range(n.bit_length()):
            A = K.matmul(A, A)
        ker = K.nullspace(A)
        im = K.rref(A.T)[0][: n - ker.shape[1]].T
        inv = K.solve(np.concatenate([ker, im], axis=1), eye)
        if inv is None:
            raise InternalCheckError("Fitting kernel and image do not span")
        E = K.matmul(ker, inv[: ker.shape[1]])
        if not np.array_equal(K.matmul(E, E), E):
            continue
        if not np.any(E) or np.array_equal(E, eye):
            continue
        pieces = []
        for proj in (E, (eye - E) % K.P):
            piece = _restrict_to_image(X, proj[:d1, :d1], proj[d1:, d1:])
            pieces.extend(split_summands(piece))
        if sum(p.source_dim() for p in pieces) != X.source_dim() or sum(
            p.target_dim() for p in pieces
        ) != X.target_dim():
            raise InternalCheckError("split lost dimensions")
        return pieces
    raise InternalCheckError("no splitting endomorphism found for a decomposable object")


def _restrict_to_image(X: LambdaMorphism, proj1, proj0) -> LambdaMorphism:
    alg = X.alg
    lab1, gens1 = _split_projective_submodule(alg, X.p1, proj1)
    lab0, gens0 = _split_projective_submodule(alg, X.p0, proj0)
    Umap = underlying_matrix(X)
    ent: list[list] = [[{} for _ in lab1] for _ in lab0]
    for c, g in enumerate(gens1):
        img = K.matmul(Umap, g.reshape(-1, 1)).ravel()
        if not np.any(img % K.P):
            continue
        for r, z in enumerate(_express_in_generators(alg, lab0, gens0, X.p0, img)):
            ent[r][c] = z
    return LambdaMorphism(alg, lab1, lab0, ent)


@dataclasses.dataclass(frozen=True)
class Conflation:
    """Universal two-term witness: the object sits between the trivial
    presentations of its target summands and the kill objects of its
    source summands."""

    sub: tuple[MprLabel, ...]
    quot: tuple[MprLabel, ...]


@dataclasses.dataclass(frozen=True)
class HiggsLift:
    labels: tuple[MprLabel, ...]
    unresolved: tuple[Conflation, ...]


@functools.cache
def _phi_table(q: Quiver):
    """(label, p1, p0, entries) of every phi image, entries as int tuples.
    It holds no algebra, so clearing `preprojective_algebra` alone frees
    one."""
    return tuple((lab, img.p1, img.p0, img.entries)
                 for lab, img in ((lab, phi_image(lab)) for lab in mp.mpr_indecomposables(q)))


def _phi_images(alg: PreprojAlgebra) -> list[tuple[MprLabel, LambdaMorphism]]:
    """Every label with its phi image, rebuilt on `alg` from `_phi_table`."""
    return [(lab, LambdaMorphism(alg, p1, p0, ent))
            for lab, p1, p0, ent in _phi_table(alg.quiver)]


_REP_FINITE = {"A1", "A2", "A3", "A4"}


def lift_morphism(f: LambdaMorphism) -> HiggsLift:
    """Partial inverse of the embedding: identity summands come back as
    identity-object labels, remaining indecomposable pieces are matched
    against the label table, and anything unmatched is witnessed by its
    universal conflation."""
    q = f.alg.quiver
    if str(q.dtype) not in _REP_FINITE:
        raise GuardError(
            f"lifting needs a representation-finite loop algebra "
            f"({sorted(_REP_FINITE)}), not {q.dtype}"
        )
    reduced, stripped = strip_identity_summands(f)
    labels = [MprLabel(q, "dzero", v) for v in stripped]
    unresolved = []
    images = _phi_images(f.alg)
    for piece in split_summands(reduced):
        match = None
        for lab, img in images:
            if is_isomorphic(piece, img):
                match = lab
                break
        if match is not None:
            labels.append(match)
        else:
            unresolved.append(
                Conflation(
                    sub=tuple(MprLabel(q, "mod", v, 0) for v in piece.p0),
                    quot=tuple(MprLabel(q, "done", v) for v in piece.p1),
                )
            )
    return HiggsLift(tuple(labels), tuple(unresolved))


def direct_sum(alg: PreprojAlgebra, pieces) -> LambdaMorphism:
    p1 = [v for m in pieces for v in m.p1]
    p0 = [v for m in pieces for v in m.p0]
    ent: list[list] = [[() for _ in p1] for _ in p0]
    r_off = c_off = 0
    for m in pieces:
        for r, row in enumerate(m.entries):
            ent[r_off + r][c_off : c_off + len(row)] = row
        r_off += len(m.p0)
        c_off += len(m.p1)
    return LambdaMorphism(alg, p1, p0, ent)


def realize_lift(q: Quiver, lift: HiggsLift) -> LambdaMorphism:
    """Image of a lifted object back in the morphism category: labelled
    summands map through the embedding, conflation witnesses through a
    generic radical extension class of their two-term shape."""
    alg = preprojective_algebra(q)
    rng = np.random.default_rng(7)
    pieces = [phi_image(lab) for lab in lift.labels]
    for conf in lift.unresolved:
        p1 = tuple(lab.vertex for lab in conf.quot)
        p0 = tuple(lab.vertex for lab in conf.sub)
        ent: list[list] = [[{} for _ in p1] for _ in p0]
        for r in range(len(p0)):
            for c in range(len(p1)):
                for i in alg.block_indices(p1[c], p0[r]):
                    if not alg.basis[i][1]:
                        continue  # stay inside the radical
                    ent[r][c][i] = int(rng.integers(1, K.P))
        pieces.append(LambdaMorphism(alg, p1, p0, ent))
    return direct_sum(alg, pieces)
