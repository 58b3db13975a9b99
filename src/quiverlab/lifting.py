"""The triangular block algebra over the preprojective algebra, and the lift
from block morphisms back to morphism-category labels.

The lift is the partial inverse of the presentation functor
`higgs.phi_image`: identity summands split off as identity-object labels,
the rest splits into indecomposable pieces by Fitting projectors of random
endomorphisms, each piece is matched against the phi image of the one
label whose knitted terms (`morphcat._terms`) are the piece's sorted
terms, and a piece that matches no label is witnessed by a universal
two-term conflation.  The block algebra's Nakayama permutation is the
independent route to the order of the rotation omega.

Elements stay sparse (basis index, coefficient) terms, multiplied by
`PreprojAlgebra.mult`.  Every linear map of blocks (the underlying map of
a block morphism, the hom-pair systems, local inverses) is a matrix that
`_action` reads off the algebra's `products`, and a basis word acts on a
vector of a sum of projectives through `_left_mult`.  `_kernels` does the
linear algebra: nullspaces, ranks, solves and the Fitting projectors.

The algebra is graded with its idempotents in degree 0, so by Nakayama's
lemma the lift decides everything (the radical of End(X), eigenvalues,
invertibility, new generators) on the *top* of a map (`_top`), its m x m
degree-0 scalars for m summands, and builds the n x n underlying map only
for the Fitting projector.
"""
from __future__ import annotations

import math
import random
from operator import mul
from typing import NamedTuple

from . import _kernels as K
from . import morphcat as mp
from .dynkin import Quiver
from .errors import GuardError, InternalCheckError
from .higgs import LambdaMorphism, PreprojAlgebra, Terms, _pairs, phi_image, preprojective_algebra
from .morphcat import MprLabel


def _action(alg: PreprojAlgebra, x, rows, cols, left: bool) -> tuple:
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
    return K.as_matrix(out)


def _minus(x, y) -> Terms:
    """x - y for elements given as terms."""
    out = dict(x)
    for k, c in y:
        out[k] = out.get(k, 0) - c
    return _pairs(out)


def underlying_matrix(f: LambdaMorphism) -> tuple:
    """The induced linear map on underlying spaces (source basis maps
    through right multiplication by the entries)."""
    alg = f.alg
    rows = [alg.module_indices(v) for v in f.p0]
    cols = [alg.module_indices(v) for v in f.p1]
    if not rows or not cols:
        return K.zeros(f.target_dim(), f.source_dim())
    out = []
    for r, kr in enumerate(rows):
        blocks = [_action(alg, f.entries[r][c], kr, kc, left=False) for c, kc in enumerate(cols)]
        out.extend(sum(parts, ()) for parts in zip(*blocks))
    return tuple(out)


# ---------------------------------------------------------------------------
# the triangular block algebra


class TQAlgebra:
    """Cyclic 3x3 block algebra with pattern
    [[L, 0, L], [L, L, 0], [0, L, L]]: six copies of the loop algebra L,
    multiplied by L's own product with no twist, where every product
    leaving the pattern vanishes.  The socle of the left projective at the
    diagonal idempotent (r, v) has weight (r + 1 mod 3, nu(v)), nu the
    Nakayama permutation of L, so the Nakayama permutation steps once
    around the cycle and applies nu at every step; its order is 3 when nu
    is trivial and 6 otherwise."""

    BLOCKS = ((0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2))

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
        rng = random.Random(2)
        d = self.algebra.dim
        for b1 in self.BLOCKS:
            for b2 in self.BLOCKS:
                for b3 in self.BLOCKS:
                    x, y, z = ({i: rng.randrange(K.P) for i in range(d)} for _ in range(3))
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
            ns = K.nullspace(rows.values(), len(pbasis))
            if len(ns) != 1:
                raise InternalCheckError(
                    f"left projective at {(r, v)} has socle dimension {len(ns)}"
                )
            weights = set()
            for (b, k), x in zip(pbasis, ns[0]):
                if x:
                    weights.add((b[0], alg.word_start(k)))
            if len(weights) != 1:
                raise InternalCheckError("socle is not weight-homogeneous")
            perm[(r, v)] = weights.pop()
        return perm

    def nakayama_order(self) -> int:
        """The order of the Nakayama permutation: the second route to the
        order of the rotation, `morphcat.omega_order`."""
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
            eq: list[dict[int, int]] = [{} for _ in out]
            for cc in range(len(X.p0)):
                if (r, cc) in first0 and X.entries[cc][c]:
                    k, ins = first0[r, cc], alg.block_indices(X.p0[cc], Y.p0[r])
                    for row, arow in zip(eq, _action(alg, X.entries[cc][c], out, ins, left=True)):
                        row.update((k + t, x) for t, x in enumerate(arow) if x)
            for rr in range(len(Y.p1)):
                if (rr, c) in first1 and Y.entries[r][rr]:
                    k, ins = first1[rr, c], alg.block_indices(X.p1[c], Y.p1[rr])
                    for row, arow in zip(eq, _action(alg, Y.entries[r][rr], out, ins, left=False)):
                        row.update((k + t, -x) for t, x in enumerate(arow) if x)
            rows.extend(eq)
    # the pairs as rows: basis vectors of the kernel of the system
    return slots1, slots0, K.nullspace(rows, nvar)


def hom_pair_dim(X: LambdaMorphism, Y: LambdaMorphism) -> int:
    return len(_hom_pair_space(X, Y)[2])


def _pair_matrices(X, Y, slots1, slots0, vec):
    """The pair (f1, f0) with the flat coefficient vector vec; a side with no
    entries is None."""

    def side(slots, start, src, tgt):
        if not src or not tgt:
            return None
        ent = [[{} for _ in src] for _ in tgt]
        for k, (r, c, i) in enumerate(slots, start=start):
            ent[r][c][i] = vec[k]
        return LambdaMorphism(X.alg, src, tgt, ent)

    return side(slots1, 0, X.p1, Y.p1), side(slots0, len(slots1), X.p0, Y.p0)


def _top(X: LambdaMorphism, Y: LambdaMorphism, slots1, slots0, vec) -> list[list[int]]:
    """The top of the pair (f1, f0) with the flat coefficient vector vec:
    T1 (Y.p1 x X.p1) and T0 (Y.p0 x X.p0) as one block-diagonal matrix.
    T1[r][c] is the coefficient of the idempotent word of X.p1[c] in
    f1[r][c] (present only when Y.p1[r] = X.p1[c]), and T0 likewise.  The
    top of a composite is the product of the tops."""
    e = X.alg.e_index
    n1, m1 = len(X.p1), len(Y.p1)
    T = [[0] * (n1 + len(X.p0)) for _ in range(m1 + len(Y.p0))]
    for k, (r, c, i) in enumerate(slots1):
        if i == e[X.p1[c]]:
            T[r][c] = vec[k]
    for k, (r, c, i) in enumerate(slots0, start=len(slots1)):
        if i == e[X.p0[c]]:
            T[m1 + r][n1 + c] = vec[k]
    return T


def _combination(rng: random.Random, basis) -> tuple[int, ...]:
    """A random linear combination of the basis vectors."""
    coeffs = [rng.randrange(K.P) for _ in basis]
    return tuple(sum(map(mul, coeffs, col)) % K.P for col in zip(*basis))


def is_isomorphic(X: LambdaMorphism, Y: LambdaMorphism) -> bool:
    """Whether one of 24 random hom pairs is invertible.  A map between sums
    of projectives with the same terms is an isomorphism exactly when its
    top is one (Nakayama), and T1 and T0 are square, so a pair is invertible
    when its top has full rank: rank T1 = |p1| and rank T0 = |p0|."""
    if sorted(X.p1) != sorted(Y.p1) or sorted(X.p0) != sorted(Y.p0):
        return False
    slots1, slots0, basis = _hom_pair_space(X, Y)
    m = len(X.p1) + len(X.p0)
    if not basis:
        return m == 0
    rng = random.Random(0)
    return any(K.rank(_top(X, Y, slots1, slots0, _combination(rng, basis))) == m
               for _ in range(24))


# ---------------------------------------------------------------------------
# reduction, splitting, lifting


def _local_inverse(alg: PreprojAlgebra, x: Terms, v: int) -> Terms:
    """Inverse of an element of the local endomorphism ring at v."""
    idx = alg.block_indices(v, v)
    unit = ((alg.e_index[v], 1),)
    rhs = [(int(k == alg.e_index[v]),) for k in idx]
    sol = K.solve(_action(alg, x, idx, idx, left=True), rhs, len(idx))
    if sol is None:
        raise InternalCheckError("local element is not invertible")
    out = _pairs(zip(idx, (s for s, in sol)))
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


def _pair_endomorphism(X: LambdaMorphism, f1, f0) -> tuple:
    """The underlying map [[U1, 0], [0, U0]] of an endomorphism pair
    (f1, f0) of X; a side without entries (None) maps by 0."""
    d1, d0 = X.source_dim(), X.target_dim()
    U1 = underlying_matrix(f1) if f1 is not None else K.zeros(d1, d1)
    U0 = underlying_matrix(f0) if f0 is not None else K.zeros(d0, d0)
    return tuple(row + (0,) * d0 for row in U1) + tuple((0,) * d1 + row for row in U0)


def _end_corank(X: LambdaMorphism) -> int:
    """Dimension of the semisimple quotient of the endomorphism ring: the
    rank of the trace form tr(T(a) T(b)) of the tops over a basis of
    End(X).  The endomorphisms with zero top form a nil ideal, so they lie
    in the radical, and the form kills exactly the radical because each
    simple factor of End/rad occurs in the top between 1 and m times, below
    the working prime.  The trace form of the underlying maps weights each
    vertex by dim P_v, also below the prime, and has the same rank."""
    slots1, slots0, basis = _hom_pair_space(X, X)
    tops = [_top(X, X, slots1, slots0, vec) for vec in basis]
    # G[a, b] = trace(A_a A_b) = sum_ij A_a[i, j] A_b[j, i]: the entries of
    # A_a against those of the transpose of A_b, each flattened
    flat = [[x for row in A for x in row] for A in tops]
    flat_t = [[x for col in zip(*A) for x in col] for A in tops]
    return K.rank([[sum(map(mul, fa, fb)) for fb in flat_t] for fa in flat])


def is_indecomposable(X: LambdaMorphism) -> bool:
    return _end_corank(X) == 1


def _left_mult(alg: PreprojAlgebra, labels, g: int, x) -> tuple[int, ...]:
    """Basis word g times the vector x of the sum of the left projectives at
    `labels`, read off the nonzero products."""
    out = [0] * len(x)
    start = 0
    for v in labels:
        idx = alg.module_indices(v)
        at = {k: start + t for t, k in enumerate(idx)}
        for t, y in enumerate(idx):
            c = x[start + t]
            if c:
                for k, a in alg.products.get((g, y), ()):
                    out[at[k]] += c * a
        start += len(idx)
    return tuple(a % K.P for a in out)


def _split_projective_submodule(alg: PreprojAlgebra, labels, proj_mat):
    """Given an idempotent endomorphism of a sum of left projectives,
    realign its image as a sum of projectives: returns the new labels and
    the generators as underlying vectors.

    The generators are the weight components of the image (weight
    projections of a submodule stay inside it) whose top, their coordinates
    at the summands' idempotent words, is new modulo the tops of the
    generators already chosen.  The image is a summand, so its radical is
    its intersection with rad P: the image vectors with zero top."""
    n = len(proj_mat)
    piv = K.rref(K.transpose(proj_mat, n))
    W = [K.dense(piv[c], n) for c in sorted(piv)]  # rows span the image
    if not W:
        return (), []
    words = [(v, k) for v in labels for k in alg.module_indices(v)]
    # the start vertex of each underlying basis word, and the idempotent words
    starts = [alg.word_start(k) for _, k in words]
    tops = [t for t, (v, k) in enumerate(words) if k == alg.e_index[v]]
    gens = []
    new_labels = []
    # the tops so far in echelon form, so each candidate costs one reduction
    span: dict[int, dict[int, int]] = {}
    for v in alg.quiver.vertices:
        for w in W:
            row = tuple(x if s == v else 0 for x, s in zip(w, starts))
            if not any(row):
                continue
            before = len(span)
            K.rref(([row[t] for t in tops],), span)
            if len(span) == before:
                continue
            gens.append(row)
            new_labels.append(v)
    if len(gens) != K.rank([[w[t] for t in tops] for w in W]):
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
        cols.extend(_left_mult(alg, summands, k, gens[j]) for k in ks)
        keys.extend((j, k) for k in ks)
    sol = K.solve(K.transpose(cols, len(target_vec)), [(x,) for x in target_vec], len(cols))
    if sol is None:
        raise InternalCheckError("target does not lie in the generated submodule")
    out: list[dict[int, int]] = [{} for _ in labels]
    for (j, k), (x,) in zip(keys, sol):
        out[j][k] = x
    return out


def _charpoly_modp(M) -> list[int]:
    """Characteristic polynomial coefficients (monic, highest first) over
    the working prime field, by the Faddeev-LeVerrier recurrence
    c_k = -tr(B_k) / k with B_1 = M and B_(k+1) = M (B_k + c_k).  The
    divisions need k < P: M is a top, m x m for m projective summands, and
    m is far below the working prime."""
    n = len(M)
    coeffs, B = [1], M
    for k in range(1, n + 1):
        c = -sum(B[i][i] for i in range(n)) * pow(k, -1, K.P) % K.P
        coeffs.append(c)
        B = K.matmul(M, [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(B)])
    return coeffs


def _smallest_root(coeffs) -> int | None:
    """The smallest root in [0, P) of the polynomial with these coefficients
    (highest first), by Horner's rule at 0, 1, 2, ...; None if it has none."""
    P = K.P
    for x in range(P):
        value = 0
        for cf in coeffs:
            value = (value * x + cf) % P
        if value == 0:
            return x
    return None


def split_summands(X: LambdaMorphism) -> list[LambdaMorphism]:
    """Fitting decomposition via eigen-projectors of random endomorphism
    pairs, recursing until every piece has local endomorphism ring.  The
    eigenvalue is the smallest root of the characteristic polynomial of the
    top.  The underlying map M has the same roots, as its characteristic
    polynomial is the product over v of those of the top's blocks at v,
    each to the power dim P_v."""
    if len(X.p1) + len(X.p0) == 0:
        return []
    if is_indecomposable(X):
        return [X]
    slots1, slots0, basis = _hom_pair_space(X, X)
    rng = random.Random(0)
    d1 = X.source_dim()
    for _ in range(40):
        vec = _combination(rng, basis)
        root = _smallest_root(_charpoly_modp(_top(X, X, slots1, slots0, vec)))
        if root is None:
            continue
        M = _pair_endomorphism(X, *_pair_matrices(X, X, slots1, slots0, vec))
        # Fitting projector onto ker A along im A, for A = (M - lam)^n
        n = len(M)
        eye = K.identity(n)
        A = K.as_matrix([[x - root * e for x, e in zip(row, erow)] for row, erow in zip(M, eye)])
        for _ in range(n.bit_length()):
            A = K.matmul(A, A, n)
        ker = K.nullspace(A, n)
        im = sorted(K.rref(K.transpose(A, n)).items())
        # the basis of ker A, then that of im A, as columns
        basis_cols = [tuple(v[i] for v in ker) + tuple(row.get(i, 0) for _, row in im)
                      for i in range(n)]
        inv = K.solve(basis_cols, eye, n)
        if inv is None:
            raise InternalCheckError("Fitting kernel and image do not span")
        E = K.matmul(K.transpose(ker, n), inv[: len(ker)], n)
        if K.matmul(E, E, n) != E:
            continue
        if not any(map(any, E)) or E == eye:
            continue
        pieces = []
        for proj in (E, K.as_matrix([[e - x for x, e in zip(row, erow)] for row, erow in zip(E, eye)])):
            piece = _restrict_to_image(X, tuple(row[:d1] for row in proj[:d1]),
                                       tuple(row[d1:] for row in proj[d1:]))
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
        img = tuple(sum(map(mul, row, g)) % K.P for row in Umap)
        if not any(img):
            continue
        for r, z in enumerate(_express_in_generators(alg, lab0, gens0, X.p0, img)):
            ent[r][c] = z
    return LambdaMorphism(alg, lab1, lab0, ent)


class Conflation(NamedTuple):
    """Universal two-term witness: the object sits between the trivial
    presentations of its target summands and the kill objects of its
    source summands."""

    sub: tuple[MprLabel, ...]
    quot: tuple[MprLabel, ...]


class HiggsLift(NamedTuple):
    labels: tuple[MprLabel, ...]
    unresolved: tuple[Conflation, ...]


_REP_FINITE = {"A1", "A2", "A3", "A4"}


def require_liftable(q: Quiver) -> None:
    """Refuse a quiver whose loop algebra is not representation-finite; it
    reads only the type, so a caller can refuse before building anything."""
    if str(q.dtype) not in _REP_FINITE:
        raise GuardError(
            f"lifting needs a representation-finite loop algebra "
            f"({sorted(_REP_FINITE)}), not {q.dtype}"
        )


def lift_morphism(f: LambdaMorphism) -> HiggsLift:
    """Partial inverse of the embedding: identity summands come back as
    identity-object labels, each remaining indecomposable piece is matched
    against the one label with its terms, and anything unmatched is
    witnessed by its universal conflation."""
    q = f.alg.quiver
    require_liftable(q)
    reduced, stripped = strip_identity_summands(f)
    labels = [MprLabel(q, "dzero", v) for v in stripped]
    unresolved = []
    # `is_isomorphic` refuses a mismatch of terms, and no two labels share
    # their terms, so a piece can match only the label keyed by its own
    by_terms = {mp._terms(lab): lab for lab in mp.mpr_indecomposables(q)}
    if len(by_terms) != len(mp.mpr_indecomposables(q)):
        raise InternalCheckError("two labels share their terms")
    for piece in split_summands(reduced):
        match = by_terms.get((tuple(sorted(piece.p1)), tuple(sorted(piece.p0))))
        if match is not None and is_isomorphic(piece, phi_image(match)):
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
    rng = random.Random(7)
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
                    ent[r][c][i] = rng.randrange(1, K.P)
        pieces.append(LambdaMorphism(alg, p1, p0, ent))
    return direct_sum(alg, pieces)
