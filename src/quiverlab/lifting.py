"""The triangular block algebra over the preprojective algebra, and the lift
from block morphisms back to morphism-category labels.

The lift is the partial inverse of the presentation functor
`higgs.phi_image`: identity summands split off as identity-object labels,
the rest splits into indecomposable pieces by idempotents of End(X), each
piece is matched against the phi image of the one label whose knitted
terms (`morphcat._terms`) are the piece's sorted terms, and a piece that
matches no label is witnessed by a universal two-term conflation.  The
labels come in numbering order, whatever the random draws.  The block
algebra's Nakayama permutation is the independent route to the order of
the rotation omega.

Elements stay sparse (basis index, coefficient) terms, multiplied by
`PreprojAlgebra.mult`, and a map between sums of projectives is a
`LambdaMorphism`: maps compose entry by entry through `mult`, and a map
with invertible top is inverted by a finite series.  The hom-pair systems
are matrices that `_action` reads off the algebra's `products`, and
`_kernels` does the linear algebra on them and on the tops.

The algebra is graded with its idempotents in degree 0, so by Nakayama's
lemma the lift decides everything (the radical of End(X), eigenvalues,
idempotents, invertibility) on the *top* of a map (`_top`), its m x m
degree-0 scalars for m summands; no underlying map of a module is built.
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
    """The pair (f1, f0) with the flat coefficient vector vec."""

    def side(slots, start, src, tgt):
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
# maps between sums of projectives


def _compose(f: LambdaMorphism, g: LambdaMorphism) -> LambdaMorphism:
    """g after f: entry (r, c) is the sum over k of f[k][c] * g[r][k], one
    `mult` per pair of nonzero entries."""
    alg = f.alg
    ent: list[list[dict[int, int]]] = [[{} for _ in f.p1] for _ in g.p0]
    for r, grow in enumerate(g.entries):
        for k, y in enumerate(grow):
            if not y:
                continue
            for c, x in enumerate(f.entries[k]):
                if x:
                    out = ent[r][c]
                    for i, a in alg.mult(x, y):
                        out[i] = out.get(i, 0) + a
    return LambdaMorphism(alg, f.p1, g.p0, ent)


def _linear(*parts) -> LambdaMorphism:
    """The sum of c * f over the parts (c, f), maps with the same terms."""
    f = parts[0][1]
    ent: list[list[dict[int, int]]] = [[{} for _ in f.p1] for _ in f.p0]
    for c, g in parts:
        for row, grow in zip(ent, g.entries):
            for out, x in zip(row, grow):
                for i, a in x:
                    out[i] = out.get(i, 0) + c * a
    return LambdaMorphism(f.alg, f.p1, f.p0, ent)


def _scalars(alg: PreprojAlgebra, p1, p0, T) -> LambdaMorphism:
    """The degree-0 map p1 -> p0 with top T: T[r][c] times the idempotent
    of p1[c], which must be p0[r] wherever T[r][c] is nonzero."""
    return LambdaMorphism(alg, p1, p0, [[{alg.e_index[v]: t} for v, t in zip(p1, row)] for row in T])


def _degree0(f: LambdaMorphism) -> list[list[int]]:
    """The top of f: the coefficient of the idempotent word of p1[c] in
    entry (r, c), which only the path space p1[c] -> p1[c] holds."""
    e = f.alg.e_index
    return [[dict(x).get(e[v], 0) for v, x in zip(f.p1, row)] for row in f.entries]


def _inverse(U: LambdaMorphism) -> LambdaMorphism:
    """The inverse of U = S + N, S its degree-0 part: S is invertible when
    the top is, and N S^-1 has entries in the radical, so it is nilpotent
    and U^-1 = S^-1 sum_k (-N S^-1)^k is a finite series."""
    alg, m = U.alg, len(U.p0)
    T = _degree0(U)
    Tinv = K.solve(T, K.identity(m), m) if len(U.p1) == m else None
    if Tinv is None:
        raise InternalCheckError("a map with a singular top has no inverse")
    S, Sinv = _scalars(alg, U.p1, U.p0, T), _scalars(alg, U.p0, U.p1, Tinv)
    R = _compose(Sinv, _linear((1, S), (-1, U)))
    one = _scalars(alg, U.p0, U.p0, K.identity(m))
    total = term = one
    while any(map(any, term.entries)):
        term = _compose(term, R)
        total = _linear((1, total), (1, term))
    inv = _compose(total, Sinv)
    if _compose(inv, U).entries != one.entries:
        raise InternalCheckError("U U^-1 is not the identity")
    return inv


# ---------------------------------------------------------------------------
# reduction, splitting, lifting


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
        ((minv,),) = _inverse(LambdaMorphism(alg, (v,), (v,), [[ent[r0][c0]]])).entries
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


def _end_corank(tops) -> int:
    """Dimension of the semisimple quotient of the endomorphism ring of X,
    given the tops of a basis of End(X): the rank of the trace form
    tr(T(a) T(b)) of those tops.  The endomorphisms with zero top form a
    nil ideal, so they lie in the radical, and the form kills exactly the
    radical because each simple factor of End/rad occurs in the top
    between 1 and m times, below the working prime."""
    # G[a, b] = trace(A_a A_b) = sum_ij A_a[i, j] A_b[j, i]: the entries of
    # A_a against those of the transpose of A_b, each flattened
    flat = [[x for row in A for x in row] for A in tops]
    flat_t = [[x for col in zip(*A) for x in col] for A in tops]
    return K.rank([[sum(map(mul, fa, fb)) for fb in flat_t] for fa in flat])


def is_indecomposable(X: LambdaMorphism) -> bool:
    slots1, slots0, basis = _hom_pair_space(X, X)
    return _end_corank([_top(X, X, slots1, slots0, vec) for vec in basis]) == 1


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


def _new_basis(e: LambdaMorphism) -> tuple[LambdaMorphism, int]:
    """For an idempotent endomorphism e of a sum of projectives: the
    automorphism U = [e e_j | (1 - e) e_j'] of the sum, for the summands j
    whose columns of the top E of e are independent (the pivot columns of
    its echelon form) and j' likewise for 1 - E, and the number of the
    former.  The columns of its top are bases of the images of E and
    1 - E, so the top is invertible."""
    f = _linear((1, _scalars(e.alg, e.p1, e.p0, K.identity(len(e.p0)))), (-1, e))
    J = sorted(K.rref(_degree0(e)))
    cols = [(e, j) for j in J] + [(f, j) for j in sorted(K.rref(_degree0(f)))]
    return LambdaMorphism(e.alg, [e.p1[j] for _, j in cols], e.p0,
                          [[g.entries[r][j] for g, j in cols] for r in range(len(e.p0))]), len(J)


def _split_along(X: LambdaMorphism, space, tops, E) -> list[LambdaMorphism]:
    """The two pieces of X cut out by an idempotent endomorphism with top E.
    One solve over `tops`, those of the basis of End(X), gives an
    endomorphism e with top E, idempotent modulo the radical, and
    e <- 3e^2 - 2e^3 makes it idempotent (e^2 - e lies in ever higher
    powers of the nilpotent radical).  X maps the image of e1 into that of
    e0, and the image of 1 - e1 into that of 1 - e0, so in the bases U1 of
    P1 and U0 of P0 that e splits (`_new_basis`), U0^-1 X U1 is block
    diagonal."""
    slots1, slots0, basis = space
    flat = [[x for row in T for x in row] for T in tops]
    sol = K.solve(K.transpose(flat, len(E) ** 2), [(x,) for row in E for x in row], len(basis))
    if sol is None:
        raise InternalCheckError("no endomorphism has the projector as its top")
    coeffs = [c for c, in sol]
    e = _pair_matrices(X, X, slots1, slots0,
                       tuple(sum(map(mul, coeffs, col)) % K.P for col in zip(*basis)))
    while True:
        sq = [_compose(f, f) for f in e]
        if [f.entries for f in sq] == [f.entries for f in e]:
            break
        e = [_linear((3, s), (-2, _compose(f, s))) for f, s in zip(e, sq)]
    (U1, k1), (U0, k0) = map(_new_basis, e)
    Y = _compose(_compose(U1, X), _inverse(U0))
    if any(x for r, row in enumerate(Y.entries) for c, x in enumerate(row) if (r < k0) != (c < k1)):
        raise InternalCheckError("an off-diagonal block of the split is nonzero")
    return [LambdaMorphism(X.alg, Y.p1[a:b], Y.p0[c:d], [row[a:b] for row in Y.entries[c:d]])
            for a, b, c, d in ((0, k1, 0, k0), (k1, None, k0, None))]


def split_summands(X: LambdaMorphism) -> list[LambdaMorphism]:
    """Splitting by idempotents of End(X), recursing until every piece has
    local endomorphism ring.  The eigenvalue of a random endomorphism is
    the smallest root of the characteristic polynomial of its top T, and E
    is the projector of T onto its generalized eigenspace; `_split_along`
    lifts E to an idempotent of End(X) and splits X along it.  The
    underlying map has the same roots, as its characteristic polynomial is
    the product over v of those of the top's blocks at v, each to the power
    dim P_v, so the skips are those of its Fitting projector."""
    if len(X.p1) + len(X.p0) == 0:
        return []
    space = slots1, slots0, basis = _hom_pair_space(X, X)
    tops = [_top(X, X, slots1, slots0, vec) for vec in basis]
    if _end_corank(tops) == 1:
        return [X]
    rng = random.Random(0)
    for _ in range(40):
        T = _top(X, X, slots1, slots0, _combination(rng, basis))
        root = _smallest_root(_charpoly_modp(T))
        if root is None:
            continue
        # the projector onto ker A along im A, for A = (T - lam)^n
        n = len(T)
        eye = K.identity(n)
        A = K.as_matrix([[x - root * e for x, e in zip(row, erow)] for row, erow in zip(T, eye)])
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
        pieces = [p for piece in _split_along(X, space, tops, E) for p in split_summands(piece)]
        if sum(p.source_dim() for p in pieces) != X.source_dim() or sum(
            p.target_dim() for p in pieces
        ) != X.target_dim():
            raise InternalCheckError("split lost dimensions")
        return pieces
    raise InternalCheckError("no splitting endomorphism found for a decomposable object")


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
    witnessed by its universal conflation.  The labels come in numbering
    order and the conflations by their sorted terms, so the lift depends
    only on the isomorphism class of f."""
    q = f.alg.quiver
    require_liftable(q)
    reduced, stripped = strip_identity_summands(f)
    labels = [MprLabel(q, "dzero", v) for v in stripped]
    unresolved = []
    # `is_isomorphic` refuses a mismatch of terms, and no two labels share
    # their terms, so a piece can match only the label keyed by its own
    numbering = mp.mpr_indecomposables(q)
    by_terms = {mp._terms(lab): lab for lab in numbering}
    if len(by_terms) != len(numbering):
        raise InternalCheckError("two labels share their terms")
    for piece in split_summands(reduced):
        p1, p0 = sorted(piece.p1), sorted(piece.p0)
        match = by_terms.get((tuple(p1), tuple(p0)))
        if match is not None and is_isomorphic(piece, phi_image(match)):
            labels.append(match)
        else:
            unresolved.append((p0, p1))
    labels.sort(key=numbering.index)
    return HiggsLift(tuple(labels), tuple(
        Conflation(sub=tuple(MprLabel(q, "mod", v, 0) for v in p0),
                   quot=tuple(MprLabel(q, "done", v) for v in p1))
        for p0, p1 in sorted(unresolved)))


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
