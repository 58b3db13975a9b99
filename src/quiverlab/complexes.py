"""Complexes of projectives over a tree quiver, with a strict inverse
translate functor.

Between projectives every hom space is at most one dimensional, spanned by
the append-path morphism, so a complex of projectives is stored as vertex
labels per degree plus one scalar matrix per differential.  Plain matrix
multiplication mod P implements composition because structure constants of
the path basis are all 1 on a tree.

The derived inverse translate sends P_i to the two term complex

    [ sum of P_s over socle labels s ]  -->  [ sum of P_w ]
            degree -1                           degree 0

whose degree-0 cohomology is the module-level inverse translate and whose
degree -1 cohomology is the suspended part.  Lifting the generator
morphisms (one per quiver arrow) once and composing along paths makes the
functor strictly multiplicative, since a tree quiver has no relations
between distinct paths.

Each arrow lift is solved in scalar coordinates, one masked linear solve
per block.  A morphism out of P_u is fixed by its value at the generator of
P_u, so the envelope block X solves X e_u = t_w, where e_u and t_w are the
generator coordinates of the envelope embedding of P_u and of the arrow
followed by the envelope embedding of P_w; the cosyzygy block Y then solves
Y G_u = G_w X.  Only the solved X is assembled into a representation
morphism, to check the lift equation at every vertex.

Iterating the functor from P_v and minimizing at each step gives the orbit
of minimal complexes tauinv^k P_v, memoized once per (quiver, vertex,
power) by `tau_inv_orbit`.  Its entries below the orbit length e_v are the
minimal presentations of the indecomposable modules, which the morphism
category reads instead of building them from matrix representations; the
next h entries run one Coxeter lap, the evolution `boundary.gamma_hom`
sums over.  Hom masks between projectives read `Quiver.has_path`, a lookup
in the memoized path table of `dynkin`.

The hom complex between two complexes of projectives has the path basis
too.  `_hom_bases` gives each of its differentials as the sparse image of
each basis element.  Every slot of an embedded object is its presentation
complex or zero, and its connecting map the identity or zero, so each
block of the evolution's two-column total complex is the one hom complex
H between the two presentations.  `two_column_dims` builds H once, places
it in the blocks the embedding indices select, and adds the identity
parts of the connecting maps by basis index, only in degrees that have a
basis.  Every dimension it returns is a basis size less `_kernels.rank`
of those images.
"""
from __future__ import annotations

import functools
from itertools import accumulate

from . import _kernels as K
from . import reps
from .dynkin import Quiver, coxeter_number
from .errors import GuardError, InternalCheckError
from .stalks import DerivedLabel, e_exponent, normalize_label


def _hom_mask(q: Quiver, src_labels, tgt_labels) -> tuple[tuple[bool, ...], ...]:
    """Entry (r, c) is true when Hom(P_src[c], P_tgt[r]) is nonzero, that is
    when there is a path src[c] ~> tgt[r]."""
    return tuple(tuple(q.has_path(u, w) for u in src_labels) for w in tgt_labels)


def _masked_solve(mask, A, B, acols: int) -> tuple | None:
    """One Z supported on `mask` with Z A = B (free entries set to 0), or
    None; A has `acols` columns.  Unknowns are the mask entries in row-major
    order; equation (r, j) is sum_c Z[r, c] A[c, j] = B[r, j]."""
    unknowns = [(r, c) for r, row in enumerate(mask) for c, ok in enumerate(row) if ok]
    eqs, rhs = [], []
    for r, brow in enumerate(B):
        mine = [(k, c) for k, (rr, c) in enumerate(unknowns) if rr == r]
        for j in range(acols):
            eqs.append({k: A[c][j] for k, c in mine if A[c][j]})
            rhs.append((brow[j],))
    sol = K.solve(eqs, rhs, len(unknowns))
    if sol is None:
        return None
    Z = [[0] * len(row) for row in mask]
    for (r, c), (x,) in zip(unknowns, sol):
        Z[r][c] = x
    return K.as_matrix(Z)


def _nonzero(m) -> bool:
    return any(map(any, m))


class PCpx:
    """A cochain complex of sums of projectives, in scalar coordinates."""

    def __init__(self, quiver: Quiver, terms: dict[int, tuple[int, ...]], diffs: dict[int, tuple]):
        self.quiver = quiver
        self.terms = {d: tuple(int(v) for v in t) for d, t in terms.items() if t}
        self.diffs = {}
        for d, m in diffs.items():
            m = K.as_matrix(m)
            if _nonzero(m):
                self.diffs[d] = m

    def term(self, d: int) -> tuple[int, ...]:
        return self.terms.get(d, ())

    def diff(self, d: int) -> tuple:
        m = self.diffs.get(d)
        if m is None:
            return K.zeros(len(self.term(d + 1)), len(self.term(d)))
        return m

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def validate(self) -> "PCpx":
        q = self.quiver
        for d, m in self.diffs.items():
            src, tgt = self.term(d), self.term(d + 1)
            if len(m) != len(tgt) or any(len(row) != len(src) for row in m):
                raise InternalCheckError(f"differential at degree {d} has wrong shape")
            mask = _hom_mask(q, src, tgt)
            if any(x and not ok for row, mrow in zip(m, mask) for x, ok in zip(row, mrow)):
                raise InternalCheckError(f"differential at degree {d} has entries outside hom spaces")
        for d in self.degrees():
            if _nonzero(K.matmul(self.diff(d + 1), self.diff(d), len(self.term(d)))):
                raise InternalCheckError(f"differential does not square to zero at degree {d}")
        return self

    def __repr__(self) -> str:
        parts = [f"{d}:{list(self.term(d))}" for d in self.degrees()]
        return "PCpx(" + ", ".join(parts) + ")"


class ChainMap:
    def __init__(self, src: PCpx, tgt: PCpx, comps: dict[int, tuple]):
        self.src = src
        self.tgt = tgt
        self.comps = {}
        for d, m in comps.items():
            m = K.as_matrix(m)
            if _nonzero(m):
                self.comps[d] = m

    def comp(self, d: int) -> tuple:
        m = self.comps.get(d)
        if m is None:
            return K.zeros(len(self.tgt.term(d)), len(self.src.term(d)))
        return m

    def validate(self) -> "ChainMap":
        q = self.src.quiver
        for d, m in self.comps.items():
            src, tgt = self.src.term(d), self.tgt.term(d)
            if len(m) != len(tgt) or any(len(row) != len(src) for row in m):
                raise InternalCheckError(f"chain map component at degree {d} has wrong shape")
            mask = _hom_mask(q, src, tgt)
            if any(x and not ok for row, mrow in zip(m, mask) for x, ok in zip(row, mrow)):
                raise InternalCheckError("chain map has entries outside hom spaces")
        for d in set(self.src.degrees()) | set(self.tgt.degrees()):
            n = len(self.src.term(d))
            lhs = K.matmul(self.tgt.diff(d), self.comp(d), n)
            rhs = K.matmul(self.comp(d + 1), self.src.diff(d), n)
            if lhs != rhs:
                raise InternalCheckError(f"chain map does not commute with differentials at degree {d}")
        return self


def single_term(q: Quiver, labels, degree: int = 0) -> PCpx:
    return PCpx(q, {degree: tuple(labels)}, {})


# ---------------------------------------------------------------------------
# minimization (Gaussian elimination of unit diagonal entries)


def _drop(m: list, r: int | None, c: int | None) -> list:
    """The rows of m without row r and without column c (None keeps all)."""
    return [row if c is None else row[:c] + row[c + 1:] for i, row in enumerate(m) if i != r]


def minimize(C: PCpx) -> tuple[PCpx, ChainMap, ChainMap]:
    """Homotopy-minimal model plus transports iota: min -> C and
    pi: C -> min with pi after iota the identity.

    Eliminates in place, one unit pivot at a time: the first entry of a
    differential between equal labels, in (degree, row, column) order.
    Cancelling the pivot (d, r, c) with inverse u drops source slot c and
    target slot r, and subtracts u gamma beta from the rest of the block
    (beta its row, gamma its column); the transports pick up the same step
    as matrices, iota_d column c spread by -u beta and pi_{d+1} row r by
    -u gamma.  The result and both transports are validated once."""
    P = K.P
    degs = C.degrees()
    labels = {d: list(C.term(d)) for d in degs}
    diffs = {d: [list(row) for row in C.diff(d)] for d in degs}
    iota = {d: [list(row) for row in K.identity(len(labels[d]))] for d in degs}
    pi = {d: [list(row) for row in K.identity(len(labels[d]))] for d in degs}
    while True:
        for d in degs:
            m = diffs[d]
            if d + 1 not in labels:
                continue
            hit = next(((r, c) for r, lr in enumerate(labels[d + 1]) for c, lc in enumerate(labels[d])
                        if lr == lc and m[r][c]), None)
            if hit is not None:
                r, c = hit
                break
        else:
            break
        u_inv = K.inv_mod(m[r][c])
        beta = m[r][:c] + m[r][c + 1:]
        gamma = [row[c] for i, row in enumerate(m) if i != r]
        diffs[d] = [[(x - u_inv * g * b) % P for x, b in zip(row, beta)]
                    for row, g in zip(_drop(m, r, c), gamma)]
        if d - 1 in diffs:
            diffs[d - 1] = _drop(diffs[d - 1], c, None)
        diffs[d + 1] = _drop(diffs[d + 1], None, r)
        del labels[d][c], labels[d + 1][r]
        iota[d] = [[(x - u_inv * row[c] * b) % P for x, b in zip(kept, beta)]
                   for row, kept in zip(iota[d], _drop(iota[d], None, c))]
        iota[d + 1] = _drop(iota[d + 1], None, r)
        pi[d] = _drop(pi[d], c, None)
        pr = pi[d + 1][r]
        pi[d + 1] = [[(x - u_inv * g * y) % P for x, y in zip(row, pr)]
                     for row, g in zip(_drop(pi[d + 1], r, None), gamma)]
    mini = PCpx(C.quiver, labels, diffs).validate()
    # pi after iota is the identity on the minimal model
    for d in mini.degrees():
        if K.matmul(pi[d], iota[d], len(labels[d])) != K.identity(len(labels[d])):
            raise InternalCheckError("minimization transports are not a retraction")
    return mini, ChainMap(mini, C, iota).validate(), ChainMap(C, mini, pi).validate()


# ---------------------------------------------------------------------------
# the strict inverse translate functor


class TauInvFunctor:
    """tauinv on complexes of projectives, strict on the path basis."""

    def __init__(self, q: Quiver):
        self.quiver = q
        self.S: dict[int, tuple[int, ...]] = {}
        self.W: dict[int, tuple[int, ...]] = {}
        self.G: dict[int, tuple] = {}
        emb = {}
        for i in q.vertices:
            labels_s, emb[i], labels_w, self.G[i] = reps.min_copresentation(reps.projective_rep(q, i))
            self.S[i], self.W[i] = tuple(labels_s), tuple(labels_w)
        self._X: dict[tuple[int, int], tuple] = {}
        self._Y: dict[tuple[int, int], tuple] = {}
        for (u, w) in q.arrows:
            self._X[(u, w)], self._Y[(u, w)] = self._lift_arrow(u, w, emb)
        # (X, Y) of each append-path morphism P_u -> P_w: the lift of its last
        # arrow after that of the path before it, earlier in topological order
        self._paths = {(u, u): (K.identity(len(self.S[u])), K.identity(len(self.W[u])))
                       for u in q.vertices}
        for u in q.vertices:
            for w in q.topological_order():
                path = q.path_vertices(u, w)
                if path is not None and u != w:
                    X, Y = self._paths[u, path[-2]]
                    a = (path[-2], w)
                    self._paths[u, w] = (K.matmul(self._X[a], X, len(self.S[u])),
                                         K.matmul(self._Y[a], Y, len(self.W[u])))

    # -- construction helpers ------------------------------------------------

    def _generator_coords(self, f: reps.Morphism, labels, u: int) -> tuple:
        """Column of scalars of f: P_u -> (sum of I_v over labels) at the
        generator of P_u; slots whose injective vanishes at u read 0."""
        q = self.quiver
        off = reps.injective_sum(q, tuple(labels))[1]
        return tuple((f.mat(u)[off[t][u - 1]][0] if q.has_path(v, u) else 0,)
                     for t, v in enumerate(labels))

    def _lift_arrow(self, u: int, w: int, emb):
        """Scalar blocks of the image of the arrow u -> w: X with
        X emb_u = emb_w g_a on the envelopes, read at the generator of P_u,
        and Y with Y G_u = G_w X on the cosyzygies."""
        q = self.quiver
        su, sw = self.S[u], self.S[w]
        target = emb[w].compose(reps.assemble_projective_map(q, (u,), (w,), ((1,),)))  # P_u -> E_w
        X = _masked_solve(_hom_mask(q, su, sw), self._generator_coords(emb[u], su, u),
                          self._generator_coords(target, sw, u), 1)
        if X is None:
            raise InternalCheckError("arrow lift through the envelope does not exist")
        if reps.assemble_injective_map(q, su, sw, X).compose(emb[u]).mats != target.mats:
            raise InternalCheckError("arrow lift equation fails at rep level")
        GX = K.matmul(self.G[w], X, len(su))
        Y = _masked_solve(_hom_mask(q, self.W[u], self.W[w]), self.G[u], GX, len(su))
        if Y is None:
            raise InternalCheckError("degree-0 arrow lift does not exist")
        if GX != K.matmul(Y, self.G[u], len(su)):
            raise InternalCheckError("arrow lift does not commute with copresentations")
        return X, Y

    # -- the functor on scalar data ------------------------------------------

    def lift_path(self, u: int, w: int) -> tuple[tuple, tuple]:
        """(X, Y) blocks of the image of the append-path morphism P_u -> P_w."""
        if (u, w) not in self._paths:
            raise InternalCheckError(f"no path {u} ~> {w}")
        return self._paths[u, w]

    def _block_lift(self, src_labels, tgt_labels, scal, which: int) -> list[list[int]]:
        parts = self.S if which == 0 else self.W
        roff = [0, *accumulate(len(parts[w]) for w in tgt_labels)]
        coff = [0, *accumulate(len(parts[u]) for u in src_labels)]
        out = [[0] * coff[-1] for _ in range(roff[-1])]
        for r, w in enumerate(tgt_labels):
            for c, u in enumerate(src_labels):
                s = scal[r][c] % K.P
                if s == 0:
                    continue
                blk = self.lift_path(u, w)[which]
                for t, row in enumerate(blk):
                    out[roff[r] + t][coff[c] : coff[c + 1]] = [s * x % K.P for x in row]
        return out

    def apply(self, C: PCpx) -> PCpx:
        """Termwise inverse translate, totalized with the sign (-1)^d on the
        internal differential."""
        q = self.quiver
        terms: dict[int, tuple[int, ...]] = {}
        for e in range(min(C.degrees(), default=0) - 1, max(C.degrees(), default=0) + 1):
            t = tuple(s for v in C.term(e + 1) for s in self.S[v]) + tuple(
                w for v in C.term(e) for w in self.W[v]
            )
            if t:
                terms[e] = t
        diffs: dict[int, list] = {}
        for e in terms:
            # [[X-lift of d^{e+1}, 0], [sign G, Y-lift of d^e]]
            top = self._block_lift(C.term(e + 1), C.term(e + 2), C.diff(e + 1), 0)
            nw_src = sum(len(self.W[v]) for v in C.term(e))
            top = [row + [0] * nw_src for row in top]
            soff = [0, *accumulate(len(self.S[v]) for v in C.term(e + 1))]
            sign = -1 if (e + 1) % 2 else 1
            left = []
            for t, v in enumerate(C.term(e + 1)):
                for row in self.G[v]:
                    left.append([0] * soff[t] + [sign * x for x in row] + [0] * (soff[-1] - soff[t + 1]))
            right = self._block_lift(C.term(e), C.term(e + 1), C.diff(e), 1)
            diffs[e] = top + [lr + rr for lr, rr in zip(left, right)]
        return PCpx(q, terms, diffs).validate()

@functools.cache
def tau_inv_functor(q: Quiver) -> TauInvFunctor:
    return TauInvFunctor(q)


@functools.cache
def tau_inv_orbit(q: Quiver, v: int, k: int) -> PCpx:
    """The minimal complex of tauinv^k P_v: P_v in degree 0 for k = 0, else
    `minimize` of the functor applied to entry k - 1.

    Entries k < e_v are the minimal presentations of the modules, in degrees
    (-1, 0); entry e_v is the suspended projective at the involuted vertex,
    and entry k + h is entry k suspended twice.  The memo holds one lap past
    the window (k < e_v + h), which covers every power `gamma_hom` reads, and
    fills it on demand."""
    if not 0 <= k < e_exponent(q, v) + coxeter_number(q.dtype):
        raise GuardError(f"power {k} lies outside the memoized orbit of P{v}")
    if k == 0:
        C = single_term(q, (v,), 0)
    else:
        C = minimize(tau_inv_functor(q).apply(tau_inv_orbit(q, v, k - 1)))[0]
    return C


# ---------------------------------------------------------------------------
# realization, cohomology, splitting


def realize(C: PCpx) -> tuple[dict[int, reps.Rep], dict[int, reps.Morphism]]:
    """The honest representation-level complex underlying the scalar data."""
    q = C.quiver
    degs = C.degrees()
    terms = {}
    for d in degs:
        labels = C.term(d)
        terms[d] = reps.projective_sum(q, tuple(labels))[0]
    diffs = {}
    for d in degs:
        src = terms.get(d, reps.zero_rep(q))
        tgt = terms.get(d + 1, reps.zero_rep(q))
        if C.term(d) and C.term(d + 1):
            diffs[d] = reps.assemble_projective_map(q, list(C.term(d)), list(C.term(d + 1)), C.diff(d))
        else:
            diffs[d] = reps.Morphism(src, tgt, [K.zeros(tgt.dim(v), src.dim(v)) for v in q.vertices])
    return terms, diffs


def cohomology(C: PCpx) -> dict[int, reps.Rep]:
    """Per-degree cohomology as representations (only nonzero degrees)."""
    q = C.quiver
    terms, diffs = realize(C)
    out = {}
    for d in C.degrees():
        ker, incl = reps.kernel(diffs[d])
        if d - 1 in diffs and not diffs[d - 1].src.is_zero():
            prev = diffs[d - 1]
            mats = []
            for v in q.vertices:
                x = K.solve(incl.mat(v), prev.mat(v), ker.dim(v))
                if x is None:
                    raise InternalCheckError("image does not land in the kernel")
                mats.append(x)
            F = reps.Morphism(prev.src, ker, mats).validate()
            H, _ = reps.cokernel(F)
        else:
            H = ker
        if not H.is_zero():
            out[d] = H
    return out


def split_complex(C: PCpx) -> list[DerivedLabel]:
    """Summands of the complex in the derived category: cohomology in degree
    d contributes its indecomposables desuspended d times."""
    q = C.quiver
    out: list[DerivedLabel] = []
    for d, H in cohomology(C).items():
        for lab, mult in sorted(reps.decompose(H).items()):
            out.extend([normalize_label(q, lab.vertex, lab.power, -d)] * mult)
    return sorted(out)


# ---------------------------------------------------------------------------
# hom complexes between complexes, and two-column totalization


def _hom_bases(A: PCpx, B: PCpx):
    """Basis (a-degree, target slot, source slot) of each graded piece of
    the hom complex, with its differential as the sparse image {target
    basis index: coefficient} of each basis element, in basis order.  These
    images are the columns of the differential's matrix; as rows they have
    the same rank.  The differentials are read from `PCpx.diffs`, so a
    vanishing one costs nothing."""
    has_path = A.quiver.has_path
    bases: dict[int, list[tuple[int, int, int]]] = {}
    for e in A.degrees():
        src = A.terms[e]
        for eb in B.degrees():
            basis = [(e, r, c) for r, w in enumerate(B.terms[eb])
                     for c, u in enumerate(src) if has_path(u, w)]
            if basis:
                bases.setdefault(eb - e, []).extend(basis)
    diffs: dict[int, list[dict[int, int]]] = {}
    for d, basis in bases.items():
        index = {b: k for k, b in enumerate(bases.get(d + 1, ()))}
        sgn = -1 if d % 2 == 0 else 1  # coefficient of f∘dA in D(f) = dB∘f - (-1)^d f∘dA
        images = []
        for e, r, c in basis:
            dB, dA = B.diffs.get(e + d), A.diffs.get(e - 1)
            img = {index[(e, rp, c)]: row[r] for rp, row in enumerate(dB) if row[r]} if dB else {}
            if dA:
                img.update((index[(e - 1, r, cp)], sgn * x % K.P) for cp, x in enumerate(dA[c]) if x)
            images.append(img)
        diffs[d] = images
    return bases, diffs


def two_column_dims(i: int, X: PCpx, j: int, N: PCpx) -> dict[int, int]:
    """Cohomology dims of Tot[Hom(X0,N0)⊕Hom(X1,N1) -> Hom(X1,N0)[+1]] for
    the i-embedded object with presentation complex X and the j-embedded
    object with presentation complex N.

    The slots of the i-embedded object are (X, 0) for i = -1, (X, X) for
    i = 0 and (0, X) for i = 1, with the identity as connecting map x when
    i = 0 and zero otherwise; likewise (N0, N1, n) for j.  So every nonzero
    block is the one hom complex H = Hom(X, N), built once: Hom(X0,N0) when
    i, j ∈ {-1, 0}, Hom(X1,N1) when i, j ∈ {0, 1} and Hom(X1,N0) when
    i ∈ {0, 1} and j ∈ {-1, 0}.  Degree d of the total complex has these
    blocks in that order, the last one as H^(d-1), and its differential is
    [[d0, 0, 0], [0, d1, 0], [delta, -d01]] with delta(f0, f1) =
    f0∘x - n∘f1, whose identity parts are +1 (i = 0) and -1 (j = 0) between
    equal basis indices.  It is built as the sparse image of each basis
    element, with block offsets, only in the degrees that have a basis;
    each degree's images are ranked once, for the cycles there and the
    boundaries one degree up."""
    if i not in (-1, 0, 1) or j not in (-1, 0, 1):
        raise GuardError("embedding index must lie in {-1, 0, 1}")
    bases, diffs = _hom_bases(X, N)
    if not bases:
        return {}
    on0, on1, on01 = i < 1 and j < 1, i > -1 and j > -1, i > -1 and j < 1

    def sizes(d):
        n = len(bases.get(d, ()))
        return n * on0, n * on1, len(bases.get(d - 1, ())) * on01

    degs = sorted({d for d in bases if on0 or on1} | {d + 1 for d in bases if on01})
    images: dict[int, list[dict[int, int]]] = {}
    for d in degs:
        m0, m1, _ = sizes(d + 1)  # block offsets in degree d + 1
        tot = []
        if on0:  # d0 f0, then f0∘x
            tot.extend({**img, m0 + m1 + k: 1} if i == 0 else img
                       for k, img in enumerate(diffs.get(d, ())))
        if on1:  # d1 f1, then -n∘f1
            for k, img in enumerate(diffs.get(d, ())):
                img = {m0 + t: x for t, x in img.items()}
                if j == 0:
                    img[m0 + m1 + k] = K.P - 1
                tot.append(img)
        if on01:
            tot.extend({m0 + m1 + t: -x % K.P for t, x in img.items()} for img in diffs.get(d - 1, ()))
        images[d] = tot
    for d, tot in images.items():
        nxt = images.get(d + 1, ())
        for img in tot:
            sq: dict[int, int] = {}
            for k, x in img.items():
                for t, y in nxt[k].items():
                    sq[t] = (sq.get(t, 0) + x * y) % K.P
            if any(sq.values()):
                raise InternalCheckError("totalization differential does not square to zero")
    ranks = {d: K.rank(tot) for d, tot in images.items()}
    out = {}
    for d in degs:
        h = sum(sizes(d)) - ranks[d] - ranks.get(d - 1, 0)
        if h < 0:
            raise InternalCheckError("negative cohomology dimension in totalization")
        if h:
            out[d] = h
    return out
