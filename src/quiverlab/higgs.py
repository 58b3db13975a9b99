"""Preprojective algebra and the presentation functor into it, in plain
integers.

The preprojective algebra is built degree by degree over the doubled
quiver: the degree-d basis words are degree-(d-1) basis words followed by
one arrow, modulo the mesh relations.  Its structure constants are held
sparse: the right action of each doubled arrow on the basis words, and
the nonzero products of pairs of basis words.  A Frobenius form supported
on the socle, with fixed pseudo-random values, yields the twist
automorphism theta; it is read only by the algebra's own checks, that the
form is nondegenerate, that theta permutes the idempotents by the vertex
involution and that theta is multiplicative.  Labels of the morphism
category embed via base change along quiver-paths.

Elements are sparse (basis index, coefficient) terms, and `mult` and
`apply_theta` are the algebra's one product and one twist.  Every mesh
relation is a sum of terms a a-star, one quiver arrow and one reversed
arrow each, so no relation touches a path of the quiver: each such path
is one basis word, with coefficient 1.  The phi image of a presentation
is therefore its scalar matrix written on quiver paths; `higgs --phi`
prints it from the presentation alone, and `phi_image` builds it on the
algebra for the lift.  `lifting` holds the block algebra and the partial
inverse of the embedding, and builds its dense matrices from `products`.
"""
from __future__ import annotations

import functools
import random
from types import MappingProxyType

from . import _kernels as K
from . import morphcat as mp
from ._kernels import P
from .dynkin import Quiver, nakayama_involution
from .errors import GuardError, InternalCheckError
from .morphcat import MprLabel, MprObject

Terms = tuple[tuple[int, int], ...]


def _pairs(x) -> Terms:
    """A sparse element, given as anything `dict` reads, as (basis index,
    coefficient) pairs in increasing index with nonzero reduced
    coefficients."""
    return tuple(sorted((int(k), c % P) for k, c in dict(x).items() if c % P))


# ---------------------------------------------------------------------------
# the preprojective algebra


class PreprojAlgebra:
    """Quotient of the doubled path algebra by the mesh relations, over the
    working prime field.  Elements are sparse maps {basis index:
    coefficient} over a fixed path-word basis; products read
    diagrammatically (x * y is the path x followed by the path y)."""

    def __init__(self, q: Quiver):
        self.quiver = q
        self.star = nakayama_involution(q)
        # doubled arrows: even index = quiver arrow, odd = its reverse
        self.darrows: list[tuple[int, int]] = []
        for (i, j) in q.arrows:
            self.darrows.append((i, j))
            self.darrows.append((j, i))
        self._build_by_degree()
        self._build_frobenius()

    # -- construction -------------------------------------------------------

    def _build_by_degree(self):
        """Basis words, their reductions and the structure constants, one
        degree at a time.

        The degree-d candidates are the degree-(d-1) basis words followed by
        one arrow: parents in basis order, then arrows by index.  Degree d of
        the relation ideal is spanned by b * rho_v for the degree-(d-2) basis
        words b ending at v, where rho_v is the signed sum of a * a-star over
        the arrows a leaving v (quiver arrows carry +) and b * a is already
        reduced in degree d-1.  The candidates that are no pivot of the fully
        reduced relations form the basis, and each pivot reduces to the later
        basis words of its row.  Candidates miss no basis word: the basis is
        closed under prefixes, and a word whose prefix reduces to later words
        reduces to later words itself."""
        verts = self.quiver.vertices
        self.basis: list[tuple[int, tuple[int, ...]]] = [(v, ()) for v in verts]
        ends = list(verts)
        last: list[tuple[int, int]] = []  # (parent, arrow) of each word past degree 0
        layers = [range(len(verts))]
        # (basis word, arrow) -> their product, on the next layer
        step: dict[tuple[int, int], Terms] = {}
        while True:
            prev = layers[-1]
            below = layers[-2] if len(layers) > 1 else range(0)
            cands = [(p, a) for p in prev for a, (s, _) in enumerate(self.darrows) if s == ends[p]]
            col = {c: k for k, c in enumerate(cands)}
            rel = []
            for b in below:
                row: dict[int, int] = {}
                for a, (s, _) in enumerate(self.darrows):
                    if s == ends[b]:
                        sign = 1 if a % 2 == 0 else -1
                        for u, c in step[(b, a)]:
                            k = col[(u, a ^ 1)]
                            row[k] = row.get(k, 0) + sign * c
                rel.append(row)
            piv = K.rref(rel)
            keep = [k for k in range(len(cands)) if k not in piv]
            if not keep:
                break
            base = len(self.basis)
            index = {k: base + t for t, k in enumerate(keep)}
            for k in keep:
                p, a = cands[k]
                self.basis.append((self.basis[p][0], self.basis[p][1] + (a,)))
                ends.append(self.darrows[a][1])
                last.append((p, a))
            for k, c in enumerate(cands):
                red = {index[k]: 1} if k not in piv else {
                    index[m]: -v for m, v in piv[k].items() if m != k}
                step[c] = _pairs(red)
            layers.append(range(base, len(self.basis)))
        self.dim = len(self.basis)
        self.max_degree = len(layers) - 1
        self.e_index = {v: i for i, v in enumerate(verts)}
        # x * a for a basis word x and a doubled arrow a; absent when x does
        # not end where a starts or the product passes the top degree
        self._right = MappingProxyType(step)
        # the basis of each left projective, and of each path space i -> j
        self._modules = ending = {v: tuple(i for i in range(self.dim) if ends[i] == v) for v in verts}
        self._blocks = {(i, j): tuple(k for k in ending[j] if self.basis[k][0] == i)
                        for i in verts for j in verts}
        # b_i * b_j for j = parent * a is (b_i * parent) * a: zero unless b_i
        # ends where b_j starts, or past the top degree; words ending at a
        # vertex come in basis order, so their degrees ascend
        deg = [len(w) for _, w in self.basis]
        prods: dict[tuple[int, int], Terms] = {}
        for j, v in enumerate(verts):
            prods.update(((i, j), ((i, 1),)) for i in ending[v])
        for j, (p, a) in enumerate(last, start=len(verts)):
            for i in ending[self.basis[j][0]]:
                if deg[i] + deg[j] > self.max_degree:
                    break
                y = self._times_arrow(prods.get((i, p), ()), a)
                if y:
                    prods[i, j] = y
        # nonzero products of basis words, keyed (i, j): read-only
        self.products = MappingProxyType(prods)

    def _build_frobenius(self):
        """A socle-supported form f whose pairing f(b_i b_j) is
        nondegenerate, and the twist theta with f(x y) = f(y theta(x)).  The
        pairing's Gram matrix G is block diagonal over the connected blocks
        of its nonzero entries (a scaled permutation on D8, blocks of at most
        2 x 2 on E6), so its rank and theta = G^-1 G^T come blockwise."""
        top = self.max_degree
        deg = [len(w) for _, w in self.basis]
        pairing = [(i, j, t) for (i, j), t in self.products.items() if deg[i] + deg[j] == top]
        rng = random.Random(0)
        for _ in range(64):
            f = [rng.randrange(1, P) if d == top else 0 for d in deg]
            gram = {}
            for i, j, t in pairing:
                g = sum(f[k] * c for k, c in t) % P
                if g:
                    gram[i, j] = g
            theta = _blockwise_twist(self.dim, gram)
            if theta is not None:
                break
        else:
            raise InternalCheckError("no nondegenerate socle-supported form found")
        self.frobenius = tuple(f)
        # column j of theta, theta(b_j), as pairs
        self.theta = theta
        for v in self.quiver.vertices:
            if theta[self.e_index[v]] != ((self.e_index[self.star[v]], 1),):
                raise InternalCheckError("twist does not permute the idempotents correctly")
        # theta(x a) = theta(x) theta(a) for every basis word x and arrow a:
        # every word is a product of arrows and theta is linear, so this
        # proves theta multiplicative
        arrow_word = {w[0]: k for k, (_, w) in enumerate(self.basis) if len(w) == 1}
        for x in range(self.dim):
            for a in range(len(self.darrows)):
                lhs = self.apply_theta(self._right.get((x, a), ()))
                if lhs != self.mult(theta[x], theta[arrow_word[a]]):
                    raise InternalCheckError("twist is not multiplicative")

    # -- sparse arithmetic on (index, coefficient) pairs ---------------------

    def _times_arrow(self, x, a: int) -> Terms:
        out: dict[int, int] = {}
        for u, c in x:
            for k, v in self._right.get((u, a), ()):
                out[k] = out.get(k, 0) + c * v
        return _pairs(out)

    def mult(self, x, y) -> Terms:
        """x * y for sparse elements, each given as anything `dict` reads.
        The pairs of their terms meet the nonzero products through whichever
        is fewer, so no structure constant is read twice: two dense elements
        cost one pass over the products, not dim^2 lookups."""
        x, y = dict(x), dict(y)
        out: dict[int, int] = {}
        if len(x) * len(y) <= len(self.products):
            for i, a in x.items():
                for j, b in y.items():
                    for k, c in self.products.get((i, j), ()):
                        out[k] = out.get(k, 0) + a * b * c
        else:
            for (i, j), t in self.products.items():
                ab = x.get(i, 0) * y.get(j, 0)
                if ab:
                    for k, c in t:
                        out[k] = out.get(k, 0) + ab * c
        return _pairs(out)

    def apply_theta(self, x) -> Terms:
        """theta on a sparse element given as anything `dict` reads."""
        out: dict[int, int] = {}
        for j, a in dict(x).items():
            for k, c in self.theta[j]:
                out[k] = out.get(k, 0) + a * c
        return _pairs(out)

    # -- elements -----------------------------------------------------------

    def walk(self, verts) -> dict[int, int]:
        """Product of the doubled arrows along a vertex walk; on a tree each
        step names at most one doubled arrow."""
        out: Terms = ((self.e_index[verts[0]], 1),)
        for a, b in zip(verts, verts[1:]):
            if (a, b) not in self.darrows:
                raise GuardError(f"no arrow {a} -> {b} in the doubled quiver")
            out = self._times_arrow(out, self.darrows.index((a, b)))
        return dict(out)

    def word_start(self, i: int) -> int:
        return self.basis[i][0]

    def block_indices(self, i: int, j: int) -> tuple[int, ...]:
        """Basis indices of the path space from i to j."""
        return self._blocks[i, j]

    def module_indices(self, v: int) -> tuple[int, ...]:
        """Basis of the left projective at v: all paths ending at v."""
        return self._modules[v]


def _blockwise_twist(dim: int, gram: dict[tuple[int, int], int]) -> tuple[Terms, ...] | None:
    """The columns of G^-1 G^T for the sparse Gram matrix G, solved on each
    connected block of its nonzero entries; None if G is singular (then
    G X = 1 has no solution)."""
    root = list(range(dim))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for i, j in gram:
        root[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(dim):
        blocks.setdefault(find(i), []).append(i)
    theta: list[Terms] = [()] * dim
    for idx in blocks.values():
        g = [[gram.get((r, s), 0) for s in idx] for r in idx]
        inv = K.solve(g, K.identity(len(idx)), len(idx))
        if inv is None:
            return None
        x = K.matmul(inv, K.transpose(g, len(idx)))
        for s, j in enumerate(idx):
            theta[j] = tuple((r, x[t][s]) for t, r in enumerate(idx) if x[t][s])
    return tuple(theta)


@functools.cache
def preprojective_algebra(q: Quiver) -> PreprojAlgebra:
    return PreprojAlgebra(q)


# ---------------------------------------------------------------------------
# block morphisms over the preprojective algebra


class LambdaMorphism:
    """A map between sums of left projectives over the preprojective
    algebra: entries[r][c] lies in the path space p1[c] -> p0[r], as
    (basis index, coefficient) pairs in increasing index, and acts by right
    multiplication.  The constructor takes each entry as anything `dict`
    reads: a sparse map, or such pairs."""

    def __init__(self, alg: PreprojAlgebra, p1, p0, entries):
        self.alg = alg
        self.p1 = tuple(int(v) for v in p1)
        self.p0 = tuple(int(v) for v in p0)
        self.entries = tuple(tuple(_pairs(entries[r][c]) for c in range(len(self.p1)))
                             for r in range(len(self.p0)))
        for r, row in enumerate(self.entries):
            for c, terms in enumerate(row):
                ok = alg.block_indices(self.p1[c], self.p0[r])
                if any(k not in ok for k, _ in terms):
                    raise InternalCheckError("entry outside its path space")

    def source_dim(self) -> int:
        return sum(len(self.alg.module_indices(v)) for v in self.p1)

    def target_dim(self) -> int:
        return sum(len(self.alg.module_indices(v)) for v in self.p0)

    def __repr__(self) -> str:
        return f"LambdaMorphism({list(self.p1)} -> {list(self.p0)})"


def phi_image(x: MprLabel | MprObject) -> LambdaMorphism:
    """Base change of the presentation of a label or object along quiver
    paths: a scalar on the path u ~> w is that multiple of its walk."""
    obj = mp.presentation(x)
    q = obj.quiver
    alg = preprojective_algebra(q)
    ent = [[{k: s * c for k, c in alg.walk(q.path_vertices(u, w)).items()} if s else {}
            for u, s in zip(obj.p1, row)] for w, row in zip(obj.p0, obj.mat)]
    return LambdaMorphism(alg, obj.p1, obj.p0, ent)
