"""Artin braid group of a simply laced diagram: word arithmetic, the
left-greedy normal form, the canonical positive lift of Weyl elements,
the star involution, fixed-subgroup membership, and the induced
reflection action on the class lattice.

Weyl elements are the permutations they induce on the root system, so
products and descents are exact index arithmetic; simple factors of the
normal form are Weyl elements, with the longest element as the Garside
element.  The normal form is built by local sliding: a pair of simple
factors (a, b) is left-weighted iff L(b) is contained in R(a), so letters
of L(b) outside R(a) move from b to a one at a time.  While it slides, a
factor w is held by its images of the simple roots, w(alpha_j) and
w^-1(alpha_j), with each root written as one integer that is linear in its
coefficients.  A move then costs O(rank): in each factor, a sign flip
and a sum per neighbour in one image tuple and a reflection of each entry
of the other.  Factors become root permutations only when the form is
returned.  Roots come from integer Cartan entries and the class-lattice
rows are plain ints.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from .dynkin import DynkinType, _reflect, nakayama_involution, positive_roots
from .errors import GuardError, InternalCheckError

_REDUCED_WORDS_LIMIT = 10000  # enumerations past this many words are refused


class BraidWord:
    """A word in the braid generators; letters are (vertex, sign).

    Immutable; equal and hashed as (dtype, letters) among words.  Not a
    tuple, so `*` is only the product of words."""

    __slots__ = ("dtype", "letters")

    dtype: DynkinType
    letters: tuple[tuple[int, int], ...]

    def __init__(self, dtype: DynkinType, letters: tuple[tuple[int, int], ...]):
        verts = set(dtype.vertices)
        for (i, s) in letters:
            if i not in verts or s not in (-1, 1):
                raise GuardError(f"bad letter ({i}, {s}) for {dtype}")
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not BraidWord:
            return NotImplemented
        return (self.dtype, self.letters) == (other.dtype, other.letters)

    def __hash__(self) -> int:
        return hash((self.dtype, self.letters))

    def __reduce__(self):
        return BraidWord, (self.dtype, self.letters)

    def __repr__(self) -> str:
        return f"BraidWord(dtype={self.dtype!r}, letters={self.letters!r})"

    @staticmethod
    def from_ints(dtype: DynkinType | str, ints) -> "BraidWord":
        dt = DynkinType.parse(dtype)
        letters = []
        for x in ints:
            x = int(x)
            if x == 0:
                raise GuardError("letter 0 is not a generator")
            letters.append((abs(x), 1 if x > 0 else -1))
        return BraidWord(dt, tuple(letters))

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.dtype, tuple((i, -s) for (i, s) in reversed(self.letters))
        )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if other.dtype != self.dtype:
            raise GuardError("cannot multiply words over different diagrams")
        return BraidWord(self.dtype, self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(str(i * s) for (i, s) in self.letters) or "(empty)"


class WeylElement(NamedTuple):
    """A Weyl group element as the permutation it induces on the roots:
    `perm[k]` is the index of w(root k) in its diagram's root list."""

    dtype: DynkinType
    perm: tuple[int, ...]

    def __str__(self) -> str:
        word = canonical_lift(self)
        return "".join(f"s{i}" for (i, _) in word.letters) or "e"


class _WeylContext:
    """Roots, simple reflections and longest element for one diagram.

    Roots are indexed positive roots first, then their negatives in the
    same order, so index k names a negative root iff k >= npos.  Each root
    also has a code, sum_j c_j B^j over its coefficients c_j with B past
    the largest one: codes add like roots, the code of a negative root is
    negative, and distinct roots have distinct codes because the
    coefficients of a root share one sign."""

    def __init__(self, dtype: DynkinType):
        self.dtype = dtype
        self.vertices = dtype.vertices
        pos = positive_roots(dtype)
        self.npos = len(pos)
        self.roots = pos + [tuple(-x for x in r) for r in pos]
        index = {r: k for k, r in enumerate(self.roots)}
        self.simple = {i: index[tuple(int(i == j) for j in self.vertices)]
                       for i in self.vertices}
        self.gens = {}
        for a, (i, row) in enumerate(zip(self.vertices, dtype.cartan_rows())):
            perm = tuple(index[_reflect(r, a, row)] for r in self.roots)
            self.gens[i] = WeylElement(dtype, perm)
        self.identity = WeylElement(dtype, tuple(range(len(self.roots))))
        w = self.identity
        while asc := [i for i in self.vertices if i not in self.right_descents(w)]:
            w = self.mul(w, self.gens[asc[0]])
        self.w0 = w
        if self.length(w) != self.npos:
            raise InternalCheckError("longest element has wrong length")
        base = 1 + max(map(max, pos))
        self.code = [sum(c * base**j for j, c in enumerate(r)) for r in self.roots]
        self.root_of = {c: k for k, c in enumerate(self.code)}
        # vertex i sits at position i - 1 of an image tuple; its neighbours
        # are the positions with Cartan entry -1, and s_i acts on codes
        self.adj = tuple(tuple(q for q, c in enumerate(row) if c < 0)
                         for row in dtype.cartan_rows())
        self.refl = tuple(dict(zip(self.code, map(self.code.__getitem__, self.gens[i].perm)))
                          for i in self.vertices)
        # the sliding forms of s_i, of w0 s_i (the simple factor left after
        # Delta^-1 absorbs a letter s_i^-1), of w0 and of the identity
        self.gen_form = {i: self.images(self.gens[i]) for i in self.vertices}
        self.neg_form = {i: self.images(self.mul(w, self.gens[i])) for i in self.vertices}
        self.w0_img = self.images(w)[0]
        self.one_img = self.images(self.identity)[0]
        # conjugation by w0 is trivial iff w0 = -1 (D_even, E7, E8); else
        # w0(alpha_j) = -alpha_nu(j) for the diagram involution nu, and
        # (w0 x w0)(alpha_j) = nu(x(alpha_nu(j))) with nu = -w0 on roots
        self.w0_central = w.perm == (*range(self.npos, 2 * self.npos), *range(self.npos))
        at = {self.code[self.simple[i]]: i - 1 for i in self.vertices}
        self.nu_pos = tuple(at[-c] for c in self.w0_img)
        self.nu_code = {self.code[k]: -self.code[g] for k, g in enumerate(w.perm)}

    def images(self, w: WeylElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Codes of w(alpha_i) and of w^-1(alpha_i), in vertex order."""
        perm, code = w.perm, self.code
        return (tuple(code[perm[self.simple[i]]] for i in self.vertices),
                tuple(code[perm.index(self.simple[i])] for i in self.vertices))

    def element(self, img: tuple[int, ...]) -> WeylElement:
        """The Weyl element with simple-root images `img`: w is linear, so
        the code of w(r) is the sum of r's coefficients times `img`."""
        return WeylElement(self.dtype, tuple(
            self.root_of[sum(map(int.__mul__, r, img))] for r in self.roots))

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return WeylElement(self.dtype, tuple(map(a.perm.__getitem__, b.perm)))

    def length(self, a: WeylElement) -> int:
        """Number of positive roots sent to negative roots."""
        return sum(k >= self.npos for k in a.perm[: self.npos])

    def right_descents(self, a: WeylElement) -> tuple[int, ...]:
        """i with w(alpha_i) negative, i.e. l(w s_i) < l(w)."""
        return tuple(i for i in self.vertices if a.perm[self.simple[i]] >= self.npos)

    def left_descents(self, a: WeylElement) -> tuple[int, ...]:
        """i with w^-1(alpha_i) negative, i.e. l(s_i w) < l(w)."""
        return tuple(
            i for i in self.vertices if a.perm.index(self.simple[i]) >= self.npos
        )


@functools.cache
def _context(dtype: DynkinType) -> _WeylContext:
    return _WeylContext(dtype)


def _ctx_of(x) -> _WeylContext:
    if isinstance(x, (BraidWord, WeylElement)):
        return _context(x.dtype)
    return _context(DynkinType.parse(x))


# ---------------------------------------------------------------------------
# Weyl projection and canonical lift


def project_to_weyl(w: BraidWord) -> WeylElement:
    """Image under the canonical morphism to the Weyl group (signs die)."""
    ctx = _ctx_of(w)
    out = ctx.identity
    for (i, _) in w.letters:
        out = ctx.mul(out, ctx.gens[i])
    return out


def canonical_lift(w: WeylElement) -> BraidWord:
    """Positive lift through the lexicographically least reduced word."""
    ctx = _ctx_of(w)
    inv = list(ctx.images(w)[1])  # cur^-1(alpha_j), cur = w at the start
    letters = []
    # the least left descent i of cur, then cur <- s_i cur
    while (p := next((p for p, y in enumerate(inv) if y < 0), None)) is not None:
        y = inv[p]
        inv[p] = -y
        for q in ctx.adj[p]:
            inv[q] += y
        letters.append((ctx.vertices[p], 1))
    return BraidWord(w.dtype, tuple(letters))


def reduced_words(w: WeylElement) -> list[tuple[int, ...]]:
    """All reduced words of a Weyl element (small elements only)."""
    ctx = _ctx_of(w)
    if ctx.length(w) > 12:
        raise GuardError("reduced-word enumeration capped at length 12")
    out = []

    def rec(cur, acc):
        if cur == ctx.identity:
            out.append(tuple(acc))
            return
        for i in ctx.left_descents(cur):
            rec(ctx.mul(ctx.gens[i], cur), acc + [i])

    rec(w, [])
    if len(out) > _REDUCED_WORDS_LIMIT:
        raise GuardError("too many reduced words")
    return sorted(out)


# ---------------------------------------------------------------------------
# Garside normal form


class GarsideForm(NamedTuple):
    """Left-greedy form: a power of the Garside element followed by
    left-weighted nontrivial simple factors."""

    dtype: DynkinType
    infimum: int
    factors: tuple[WeylElement, ...]

    def __str__(self) -> str:
        parts = [f"D^{self.infimum}"] if self.infimum else []
        parts.extend(str(f) for f in self.factors)
        return " . ".join(parts) or "1"


def _append_simple(ctx: _WeylContext, infimum: int, factors: list, s: tuple) -> int:
    """Right-multiply a left-weighted form (factors as `ctx.images` pairs,
    changed in place) by one simple factor: a single right-to-left sweep of
    local sliding, which stops at the first pair that is already
    left-weighted (the domino rule)."""
    adj, refl = ctx.adj, ctx.refl
    factors.append(s)
    for k in range(len(factors) - 2, -1, -1):
        (a, a_inv), (b, b_inv) = factors[k], factors[k + 1]
        a, b_inv = list(a), list(b_inv)
        moved, slid = True, False
        while moved:  # until a pass finds no i in L(b) \ R(a)
            moved = False
            for p, r in enumerate(refl):
                x, y = a[p], b_inv[p]
                # i in L(b) \ R(a): b = s_i b' and a s_i stays simple
                if x > 0 and y < 0:
                    # a <- a s_i and b <- s_i b: on a(alpha_j) and b^-1(alpha_j)
                    # this negates entry i and adds it to each neighbour; on
                    # a^-1(alpha_j) and b(alpha_j) it reflects every entry
                    a[p], b_inv[p] = -x, -y
                    for q in adj[p]:
                        a[q] += x
                        b_inv[q] += y
                    a_inv, b = tuple(map(r.__getitem__, a_inv)), tuple(map(r.__getitem__, b))
                    moved = slid = True
        if not slid:
            break
        factors[k], factors[k + 1] = (tuple(a), a_inv), (b, tuple(b_inv))
    # full twists can only lead and identities only trail a left-weighted form
    while factors and factors[0][0] == ctx.w0_img:
        factors.pop(0)
        infimum += 1
    while factors and factors[-1][0] == ctx.one_img:
        factors.pop()
    return infimum


def garside_normal_form(w: BraidWord) -> GarsideForm:
    """Unique left-greedy form; two words are equal in the braid group
    iff their forms coincide."""
    ctx = _ctx_of(w)
    infimum = 0
    factors: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for (i, s) in w.letters:
        if s > 0:
            infimum = _append_simple(ctx, infimum, factors, ctx.gen_form[i])
        else:
            # x Delta^-1 = Delta^-1 tau(x), with tau conjugation by w0
            if not ctx.w0_central:
                nu, at = ctx.nu_code, ctx.nu_pos
                factors = [tuple(tuple(nu[x[j]] for j in at) for x in f) for f in factors]
            infimum = _append_simple(ctx, infimum - 1, factors, ctx.neg_form[i])
    form = tuple(ctx.element(img) for img, _ in factors)
    for a, b in zip(form, form[1:]):
        if not set(ctx.left_descents(b)) <= set(ctx.right_descents(a)):
            raise InternalCheckError("normal form is not left-weighted")
    return GarsideForm(w.dtype, infimum, form)


def braid_equal(a: BraidWord, b: BraidWord) -> bool:
    return garside_normal_form(a) == garside_normal_form(b)


def garside_element(dtype: DynkinType | str) -> BraidWord:
    """The positive lift of the longest element."""
    ctx = _ctx_of(dtype)
    return canonical_lift(ctx.w0)


# ---------------------------------------------------------------------------
# the star involution and the fixed subgroup


def star_involution(w: BraidWord) -> BraidWord:
    """Letterwise application of the vertex involution; agrees with
    conjugation by the lifted longest element up to normal form."""
    from .dynkin import build_quiver

    star = nakayama_involution(build_quiver(w.dtype))
    return BraidWord(w.dtype, tuple((star[i], s) for (i, s) in w.letters))


def star_form(form: GarsideForm) -> GarsideForm:
    """The normal form of the star image: the diagram involution applied
    factor by factor.  As a diagram automorphism it fixes the Garside
    element, maps simple elements to simple elements and permutes descent
    sets, so it maps a left-greedy form to the left-greedy form of the
    image.  On a Weyl element it is conjugation by the longest element."""
    ctx = _context(form.dtype)
    if ctx.w0_central:
        return form
    factors = tuple(ctx.mul(ctx.w0, ctx.mul(f, ctx.w0)) for f in form.factors)
    return GarsideForm(form.dtype, form.infimum, factors)


def is_in_B_star(w: BraidWord) -> bool:
    """Membership in the subgroup fixed by the star involution."""
    form = garside_normal_form(w)
    return star_form(form) == form


# ---------------------------------------------------------------------------
# action on the class lattice


def k0_rows(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Induced matrix on the class lattice, as rows of ints: the reflection
    matrix of the Weyl image, whose column j is the root w(alpha_j).  Each
    letter acts by its simple reflection, an involution, so signs
    collapse."""
    ctx = _ctx_of(w)
    perm = project_to_weyl(w).perm
    return tuple(zip(*(ctx.roots[perm[ctx.simple[i]]] for i in ctx.vertices)))
