"""Artin braid group of a simply laced diagram: word arithmetic, the
left-greedy normal form, the canonical positive lift of Weyl elements,
the star involution, fixed-subgroup membership, and the induced
reflection action on the class lattice.

Weyl elements are the permutations they induce on the root system, so
products and descents are exact index arithmetic; simple factors of the
normal form are Weyl elements, with the longest element as the Garside
element.  The normal form is built by local sliding: a pair of simple
factors (a, b) is left-weighted iff L(b) is contained in R(a), so letters
of L(b) outside R(a) move from b to a one at a time.  Roots come from
integer Cartan entries and the class-lattice rows are plain ints; only
`k0_action`, which returns an array, imports numpy.
"""
from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple

from .dynkin import DynkinType, _reflect, nakayama_involution, positive_roots
from .errors import GuardError, InternalCheckError

_REDUCED_WORDS_LIMIT = 10000  # enumerations past this many words are refused


@dataclasses.dataclass(frozen=True)
class BraidWord:
    """A word in the braid generators; letters are (vertex, sign)."""

    dtype: DynkinType
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        verts = set(self.dtype.vertices)
        for (i, s) in self.letters:
            if i not in verts or s not in (-1, 1):
                raise GuardError(f"bad letter ({i}, {s}) for {self.dtype}")

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
    same order, so index k names a negative root iff k >= npos."""

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
        # (alpha_i's index, s_i) per vertex, the sliding moves of the normal form
        self.slides = tuple((self.simple[i], self.gens[i].perm) for i in self.vertices)
        # w0 s_i, the simple factor left after Delta^-1 absorbs a letter s_i^-1
        self.neg_factor = {i: self.mul(w, self.gens[i]).perm for i in self.vertices}
        # conjugation by w0 is trivial iff w0 = -1 (D_even, E7, E8)
        self.w0_central = w.perm == (*range(self.npos, 2 * self.npos), *range(self.npos))

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
    letters = []
    cur = w
    while cur != ctx.identity:
        i = min(ctx.left_descents(cur))
        letters.append((i, 1))
        cur = ctx.mul(ctx.gens[i], cur)
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


@dataclasses.dataclass(frozen=True)
class GarsideForm:
    """Left-greedy form: a power of the Garside element followed by
    left-weighted nontrivial simple factors."""

    dtype: DynkinType
    infimum: int
    factors: tuple[WeylElement, ...]

    def __str__(self) -> str:
        parts = [f"D^{self.infimum}"] if self.infimum else []
        parts.extend(str(f) for f in self.factors)
        return " . ".join(parts) or "1"


def _append_simple(ctx: _WeylContext, infimum: int, factors: list[tuple[int, ...]],
                   s: tuple[int, ...]):
    """Right-multiply a left-weighted form (factors as root permutations,
    changed in place) by one simple factor: a single right-to-left sweep of
    local sliding, which stops at the first pair that is already
    left-weighted (the domino rule)."""
    npos = ctx.npos
    factors.append(s)
    for k in range(len(factors) - 2, -1, -1):
        a, b = factors[k], factors[k + 1]
        moved, slid = True, False
        while moved:  # until a pass finds no i in L(b) \ R(a)
            moved = False
            for (r, g) in ctx.slides:
                # i in L(b) \ R(a): b = s_i b' and a s_i stays simple
                if a[r] < npos and b.index(r) >= npos:
                    a, b = tuple(map(a.__getitem__, g)), tuple(map(g.__getitem__, b))
                    moved = slid = True
        if not slid:
            break
        factors[k], factors[k + 1] = a, b
    # full twists can only lead and identities only trail a left-weighted form
    while factors and factors[0] == ctx.w0.perm:
        factors.pop(0)
        infimum += 1
    while factors and factors[-1] == ctx.identity.perm:
        factors.pop()
    return infimum


def garside_normal_form(w: BraidWord) -> GarsideForm:
    """Unique left-greedy form; two words are equal in the braid group
    iff their forms coincide."""
    ctx = _ctx_of(w)
    w0 = ctx.w0.perm
    infimum = 0
    factors: list[tuple[int, ...]] = []
    for (i, s) in w.letters:
        if s > 0:
            infimum = _append_simple(ctx, infimum, factors, ctx.gens[i].perm)
        else:
            # x Delta^-1 = Delta^-1 tau(x), with tau conjugation by w0
            if not ctx.w0_central:
                factors = [tuple(map(w0.__getitem__, map(x.__getitem__, w0))) for x in factors]
            infimum = _append_simple(ctx, infimum - 1, factors, ctx.neg_factor[i])
    form = tuple(WeylElement(w.dtype, x) for x in factors)
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


def is_in_B_star(w: BraidWord) -> bool:
    """Membership in the subgroup fixed by the star involution."""
    return garside_normal_form(star_involution(w)) == garside_normal_form(w)


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


def k0_action(w: BraidWord):
    """`k0_rows` as an int64 numpy array."""
    import numpy as np

    return np.array(k0_rows(w), dtype=np.int64)


# ---------------------------------------------------------------------------
# silting labels and triangular extension


@dataclasses.dataclass(frozen=True)
class SiltingLabel:
    """A silting subcategory named by its braid label, held in normal
    form."""

    form: GarsideForm

    @staticmethod
    def from_word(w: BraidWord) -> "SiltingLabel":
        return SiltingLabel(garside_normal_form(w))

    @property
    def dtype(self) -> DynkinType:
        return self.form.dtype


def triangular_extension(s: SiltingLabel | BraidWord):
    """Formal generator set of the triangular extension: three sides per
    silting generator.  Only star-fixed labels admit one."""
    if isinstance(s, BraidWord):
        s = SiltingLabel.from_word(s)
    word = _form_to_word(s.form)
    if not is_in_B_star(word):
        raise GuardError(
            "label is not fixed by the star involution; no triangular extension"
        )
    return tuple((side, v) for side in (-1, 0, 1) for v in s.dtype.vertices)


def _form_to_word(form: GarsideForm) -> BraidWord:
    ctx = _context(form.dtype)
    delta = canonical_lift(ctx.w0)
    word = BraidWord(form.dtype, ())
    if form.infimum >= 0:
        for _ in range(form.infimum):
            word = word * delta
    else:
        for _ in range(-form.infimum):
            word = word * delta.inverse()
    for f in form.factors:
        word = word * canonical_lift(f)
    return word
