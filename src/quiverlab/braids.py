"""Artin braid group of a simply laced diagram: word arithmetic, the
left-greedy normal form, the canonical positive lift of Weyl elements,
the star involution, fixed-subgroup membership, and the induced
reflection action on the class lattice.

Weyl elements are integer matrices in the reflection representation on
the root lattice; simple factors of the normal form are Weyl elements,
with the longest element as the Garside element.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .dynkin import DynkinType, nakayama_involution, positive_roots
from .errors import GuardError, InternalCheckError

_GARSIDE_TYPES = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6")


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


@dataclasses.dataclass(frozen=True)
class WeylElement:
    dtype: DynkinType
    mat: tuple[tuple[int, ...], ...]

    def matrix(self) -> np.ndarray:
        return np.array(self.mat, dtype=np.int64)

    def __str__(self) -> str:
        word = canonical_lift(self)
        return "".join(f"s{i}" for (i, _) in word.letters) or "e"


class _WeylContext:
    """Reflection matrices, roots, and longest element for one diagram."""

    def __init__(self, dtype: DynkinType):
        self.dtype = dtype
        self.vertices = dtype.vertices
        n = len(self.vertices)
        C = dtype.cartan_matrix()
        self.gens: dict[int, np.ndarray] = {}
        for a, i in enumerate(self.vertices):
            M = np.eye(n, dtype=np.int64)
            M[a, :] -= C[a, :]
            self.gens[i] = M
        self.roots = [np.asarray(r, dtype=np.int64) for r in positive_roots(dtype)]
        self.identity = self._freeze(np.eye(n, dtype=np.int64))
        w = self.identity
        while True:
            asc = [i for i in self.vertices if not self._descent_right(w, i)]
            if not asc:
                break
            w = self.mul(w, self.gen(asc[0]))
        self.w0 = w
        if self.length(w) != len(self.roots):
            raise InternalCheckError("longest element has wrong length")

    def _freeze(self, M: np.ndarray) -> WeylElement:
        return WeylElement(self.dtype, tuple(tuple(int(x) for x in row) for row in M))

    def gen(self, i: int) -> WeylElement:
        return self._freeze(self.gens[i])

    @functools.lru_cache(maxsize=None)
    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        return self._freeze(a.matrix() @ b.matrix())

    @functools.lru_cache(maxsize=None)
    def inv(self, a: WeylElement) -> WeylElement:
        M = a.matrix()
        R = np.linalg.inv(M.astype(float)).round().astype(np.int64)
        if not np.array_equal(M @ R, np.eye(M.shape[0], dtype=np.int64)):
            raise InternalCheckError("reflection matrix is not invertible over Z")
        return self._freeze(R)

    @functools.lru_cache(maxsize=None)
    def length(self, a: WeylElement) -> int:
        M = a.matrix()
        return sum(1 for r in self.roots if int((M @ r).sum()) < 0)

    def _descent_right(self, a: WeylElement, i: int) -> bool:
        """w alpha_i negative, i.e. l(w s_i) < l(w)."""
        v = a.matrix()[:, self.vertices.index(i)]
        return int(v.sum()) < 0

    @functools.lru_cache(maxsize=None)
    def right_descents(self, a: WeylElement) -> tuple[int, ...]:
        return tuple(i for i in self.vertices if self._descent_right(a, i))

    @functools.lru_cache(maxsize=None)
    def left_descents(self, a: WeylElement) -> tuple[int, ...]:
        ai = self.inv(a)
        return tuple(i for i in self.vertices if self._descent_right(ai, i))

    def meet_prefix(self, a: WeylElement, b: WeylElement) -> WeylElement:
        """Largest common prefix in the left weak order."""
        out = self.identity
        while True:
            common = [i for i in self.left_descents(a) if i in self.left_descents(b)]
            if not common:
                return out
            i = common[0]
            s = self.gen(i)
            out = self.mul(out, s)
            a = self.mul(s, a)
            b = self.mul(s, b)

    def right_complement(self, a: WeylElement) -> WeylElement:
        return self.mul(self.inv(a), self.w0)

    def tau(self, a: WeylElement) -> WeylElement:
        """Conjugation by the longest element (the diagram involution)."""
        return self.mul(self.w0, self.mul(a, self.w0))


@functools.lru_cache(maxsize=None)
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
        out = ctx.mul(out, ctx.gen(i))
    return out


def canonical_lift(w: WeylElement) -> BraidWord:
    """Positive lift through the lexicographically least reduced word."""
    ctx = _ctx_of(w)
    letters = []
    cur = w
    while cur != ctx.identity:
        i = min(ctx.left_descents(cur))
        letters.append((i, 1))
        cur = ctx.mul(ctx.gen(i), cur)
    return BraidWord(w.dtype, tuple(letters))


def reduced_words(w: WeylElement, limit: int = 10000) -> list[tuple[int, ...]]:
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
            rec(ctx.mul(ctx.gen(i), cur), acc + [i])

    rec(w, [])
    if len(out) > limit:
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


def _guard_garside(dtype: DynkinType):
    if str(dtype) not in _GARSIDE_TYPES:
        raise GuardError(
            f"normal forms supported for {_GARSIDE_TYPES}, not {dtype}"
        )


def _normalize(ctx: _WeylContext, infimum: int, factors: list[WeylElement]):
    factors = [f for f in factors if f != ctx.identity]
    changed = True
    while changed:
        changed = False
        k = 0
        while k < len(factors):
            if factors[k] == ctx.w0:
                factors = [ctx.tau(x) for x in factors[:k]] + factors[k + 1 :]
                infimum += 1
                changed = True
                continue
            k += 1
        for k in range(len(factors) - 1):
            a, b = factors[k], factors[k + 1]
            u = ctx.meet_prefix(ctx.right_complement(a), b)
            if u != ctx.identity:
                factors[k] = ctx.mul(a, u)
                factors[k + 1] = ctx.mul(ctx.inv(u), b)
                changed = True
        factors = [f for f in factors if f != ctx.identity]
    return infimum, factors


def garside_normal_form(w: BraidWord) -> GarsideForm:
    """Unique left-greedy form; two words are equal in the braid group
    iff their forms coincide."""
    _guard_garside(w.dtype)
    ctx = _ctx_of(w)
    infimum = 0
    factors: list[WeylElement] = []
    for (i, s) in w.letters:
        if s > 0:
            factors.append(ctx.gen(i))
        else:
            infimum -= 1
            factors = [ctx.tau(x) for x in factors]
            factors.append(ctx.mul(ctx.w0, ctx.gen(i)))
        infimum, factors = _normalize(ctx, infimum, factors)
    for a, b in zip(factors, factors[1:]):
        if not set(ctx.left_descents(b)) <= set(ctx.right_descents(a)):
            raise InternalCheckError("normal form is not left-weighted")
    return GarsideForm(w.dtype, infimum, tuple(factors))


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
    _guard_garside(w.dtype)
    return garside_normal_form(star_involution(w)) == garside_normal_form(w)


# ---------------------------------------------------------------------------
# action on the class lattice


def k0_action(w: BraidWord) -> np.ndarray:
    """Induced matrix on the class lattice: each letter acts by its
    simple-reflection matrix (an involution, so signs collapse)."""
    ctx = _ctx_of(w)
    n = len(ctx.vertices)
    out = np.eye(n, dtype=np.int64)
    for (i, s) in w.letters:
        M = ctx.gens[i]
        out = out @ (M if s > 0 else np.linalg.inv(M.astype(float)).round().astype(np.int64))
    return out


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
