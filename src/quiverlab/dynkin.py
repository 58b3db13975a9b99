"""Simply laced Dynkin diagrams and tree quivers.

Vertex numbering convention, fixed once for the whole package:

* type A_n: the path 1 - 2 - ... - n;
* type D_n: the path 1 - ... - (n-1) plus the extra edge (n-2, n);
* type E_n: the path 1 - ... - (n-1) plus the extra edge (3, n).

The default orientation points every edge from its smaller to its larger
endpoint.  A custom orientation may flip any subset of edges; the underlying
diagram is always the one above.

Everything here is plain integers: building, parsing and serializing
quivers, their directed paths, the Cartan rows and the positive roots.
"""
from __future__ import annotations

import functools
from typing import NamedTuple

from .errors import GuardError

_RANK_RANGE = {"A": (1, 8), "D": (4, 8), "E": (6, 8)}

# classical Coxeter numbers per type
_COXETER = {
    "A": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": lambda n: {6: 12, 7: 18, 8: 30}[n],
}


class _DynkinFields(NamedTuple):
    letter: str
    rank: int


class DynkinType(_DynkinFields):
    """A diagram letter and rank; a named tuple, so it hashes, compares and
    orders as the tuple (letter, rank)."""

    __slots__ = ()

    def __new__(cls, letter: str, rank: int) -> "DynkinType":
        if letter not in _RANK_RANGE:
            raise GuardError(f"unknown diagram letter {letter!r}; expected one of A, D, E")
        lo, hi = _RANK_RANGE[letter]
        if not lo <= rank <= hi:
            raise GuardError(
                f"rank {rank} out of the supported range "
                f"{letter}{lo}..{letter}{hi}"
            )
        return super().__new__(cls, letter, rank)

    @classmethod
    def _make(cls, iterable) -> "DynkinType":
        # through __new__, so `_make` and `_replace` check the fields too
        return cls(*iterable)

    @staticmethod
    def parse(spec: "DynkinType | str") -> "DynkinType":
        if isinstance(spec, DynkinType):
            return spec
        text = str(spec).strip()
        digits = text[1:].lstrip()
        if text[:1] not in ("A", "D", "E", "a", "d", "e") or not digits.isdecimal():
            raise GuardError(f"cannot parse Dynkin type from {spec!r} (expected e.g. 'A3')")
        return DynkinType(text[0].upper(), int(digits))

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        n = self.rank
        if self.letter == "A":
            return tuple((i, i + 1) for i in range(1, n))
        if self.letter == "D":
            return tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),)
        return tuple((i, i + 1) for i in range(1, n - 1)) + ((3, n),)

    def cartan_rows(self) -> tuple[tuple[int, ...], ...]:
        """The Cartan matrix as rows of Python ints."""
        n = self.rank
        c = [[2 * (i == j) for j in range(n)] for i in range(n)]
        for i, j in self.edges:
            c[i - 1][j - 1] = c[j - 1][i - 1] = -1
        return tuple(map(tuple, c))

    def positive_root_count(self) -> int:
        n = self.rank
        if self.letter == "A":
            return n * (n + 1) // 2
        if self.letter == "D":
            return n * (n - 1)
        return {6: 36, 7: 63, 8: 120}[n]


def coxeter_number(dtype: DynkinType | str) -> int:
    dtype = DynkinType.parse(dtype)
    return _COXETER[dtype.letter](dtype.rank)


def _vertex_involution(dtype: DynkinType) -> dict[int, int]:
    """The diagram involution pairing each projective with an injective.

    Nontrivial exactly for A_n (reversal), D_n with n odd (fork swap) and E6
    (arm swap); the identity otherwise.
    """
    n = dtype.rank
    ident = {v: v for v in dtype.vertices}
    if dtype.letter == "A":
        return {v: n + 1 - v for v in dtype.vertices}
    if dtype.letter == "D":
        if n % 2 == 1:
            ident[n - 1], ident[n] = n, n - 1
        return ident
    if n == 6:
        ident.update({1: 5, 5: 1, 2: 4, 4: 2})
    return ident


@functools.total_ordering
class Quiver:
    """A tree quiver: an orientation of a simply laced Dynkin diagram.

    Immutable; equal, ordered and hashed as (dtype, arrows) among quivers.
    `build_quiver`, `opposite` and unpickling return one interned object per
    (dtype, arrows), until `quiverlab.clear_caches` empties the memo."""

    __slots__ = ("dtype", "arrows", "_hash")

    dtype: DynkinType
    arrows: tuple[tuple[int, int], ...]  # (source, target), sorted

    def __init__(self, dtype: DynkinType, arrows: tuple[tuple[int, int], ...]):
        set_field = object.__setattr__
        set_field(self, "dtype", dtype)
        set_field(self, "arrows", arrows)
        # every memo lookup hashes its quiver, so hash the fields once
        set_field(self, "_hash", hash((dtype, arrows)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not Quiver:
            return NotImplemented
        return self._hash == other._hash and (self.dtype, self.arrows) == (other.dtype, other.arrows)

    def __lt__(self, other) -> bool:
        if other.__class__ is not Quiver:
            return NotImplemented
        return (self.dtype, self.arrows) < (other.dtype, other.arrows)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuild through the memo (string hashes differ between processes),
        # so an unpickled quiver is the interned object
        return _interned, (self.dtype, self.arrows)

    def __repr__(self) -> str:
        return f"Quiver(dtype={self.dtype!r}, arrows={self.arrows!r})"

    @property
    def vertices(self) -> tuple[int, ...]:
        return self.dtype.vertices

    @property
    def rank(self) -> int:
        return self.dtype.rank

    def arrows_from(self, v: int) -> tuple[tuple[int, int], ...]:
        return tuple(a for a in self.arrows if a[0] == v)

    def arrows_into(self, v: int) -> tuple[tuple[int, int], ...]:
        return tuple(a for a in self.arrows if a[1] == v)

    def topological_order(self) -> tuple[int, ...]:
        """Vertices ordered so every arrow goes from earlier to later."""
        return _walks(self)[0]

    def path_vertices(self, u: int, w: int) -> tuple[int, ...] | None:
        """The vertex sequence of the directed path u -> ... -> w, or None; a
        tree carries at most one, so it names every nonzero composite of arrows."""
        return _walks(self)[1].get((u, w))

    def has_path(self, u: int, w: int) -> bool:
        return (u, w) in _walks(self)[1]

    def opposite(self) -> "Quiver":
        return _interned(self.dtype, tuple(sorted((j, i) for i, j in self.arrows)))

    def __str__(self) -> str:
        arr = " ".join(f"{i}->{j}" for i, j in self.arrows)
        return f"{self.dtype}[{arr}]"


@functools.cache
def _interned(dtype: DynkinType, arrows: tuple[tuple[int, int], ...]) -> Quiver:
    """The one quiver per type and sorted arrows: a memo keyed by a quiver
    then finds it by identity, without comparing fields."""
    return Quiver(dtype, arrows)


@functools.cache
def _walks(q: Quiver) -> tuple[tuple[int, ...], dict[tuple[int, int], tuple[int, ...]]]:
    """The topological order of `q`, and the vertex sequence of each directed
    path keyed by (source, target).  Each pass over the vertices in
    increasing order takes every vertex whose arrows start at taken ones;
    this order fixes the order of labels, so of printed artifacts."""
    order: list[int] = []
    while len(order) < q.rank:
        taken = len(order)
        for v in q.vertices:
            if v not in order and all(u in order for u, _ in q.arrows_into(v)):
                order.append(v)
        if len(order) == taken:  # pragma: no cover - impossible on a tree
            raise GuardError("orientation contains a cycle")
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    for u in reversed(order):  # the successors of u come later in the order
        paths[u, u] = (u,)
        for _, x in q.arrows_from(u):
            paths.update({(u, w): (u, *p) for (s, w), p in paths.items() if s == x})
    return tuple(order), paths


def _arrow(text: str) -> tuple[int, int] | None:
    """The arrow spelled `i->j`, with optional whitespace around the arrow
    and decimal digits of any script, as `int` reads them; None otherwise."""
    source, sep, target = text.partition("->")
    source, target = source.rstrip(), target.lstrip()
    if not (sep and source.isdecimal() and target.isdecimal()):
        return None
    return int(source), int(target)


def _parse_arrows(spec) -> list[tuple[int, int]]:
    if isinstance(spec, str):
        out = []
        for tok in spec.replace(",", " ").split():
            arrow = _arrow(tok)
            if arrow is None:
                raise GuardError(f"cannot parse arrow {tok!r} (expected e.g. '1->2')")
            out.append(arrow)
        return out
    return [(int(i), int(j)) for i, j in spec]


def build_quiver(dtype: DynkinType | str, arrows=None) -> Quiver:
    """Build a tree quiver of the given type.

    `arrows` may be omitted (every edge oriented small -> large), an iterable
    of (source, target) pairs, or a string like "1->2 3->2".  Each underlying
    diagram edge must appear exactly once, in one of its two orientations.
    """
    dtype = DynkinType.parse(dtype)
    edges = dtype.edges
    if arrows is None:
        chosen = list(edges)
    else:
        chosen = _parse_arrows(arrows)
        need = {frozenset(e) for e in edges}
        got = [frozenset(a) for a in chosen]
        if len(chosen) != len(edges) or set(got) != need or len(set(got)) != len(got):
            raise GuardError(
                f"orientation {chosen} does not cover each edge of {dtype} exactly once"
            )
        for i, j in chosen:
            if i == j:
                raise GuardError("loops are not allowed")
    return _interned(dtype, tuple(sorted(chosen)))


def nakayama_involution(q: Quiver | DynkinType | str) -> dict[int, int]:
    """The vertex involution i -> i* matching projectives with injectives.

    Depends only on the diagram, not on the orientation.
    """
    if isinstance(q, Quiver):
        dtype = q.dtype
    else:
        dtype = DynkinType.parse(q)
    return _vertex_involution(dtype)


def _reflect(root: tuple[int, ...], a: int, cartan_row: tuple[int, ...]) -> tuple[int, ...]:
    """s_a(r) = r - <r, alpha_a> alpha_a in the simple-root basis, where
    `cartan_row` is row `a` (0-based) of the Cartan matrix."""
    return root[:a] + (root[a] - sum(map(int.__mul__, root, cartan_row)),) + root[a + 1:]


def positive_roots(dtype: DynkinType | str) -> list[tuple[int, ...]]:
    """All positive roots in the simple-root basis, generated by reflection
    closure from the simples; sorted by height, then lexicographically."""
    dtype = DynkinType.parse(dtype)
    cartan = dtype.cartan_rows()
    n = dtype.rank
    frontier = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for r in frontier:
            for a, row in enumerate(cartan):
                refl = _reflect(r, a, row)
                if min(refl) >= 0 and refl not in seen:
                    seen.add(refl)
                    nxt.append(refl)
        frontier = nxt
    return sorted(seen, key=lambda r: (sum(r), r))


# ---------------------------------------------------------------------------
# serialization


def quiver_to_json(q: Quiver) -> dict:
    return {
        "type": str(q.dtype),
        "vertices": list(q.vertices),
        "arrows": [list(a) for a in q.arrows],
    }


def quiver_from_json(data) -> Quiver:
    """Inverse of `quiver_to_json`; any other value is a `GuardError`."""
    arrows = data.get("arrows") if isinstance(data, dict) and "type" in data else None
    if not (isinstance(arrows, list) and all(
        isinstance(a, list) and len(a) == 2 and all(type(v) is int for v in a) for a in arrows
    )):
        raise GuardError('quiver JSON must be {"type": ..., "arrows": [[source, target], ...]}')
    return build_quiver(data["type"], [tuple(a) for a in arrows])


def quiver_to_text(q: Quiver) -> str:
    """Round-trippable text form: a `type` header, then one arrow per line."""
    lines = [f"type {q.dtype.letter} {q.dtype.rank}"]
    lines.extend(f"{i} -> {j}" for i, j in q.arrows)
    return "\n".join(lines) + "\n"


def quiver_from_text(text: str) -> Quiver:
    dtype = None
    arrows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("type"):
            parts = line.split()
            if len(parts) != 3:
                raise GuardError(f"bad type header {line!r} (expected 'type A 3')")
            dtype = DynkinType.parse(parts[1] + parts[2])
            continue
        arrow = _arrow(line)
        if arrow is None:
            raise GuardError(f"cannot parse quiver line {line!r}")
        arrows.append(arrow)
    if dtype is None:
        raise GuardError("quiver text is missing its 'type' header")
    return build_quiver(dtype, arrows or None)


def quiver_to_dot(q: Quiver) -> str:
    lines = ["digraph quiver {"]
    lines.append(f'  label="{q.dtype}";')
    for v in q.vertices:
        shape = "box" if not q.arrows_from(v) else "circle"
        lines.append(f'  v{v} [label="{v}", shape={shape}];')
    for i, j in q.arrows:
        lines.append(f"  v{i} -> v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
