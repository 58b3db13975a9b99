"""Graded hom spaces over the boundary category of the orbit construction.

Objects are images of modules under the three embeddings.  Two routes are
provided: a case-map route (thm1/thm2) that reduces everything to orbit
sums of derived homs between stalks, and an evolution route (gamma) that
computes the orbit sum honestly, as totalized hom complexes over the
tensor algebra of the two-object line with the quiver.  The evolution
transports one complex, the presentation of the target module, along the
derived inverse translate, minimized at each power; those complexes are
read from the memoized orbit `complexes.tau_inv_orbit`, so each is built
once per process however many calls need it.  The slots of an embedded
object are that complex or zero, so every block of the totalization is
the one hom complex between the two presentations, and the identity
embedding contributes the identity as its connecting map.
The two routes agree on embedded projectives; the case-map route is the
fast one and the evolution route is the oracle.

Every graded hom is a plain dict {degree: dim}, with no zero values and
no degree below `min_degree`; the `hom` command orders the degrees.

The case-map route and the table work on labels alone, so this module
loads no matrix layer; `thm2_hom` imports the morphism
category and `gamma_hom` the complexes when they are called.  On a label
`thm2_hom` reads the knitted terms and the cone by label arithmetic, so it
builds no presentation and splits no complex; an `MprObject` is split as
a matrix on every call.
"""
from __future__ import annotations

import json
from typing import NamedTuple

from .dynkin import Quiver, coxeter_number
from .errors import GuardError, InternalCheckError
from .stalks import IndecLabel, e_exponent, pi2_hom

DEFAULT_FLOOR = -3
_EMBED = (-1, 0, 1)


# ---------------------------------------------------------------------------
# the case-map route


def _raised_le0(raw: dict[int, int]) -> dict[int, int]:
    """Every entry moved up one degree, keeping degrees <= 0; `raw` walked
    down to min_degree - 1, so the result reaches min_degree."""
    return {d + 1: n for d, n in raw.items() if d < 0}


def thm1_hom(i: int, x, j: int, y, min_degree: int = DEFAULT_FLOOR) -> dict[int, int]:
    """Graded hom from the i-embedded x to the j-embedded y."""
    if i not in _EMBED or j not in _EMBED:
        raise GuardError("embedding indices must lie in {-1, 0, 1}")
    if (i, j) in ((-1, 1), (0, -1), (1, 0)):
        return {}
    if (i, j) == (1, -1):
        return _raised_le0(pi2_hom(x, y, min_degree=min_degree - 1))
    return pi2_hom(x, y, min_degree=min_degree)


def _pi2_over_labels(x, labels, q: Quiver, min_degree: int) -> dict[int, int]:
    total: dict[int, int] = {}
    for lab in labels:
        if isinstance(lab, int):
            lab = IndecLabel(q, lab, 0)
        for d, n in pi2_hom(x, lab, min_degree=min_degree).items():
            total[d] = total.get(d, 0) + n
    return total


def thm2_hom(i: int, x, Y, min_degree: int = DEFAULT_FLOOR) -> dict[int, int]:
    """Graded hom from the i-embedded x to a morphism-category object Y,
    through the term-extraction functors and the cone."""
    from . import morphcat as mp

    if i not in _EMBED:
        raise GuardError("embedding index must lie in {-1, 0, 1}")
    if isinstance(Y, mp.MprLabel):
        q, (p1, p0) = Y.quiver, mp._terms(Y)
    else:
        q, p1, p0 = mp.presentation(Y).quiver, mp.functor_C(1, Y), mp.functor_C(0, Y)
    if i == -1:
        return _pi2_over_labels(x, p0, q, min_degree)
    if i == 0:
        return _pi2_over_labels(x, p1, q, min_degree)
    return _raised_le0(_pi2_over_labels(x, mp.cone(Y), q, min_degree - 1))


# ---------------------------------------------------------------------------
# the evolution route


def gamma_hom(i: int, x, j: int, y, min_degree: int = DEFAULT_FLOOR) -> dict[int, int]:
    """Orbit-sum hom via evolution: at each power p = 0..h the presentation
    complex of y = tauinv^k P_v, transported along the derived inverse
    translate and reduced, is orbit entry k + p; the two-column hom
    complex of the i-embedded x and the j-embedded entry, totalized from
    the one hom complex between the two presentations, contributes its
    cohomology, and power h must repeat power 0 two degrees down."""
    from . import complexes as cx

    q = x.quiver if isinstance(x, IndecLabel) else y.quiver

    def orbit_entry(z, p: int = 0):
        # power p of the evolution of the module z, read from the orbit memo
        if not isinstance(z, IndecLabel):
            raise GuardError(f"expected a module label, got {z!r}")
        if not 0 <= z.power < e_exponent(q, z.vertex):
            raise InternalCheckError(f"{z} is not a valid indecomposable label")
        return cx.tau_inv_orbit(q, z.vertex, z.power + p)

    X = orbit_entry(x)
    h = coxeter_number(q.dtype)
    # One full orbit lap suffices: the h-th power of the evolution is the
    # double suspension, so later laps repeat the first one two degrees down.
    raw = [cx.two_column_dims(i, X, j, orbit_entry(y, p)) for p in range(h + 1)]
    if raw[h] != {d - 2: n for d, n in raw[0].items()}:
        raise InternalCheckError("orbit evolution is not double-suspension periodic")
    total: dict[int, int] = {}
    for contrib in raw[:h]:
        if not contrib:
            continue
        s = 0
        while max(contrib) - 2 * s >= min_degree:
            for d, n in contrib.items():
                dd = d - 2 * s
                # each power's contribution enters truncated to degrees <= 0
                if min_degree <= dd <= 0:
                    total[dd] = total.get(dd, 0) + n
            s += 1
    return total


# ---------------------------------------------------------------------------
# the table


class HomTable(NamedTuple):
    quiver: Quiver
    keys: tuple[tuple[int, int], ...]  # (embedding index, vertex)
    grid: tuple[tuple[int, ...], ...]  # degree-zero dims, rows=source key

    def total(self) -> int:
        return sum(sum(row) for row in self.grid)

    def to_tsv(self) -> str:
        def name(k):
            return f"D{k[0]}P{k[1]}"

        lines = ["\t".join(["hom0"] + [name(k) for k in self.keys])]
        for key, row in zip(self.keys, self.grid):
            lines.append("\t".join([name(key)] + [str(v) for v in row]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "type": str(self.quiver.dtype),
            "keys": [list(k) for k in self.keys],
            "grid": [list(r) for r in self.grid],
            "total": self.total(),
        }


def table_keys(q: Quiver) -> tuple[tuple[int, int], ...]:
    """The slots (embedding index, vertex) of `hom_table`, in its order."""
    return tuple((i, v) for i in _EMBED for v in q.vertices)


def hom_table(q: Quiver) -> HomTable:
    """Degree-zero hom dimensions between all embedded projectives; the
    orbit walks stop at degree 0, the only degree the grid reports."""
    keys = table_keys(q)
    grid = []
    for (i, u) in keys:
        row = []
        for (j, v) in keys:
            g = thm1_hom(i, IndecLabel(q, u, 0), j, IndecLabel(q, v, 0), min_degree=0)
            row.append(g.get(0, 0))
        grid.append(tuple(row))
    return HomTable(q, keys, tuple(grid))


def export_hom_table(table: HomTable, fmt: str = "tsv") -> str:
    if fmt == "tsv":
        return table.to_tsv()
    if fmt == "json":
        return json.dumps(table.to_json(), indent=2) + "\n"
    raise GuardError(f"unknown table format {fmt!r}")
