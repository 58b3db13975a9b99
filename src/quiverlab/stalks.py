"""Derived-category bookkeeping for stalk objects Sigma^s tauinv^k P_v.

Everything in the bounded derived category of a Dynkin quiver is a sum of
(de)suspended indecomposable modules, and every indecomposable module is
tauinv^k of a projective.  This module works purely with such labels and
two knitting tables:

* the defect table: dimension vectors of tauinv^k P_v, continued formally
  past the module range, where the value at (v, k) equals (-1)^s times the
  dimension vector of the normalized stalk;
* the hom table f^(i): dim Hom(P_i, tauinv^m P_j), same recursion because
  Hom(P_i, -) is exact on almost-split sequences.

Degree convention for graded hom spaces: entry d of `derived_hom(x, y)`
is dim Hom(x, Sigma^d y); the suspension Sigma moves entries down one
degree, so `GradedDim.shift(+1)` (entries up one degree) applies an
inverse suspension to the second argument.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np

from . import reps
from .dynkin import Quiver, coxeter_number, nakayama_involution
from .errors import InternalCheckError
from .reps import IndecLabel


@dataclasses.dataclass(frozen=True, order=True)
class DerivedLabel:
    """Sigma^shift tauinv^power P_vertex, with 0 <= power < e_vertex once
    normalized."""

    quiver: Quiver
    vertex: int
    power: int
    shift: int

    def __str__(self) -> str:
        core = f"P{self.vertex}" if self.power == 0 else f"t-{self.power}P{self.vertex}"
        if self.shift == 0:
            return core
        return f"S^{self.shift}[{core}]"

    def module_label(self) -> IndecLabel:
        if self.shift != 0:
            raise InternalCheckError(f"{self} is not concentrated in degree 0")
        return IndecLabel(self.quiver, self.vertex, self.power)


class GradedDim:
    """A finitely supported map degree -> dimension."""

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        d = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for k, v in items:
                v = int(v)
                if v:
                    d[int(k)] = d.get(int(k), 0) + v
        self._entries = tuple(sorted(((k, v) for k, v in d.items() if v), reverse=True))

    def to_dict(self) -> dict[int, int]:
        return dict(self._entries)

    def __getitem__(self, degree: int) -> int:
        for k, v in self._entries:
            if k == degree:
                return v
        return 0

    def __iter__(self):
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        if isinstance(other, GradedDim):
            return self._entries == other._entries
        if isinstance(other, dict):
            return self.to_dict() == {int(k): int(v) for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self):
        return hash(self._entries)

    def add(self, other: "GradedDim") -> "GradedDim":
        return GradedDim(list(self._entries) + list(other._entries))

    def shift(self, k: int) -> "GradedDim":
        """Move every entry up by k degrees: new[d] = old[d - k]."""
        return GradedDim([(d + k, v) for d, v in self._entries])

    def truncate_le0(self) -> "GradedDim":
        return GradedDim([(d, v) for d, v in self._entries if d <= 0])

    def truncate_min(self, floor: int) -> "GradedDim":
        return GradedDim([(d, v) for d, v in self._entries if d >= floor])

    def total(self) -> int:
        return sum(v for _, v in self._entries)

    def __repr__(self) -> str:
        if not self._entries:
            return "{}"
        return "{" + ", ".join(f"{d}: {v}" for d, v in self._entries) + "}"


ZERO = GradedDim()


# ---------------------------------------------------------------------------
# knitting tables


def _knit(q: Quiver, seed: dict[int, np.ndarray], depth: int) -> dict[int, list[np.ndarray]]:
    """Run the mesh recursion t(i, k+1) = sum_{j->i} t(j, k+1)
    + sum_{i->j} t(j, k) - t(i, k) from the given degree-0 seed."""
    topo = q.topological_order()
    table = {v: [np.asarray(seed[v], dtype=np.int64)] for v in q.vertices}
    for k in range(depth):
        for i in topo:
            acc = -table[i][k]
            for (j, _) in q.arrows_into(i):
                acc = acc + table[j][k + 1]
            for (_, j) in q.arrows_from(i):
                acc = acc + table[j][k]
            table[i].append(acc)
    return table


@functools.cache
def _defect_data(q: Quiver):
    h = coxeter_number(q.dtype)
    depth = 2 * h
    seed = {v: np.array(reps.projective_rep(q, v).dim_vector(), dtype=np.int64) for v in q.vertices}
    table = _knit(q, seed, depth)
    star = nakayama_involution(q)
    exponents = {}
    for v in q.vertices:
        e = next(k for k in range(1, depth + 1) if table[v][k].min() < 0)
        exponents[v] = e
        if not np.array_equal(table[v][e], -seed[star[v]]):
            raise InternalCheckError(f"first negative defect at vertex {v} is not minus a projective")
    for v in q.vertices:
        if exponents[v] + exponents[star[v]] != h:
            raise InternalCheckError("orbit exponents do not pair up to the Coxeter number")
    # continuation consistency: the formal value at (v, k) is (-1)^s times
    # the value at the normalized position
    for v in q.vertices:
        for k in range(depth + 1):
            vv, kk, ss = _normalize_raw(exponents, star, v, k, 0)
            if not np.array_equal(table[v][k], (-1) ** ss * table[vv][kk]):
                raise InternalCheckError("defect table continuation is inconsistent")
    return table, exponents


def _normalize_raw(exponents: dict[int, int], star: dict[int, int], v: int, k: int, s: int):
    guard = 0
    while k >= exponents[v]:
        k -= exponents[v]
        v = star[v]
        s += 1
        guard += 1
        if guard > 10_000:
            raise InternalCheckError("normalization loop runaway")
    while k < 0:
        v = star[v]
        k += exponents[v]
        s -= 1
        guard += 1
        if guard > 10_000:
            raise InternalCheckError("normalization loop runaway")
    return v, k, s


def e_exponent(q: Quiver, vertex: int | None = None):
    """Number of module-category steps in the tauinv orbit of P_vertex
    (tauinv^e P_v first leaves the module range, as the suspended projective
    at the involuted vertex)."""
    _, exponents = _defect_data(q)
    if vertex is None:
        return dict(exponents)
    if vertex not in exponents:
        raise InternalCheckError(f"no vertex {vertex}")
    return exponents[vertex]


@functools.cache
def _hom_table(q: Quiver, i: int):
    """f[j][m] = dim Hom(P_i, tauinv^m P_j) on the principal window, with
    formal continuation asserted against normalization."""
    table_d, exponents = _defect_data(q)
    h = coxeter_number(q.dtype)
    depth = 2 * h
    seed = {j: np.array([1 if q.has_path(i, j) else 0], dtype=np.int64) for j in q.vertices}
    table = _knit(q, seed, depth)
    star = nakayama_involution(q)
    for j in q.vertices:
        for m in range(depth + 1):
            jj, mm, ss = _normalize_raw(exponents, star, j, m, 0)
            if int(table[j][m][0]) != (-1) ** ss * int(table[jj][mm][0]):
                raise InternalCheckError("hom table continuation is inconsistent")
    out = {j: tuple(int(table[j][m][0]) for m in range(depth + 1)) for j in q.vertices}
    for j in q.vertices:
        for m in range(exponents[j]):
            if out[j][m] < 0:
                raise InternalCheckError("negative hom dimension inside the module window")
    return out


# ---------------------------------------------------------------------------
# labels


def normalize_label(q: Quiver, vertex: int, power: int, shift: int = 0) -> DerivedLabel:
    _, exponents = _defect_data(q)
    star = nakayama_involution(q)
    v, k, s = _normalize_raw(exponents, star, vertex, power, shift)
    return DerivedLabel(q, v, k, s)


def as_derived_label(x) -> DerivedLabel:
    if isinstance(x, DerivedLabel):
        return normalize_label(x.quiver, x.vertex, x.power, x.shift)
    if isinstance(x, IndecLabel):
        return normalize_label(x.quiver, x.vertex, x.power, 0)
    raise InternalCheckError(f"cannot interpret {x!r} as a derived stalk label")


def sigma(x, s: int = 1) -> DerivedLabel:
    """Suspend a stalk label s times."""
    lab = as_derived_label(x)
    return DerivedLabel(lab.quiver, lab.vertex, lab.power, lab.shift + s)


def tau(x):
    """The translate: on representations, derived labels or module labels."""
    if isinstance(x, reps.Rep):
        return reps.tau_rep(x)
    if isinstance(x, DerivedLabel):
        return normalize_label(x.quiver, x.vertex, x.power - 1, x.shift)
    if isinstance(x, IndecLabel):
        if x.power == 0:
            return None
        return IndecLabel(x.quiver, x.vertex, x.power - 1)
    raise InternalCheckError(f"cannot translate {x!r}")


def tau_inv(x):
    """The inverse translate, in the same three flavours as `tau`."""
    if isinstance(x, reps.Rep):
        return reps.tau_inv_rep(x)
    if isinstance(x, DerivedLabel):
        return normalize_label(x.quiver, x.vertex, x.power + 1, x.shift)
    if isinstance(x, IndecLabel):
        if x.power + 1 >= e_exponent(x.quiver, x.vertex):
            return None
        return IndecLabel(x.quiver, x.vertex, x.power + 1)
    raise InternalCheckError(f"cannot translate {x!r}")


# ---------------------------------------------------------------------------
# graded hom spaces


def derived_hom(x, y) -> GradedDim:
    """Graded hom between two stalk labels: entry d is dim Hom(x, Sigma^d y).

    Between normalized stalks the answer is concentrated in the single
    degree determined by the relative suspension.
    """
    a, b = as_derived_label(x), as_derived_label(y)
    if a.quiver is not b.quiver and a.quiver != b.quiver:
        raise InternalCheckError("labels live on different quivers")
    q = a.quiver
    rel = normalize_label(q, b.vertex, b.power - a.power, b.shift - a.shift)
    f = _hom_table(q, a.vertex)[rel.vertex][rel.power]
    if f == 0:
        return ZERO
    return GradedDim({-rel.shift: f})


_PI_CAP_FACTOR = 8  # hard cap on orbit walks, in Coxeter numbers


def pi2_hom(x, y, min_degree: int = 0) -> GradedDim:
    """Graded hom from x into the non-negative tauinv orbit of y, summed over
    all p >= 0 and truncated below min_degree.

    The contribution of step p sits in a single degree which is
    non-increasing in p, so the walk stops at the first step below the
    floor.
    """
    a, b = as_derived_label(x), as_derived_label(y)
    q = a.quiver
    cap = _PI_CAP_FACTOR * coxeter_number(q.dtype) + 8
    entries: list[tuple[int, int]] = []
    for p in range(cap + 1):
        rel = normalize_label(q, b.vertex, b.power + p - a.power, b.shift - a.shift)
        deg = -rel.shift
        if deg < min_degree:
            break
        f = _hom_table(q, a.vertex)[rel.vertex][rel.power]
        if f:
            entries.append((deg, f))
    else:
        raise InternalCheckError("orbit walk failed to leave the degree window")
    return GradedDim(entries)


def one_cluster_hom(x, y) -> int:
    """Total degree-0 hom from x into the full two-sided tauinv orbit of y."""
    a, b = as_derived_label(x), as_derived_label(y)
    q = a.quiver
    cap = _PI_CAP_FACTOR * coxeter_number(q.dtype) + 8
    total = 0

    def walk(step: int) -> int:
        acc = 0
        for t in range(cap + 1):
            p = step * (t + (1 if step < 0 else 0))
            rel = normalize_label(q, b.vertex, b.power + p - a.power, b.shift - a.shift)
            deg = -rel.shift
            if (step > 0 and deg < 0) or (step < 0 and deg > 0):
                return acc
            if deg == 0:
                acc += _hom_table(q, a.vertex)[rel.vertex][rel.power]
        raise InternalCheckError("orbit walk failed to leave the degree window")

    total += walk(+1)   # p = 0, 1, 2, ...
    total += walk(-1)   # p = -1, -2, ...
    return total


def hom_dim(m, n) -> int:
    """Module-category hom dimension; accepts stalk labels or representations."""
    if isinstance(m, (reps.Rep,)) or isinstance(n, (reps.Rep,)):
        return reps.hom_dim(m, n)
    g = derived_hom(m, n)
    return g[0]


def ext1_dim(m, n) -> int:
    """Module-category first extension dimension via labels or representations."""
    if isinstance(m, (reps.Rep,)) or isinstance(n, (reps.Rep,)):
        return reps.ext1_dim(m, n)
    a, b = as_derived_label(m), as_derived_label(n)
    if a.shift or b.shift:
        raise InternalCheckError("ext of shifted stalks: use derived_hom")
    g = derived_hom(a, sigma(b, 1))
    return g[0]
