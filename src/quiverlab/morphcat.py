"""The morphism category of projectives over a tree quiver.

Objects are maps between sums of projectives.  Indecomposables come in
three families: minimal presentations of modules (including the trivial
presentations 0 -> P of the projectives themselves), the identity objects
P -> P, and the kill objects P -> 0.  The category carries an AR structure
whose translation quiver is knitted here, together with the three
embeddings of the projectives (one per family), the two term-extraction
functors, the cone, and the label-level action of the power functor
(inverse-translate conjugate) with its half-integer bookkeeping objects.

The labels, the numbering and the knitted translation quiver are plain
integers.  Its mesh check (dimension additivity of the terms P1 and P0)
reads the terms from `stalks.presentation_terms`, which knits them from
dim Hom(M, S_w) and dim Ext^1(M, S_w); Z(v) is (v) -> (v) and E(v) is
(v) -> ().  So `mpr_ar_quiver` and the ice quiver built on it load no
matrix layer: `_kernels` and `complexes` are imported only inside the
functions that need them.  The rotation omega of the frozen labels (kill
-> identity -> trivial presentation -> kill at the involuted vertex) is
label arithmetic too, and so are the terms of `f_presentation` and the
cone of a label.

An `MprObject` holds its scalar matrix as int tuples.  The identity and
kill objects and the projectives P_v have trivial presentations, read off
the knitted terms.  The presentation of the module
tauinv^k P_v for k > 0 is entry k of the memoized orbit
`complexes.tau_inv_orbit`: the complex functor iterated on P_v and
minimized, never a matrix representation.  Its sorted terms must equal
the knitted ones, so each presentation built cross-checks the two
routes.  Its basis may differ from that of `reps.min_presentation`, the
dual of the module's minimal injective copresentation over the opposite
quiver (same terms, other scalars); the two are isomorphic, and the matrix
route stays the test oracle.
"""
from __future__ import annotations

import functools
import math
from collections import Counter
from typing import NamedTuple

from . import stalks
from .dynkin import Quiver
from .errors import GuardError, InternalCheckError
from .stalks import DerivedLabel, IndecLabel, e_exponent


class _MprLabelFields(NamedTuple):
    quiver: Quiver
    kind: str
    vertex: int
    power: int = 0


class MprLabel(_MprLabelFields):
    """Indecomposable of the morphism category.

    kind "mod": the minimal presentation of tauinv^power P_vertex;
    kind "dzero": the identity object at vertex; kind "done": the kill
    object at vertex (power is 0 for the latter two).
    """

    __slots__ = ()

    def __new__(cls, quiver: Quiver, kind: str, vertex: int, power: int = 0) -> "MprLabel":
        if kind not in ("mod", "dzero", "done"):
            raise GuardError(f"unknown morphism-object kind {kind!r}")
        if kind != "mod" and power != 0:
            raise GuardError("identity and kill objects carry no power")
        return super().__new__(cls, quiver, kind, vertex, power)

    @classmethod
    def _make(cls, iterable) -> "MprLabel":
        # through __new__, so `_make` and `_replace` check the fields too
        return cls(*iterable)

    def __str__(self) -> str:
        if self.kind == "mod":
            return f"M({IndecLabel(self.quiver, self.vertex, self.power)})"
        return ("Z(%d)" if self.kind == "dzero" else "E(%d)") % self.vertex

    def module_label(self) -> IndecLabel:
        if self.kind != "mod":
            raise GuardError(f"{self} does not present a module")
        return IndecLabel(self.quiver, self.vertex, self.power)


class MprObject:
    """A morphism between sums of projectives, in scalar path coordinates.

    `mat` is a tuple of int rows, read-only: the objects behind labels are
    shared through a memo.
    """

    def __init__(self, quiver: Quiver, p1, p0, mat):
        from ._kernels import P

        self.quiver = quiver
        self.p1 = tuple(int(v) for v in p1)
        self.p0 = tuple(int(v) for v in p0)
        self.mat = tuple(tuple(int(x) % P for x in row) for row in mat)
        if len(self.mat) != len(self.p0) or any(len(row) != len(self.p1) for row in self.mat):
            raise InternalCheckError("presentation matrix does not match its terms")
        for u, row in zip(self.p0, self.mat):
            if any(x and not quiver.has_path(v, u) for v, x in zip(self.p1, row)):
                raise InternalCheckError("presentation matrix has entries outside hom spaces")

    def as_pcpx(self):
        """The object as a `complexes.PCpx` in degrees (-1, 0)."""
        from . import complexes as cx

        return cx.PCpx(self.quiver, {-1: self.p1, 0: self.p0}, {-1: self.mat}).validate()

    def __repr__(self) -> str:
        return f"MprObject({list(self.p1)} -> {list(self.p0)})"


# ---------------------------------------------------------------------------
# labels, windows, numbering


def window(q: Quiver, i: int, k: int) -> MprLabel:
    """Slot (i, k) of the knitting plan: presentations inside the orbit,
    the kill object of the involuted vertex at the far edge."""
    e = e_exponent(q, i)
    if not 0 <= k <= e:
        raise InternalCheckError(f"slot ({i}, {k}) outside the window of vertex {i}")
    if k < e:
        return MprLabel(q, "mod", i, k)
    return MprLabel(q, "done", stalks._defect_data(q)[2][i])


def _slot(label: MprLabel) -> tuple[int, int]:
    q = label.quiver
    if label.kind == "mod":
        return label.vertex, label.power
    if label.kind == "done":
        i = stalks._defect_data(q)[2][label.vertex]
        return i, e_exponent(q, i)
    raise InternalCheckError("identity objects have no slot")


def _number_key(label: MprLabel) -> tuple[int, int]:
    q = label.quiver
    if label.kind == "dzero":
        simple = stalks._module_window(q)[2][label.vertex]
        return (2 * simple.power + 1, simple.vertex)
    i, k = _slot(label)
    return (2 * k, i)


@functools.cache
def mpr_indecomposables(q: Quiver) -> tuple[MprLabel, ...]:
    """All indecomposables, in the canonical numbering order (1-based ids
    are positions in this tuple plus one)."""
    labels = []
    for i in q.vertices:
        for k in range(e_exponent(q, i)):
            labels.append(MprLabel(q, "mod", i, k))
        labels.append(MprLabel(q, "dzero", i))
        labels.append(MprLabel(q, "done", i))
    expected = q.dtype.positive_root_count() + 2 * q.rank
    if len(labels) != expected:
        raise InternalCheckError("morphism-category label count is off")
    return tuple(sorted(labels, key=_number_key))


def mpr_number(q: Quiver) -> dict[MprLabel, int]:
    return {lab: i + 1 for i, lab in enumerate(mpr_indecomposables(q))}


def label_by_number(q: Quiver, n: int) -> MprLabel:
    labels = mpr_indecomposables(q)
    if not 1 <= n <= len(labels):
        raise GuardError(f"object number {n} out of range 1..{len(labels)}")
    return labels[n - 1]


# ---------------------------------------------------------------------------
# presentations, functors


def presentation(x) -> MprObject:
    """The object behind a label: minimal presentation for the module
    family, identity and kill maps for the other two."""
    if isinstance(x, MprObject):
        return x
    if not isinstance(x, MprLabel):
        raise InternalCheckError(f"cannot interpret {x!r} as a morphism-category object")
    return _label_presentation(x)


def _terms(x: MprLabel) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sorted vertex labels (p1, p0) of the terms P1 -> P0 of the object
    behind a label, knitted in integers."""
    if x.kind == "dzero":
        return (x.vertex,), (x.vertex,)
    if x.kind == "done":
        return (x.vertex,), ()
    terms = stalks.presentation_terms(x.quiver).get(x.module_label())
    if terms is None:
        raise InternalCheckError(f"{x.module_label()} is not a valid indecomposable label")
    return terms


@functools.cache
def _label_presentation(x: MprLabel) -> MprObject:
    q = x.quiver
    if x.kind != "mod" or x.power == 0:
        # Z(v) is the identity (v) -> (v), E(v) the map (v) -> () and P_v
        # the map () -> (v): each reads off its knitted terms
        p1, p0 = _terms(x)
        return MprObject(q, p1, p0, [[1] * len(p1)] * len(p0))
    if not 0 < x.power < e_exponent(q, x.vertex):
        raise InternalCheckError(f"{x.module_label()} is not a valid indecomposable label")
    from . import complexes as cx

    C = cx.tau_inv_orbit(q, x.vertex, x.power)
    if set(C.degrees()) - {-1, 0}:
        raise InternalCheckError(f"orbit complex of {x} is not a two-term presentation")
    if (tuple(sorted(C.term(-1))), tuple(sorted(C.term(0)))) != _terms(x):
        raise InternalCheckError(f"orbit complex of {x} has other terms than the knitted presentation")
    return MprObject(q, C.term(-1), C.term(0), C.diff(-1))


def functor_D(i: int, p) -> MprLabel:
    """The three embeddings of projectives: i=-1 the module family,
    i=0 the identity family, i=1 the kill family."""
    if isinstance(p, IndecLabel):
        if p.power != 0:
            raise GuardError("the embeddings are defined on projective labels")
        q, v = p.quiver, p.vertex
    else:
        raise GuardError("pass a projective label (vertex, power 0)")
    if i == -1:
        return MprLabel(q, "mod", v, 0)
    if i == 0:
        return MprLabel(q, "dzero", v)
    if i == 1:
        return MprLabel(q, "done", v)
    raise GuardError(f"embedding index must be -1, 0 or 1, got {i}")


def functor_C(i: int, x) -> tuple[int, ...]:
    """Term extraction: i=0 the target term, i=1 the source term, as a
    multiset of projective vertex labels."""
    obj = presentation(x)
    if i == 0:
        return obj.p0
    if i == 1:
        return obj.p1
    raise GuardError(f"term index must be 0 or 1, got {i}")


def cone(x) -> list[DerivedLabel]:
    """Class of the two-term complex behind the object, split into stalk
    summands of the derived category.  An object is split as a matrix; a
    label's class is label arithmetic: a minimal presentation is injective,
    so its cone is the module tauinv^k P_v, the identity object Z(v) is
    contractible, and the kill object E(v) is P_v in degree -1."""
    if not isinstance(x, MprLabel):
        from . import complexes as cx

        return cx.split_complex(presentation(x).as_pcpx())
    q = x.quiver
    if x.kind == "dzero":
        return []
    if x.kind == "done":
        return [DerivedLabel(q, x.vertex, 0, 1)]
    if not 0 <= x.power < e_exponent(q, x.vertex):
        raise InternalCheckError(f"{x.module_label()} is not a valid indecomposable label")
    return [DerivedLabel(q, x.vertex, x.power, 0)]


def hom_dim_mpr(x, y) -> int:
    """Dimension of the space of commuting squares between two objects: the
    degree-0 cycles of the hom complex between their presentations."""
    from . import _kernels as K
    from . import complexes as cx

    bases, diffs = cx._hom_bases(presentation(x).as_pcpx(), presentation(y).as_pcpx())
    if 0 not in bases:
        return 0
    return len(bases[0]) - K.rank(diffs[0])


# ---------------------------------------------------------------------------
# the AR structure


class Mesh(NamedTuple):
    target: int       # id of the translated vertex V
    tau_target: int   # id of tau V
    middles: tuple[int, ...]


class MprARQuiver(NamedTuple):
    quiver: Quiver
    vertices: tuple[MprLabel, ...]
    arrows: tuple[tuple[int, int], ...]          # 1-based ids
    tau_pairs: tuple[tuple[int, int], ...]       # (x, tau x)
    meshes: tuple[Mesh, ...]

    def to_json(self) -> dict:
        def lab(l: MprLabel):
            d = {"kind": l.kind, "vertex": l.vertex}
            if l.kind == "mod":
                d["power"] = l.power
            return d

        return {
            "type": str(self.quiver.dtype),
            "vertices": [{"id": i + 1, **lab(l)} for i, l in enumerate(self.vertices)],
            "arrows": [list(a) for a in self.arrows],
            "tau": [list(t) for t in self.tau_pairs],
            "meshes": [
                {"target": m.target, "tau_target": m.tau_target, "middles": list(m.middles)}
                for m in self.meshes
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph mpr {", "  rankdir=LR;"]
        for i, l in enumerate(self.vertices):
            lines.append(f'  n{i + 1} [label="{i + 1}: {l}"];')
        for a, b in self.arrows:
            lines.append(f"  n{a} -> n{b};")
        for a, b in self.tau_pairs:
            lines.append(f"  n{a} -> n{b} [style=dashed, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


@functools.cache
def mpr_ar_quiver(q: Quiver) -> MprARQuiver:
    """Knit the translation quiver: one mesh per translated vertex, with
    middle terms given by the neighbouring slots plus the identity object
    of a simple when the translate sits at its orbit position."""
    labels = mpr_indecomposables(q)
    num = {lab: i + 1 for i, lab in enumerate(labels)}
    dz_at: dict[tuple[int, int], MprLabel] = {}
    for m, simple in stalks._module_window(q)[2].items():
        dz_at[simple.vertex, simple.power] = MprLabel(q, "dzero", m)
    arrows: set[tuple[int, int]] = set()
    tau_pairs: list[tuple[int, int]] = []
    meshes: list[Mesh] = []
    for i in q.vertices:
        for k in range(1, e_exponent(q, i) + 1):
            V = window(q, i, k)
            tV = window(q, i, k - 1)
            tau_pairs.append((num[V], num[tV]))
            middles: list[MprLabel] = []
            for (j, _) in q.arrows_into(i):
                if k <= e_exponent(q, j):
                    middles.append(window(q, j, k))
            for (_, j) in q.arrows_from(i):
                if k - 1 <= e_exponent(q, j):
                    middles.append(window(q, j, k - 1))
            if (i, k - 1) in dz_at:
                middles.append(dz_at[(i, k - 1)])
            mids = tuple(sorted(num[m] for m in middles))
            for m in mids:
                arrows.add((num[tV], m))
                arrows.add((m, num[V]))
            meshes.append(Mesh(num[V], num[tV], mids))
    # mesh additivity of the dimension vectors of the terms (P1, P0)
    window_dims = stalks._module_window(q)[0]
    proj = [window_dims[IndecLabel(q, v, 0)] for v in q.vertices]

    def dims(terms) -> list[int]:
        return [sum(proj[v - 1][w] for v in terms) for w in range(q.rank)]

    pairs = {num[lab]: [dims(t) for t in _terms(lab)] for lab in labels}
    for mesh in meshes:
        for part in (0, 1):
            ends = [a + b for a, b in zip(pairs[mesh.target][part], pairs[mesh.tau_target][part])]
            if ends != [sum(pairs[m][part][w] for m in mesh.middles) for w in range(q.rank)]:
                raise InternalCheckError("mesh fails dimension additivity")
    return MprARQuiver(
        q,
        labels,
        tuple(sorted(arrows)),
        tuple(sorted(tau_pairs)),
        tuple(sorted(meshes, key=lambda m: m.target)),
    )


def tau_mpr(x: MprLabel) -> MprLabel | None:
    """AR translate on labels: slides down the window, vanishing on the
    projective slice; identity objects are projective-injective."""
    if x.kind == "dzero":
        return None
    i, k = _slot(x)
    if k == 0:
        return None
    return window(x.quiver, i, k - 1)


# ---------------------------------------------------------------------------
# the power functor on labels


class MprQuotientLabel(NamedTuple):
    """State of the power-functor walk: family lineage, orbit position and
    accumulated suspension, taken in the quotient by the identity family."""

    quiver: Quiver
    family: str  # "mod" | "dzero" | "done"
    vertex: int
    power: int
    shift: int

    def __str__(self) -> str:
        tag = {"mod": "M", "dzero": "Z", "done": "E"}[self.family]
        base = f"{tag}({self.vertex},{self.power})"
        return base if self.shift == 0 else f"S^{self.shift}{base}"

    def label(self) -> MprLabel:
        if self.shift != 0 or (self.family != "mod" and self.power != 0):
            raise GuardError(f"{self} is not an honest indecomposable label")
        if self.family == "mod":
            return MprLabel(self.quiver, "mod", self.vertex, self.power)
        return MprLabel(self.quiver, self.family, self.vertex)


def f_power_label(x, p: int) -> MprQuotientLabel:
    """Apply the power functor p times to a label, in the quotient by the
    identity family.  The module lineage crosses into the kill lineage at
    the window edge without picking up a suspension; past that crossing,
    and in the other two lineages, the walk is the tauinv orbit of stalk
    labels, suspending once per full window, so it is normalized in
    closed form."""
    if isinstance(x, MprLabel):
        state = MprQuotientLabel(x.quiver, x.kind, x.vertex, x.power, 0)
    elif isinstance(x, MprQuotientLabel):
        state = x
    else:
        raise GuardError(f"cannot walk {x!r}")
    if p < 0:
        raise GuardError("the power functor walk runs forward only")
    q, fam, v, k, s = state
    _, exponents, star = stalks._defect_data(q)
    # every state this walk returns passes the check, so a walk can resume
    if fam not in ("mod", "dzero", "done") or v not in exponents or not 0 <= k < exponents[v]:
        raise GuardError(f"not a state of the power functor walk: {fam!r}, vertex {v}, power {k}")
    k += p
    if fam == "mod" and k >= exponents[v]:
        fam, v, k = "done", star[v], k - exponents[v]
    return MprQuotientLabel(q, fam, *stalks._normalize_raw(exponents, star, v, k, s))


def f_presentation(x: MprLabel) -> tuple[tuple[MprLabel, ...], tuple[MprLabel, ...]]:
    """Presentation of the power-functor image of a label by objects of the
    two projective families: a pair (source summands, target summands).

    For the identity and kill families the functor acts termwise through
    the derived inverse translate of the underlying projective.  For the
    module family the target is the window successor and the source
    collects identity objects accounting for the mismatch between the
    successor's source term and the translated source term.

    The derived inverse translate of P_v is [I0 -> I1] transported to
    projectives, with I_w occurring dim Hom(S_w, P_v) times in I0 and
    dim Ext^1(S_w, P_v) times in I1; both counts are knitted in integers.
    """
    q = x.quiver
    simple = stalks._module_window(q)[2]

    def terms(v: int, count) -> tuple[int, ...]:
        return tuple(w for w in q.vertices for _ in range(count(simple[w], IndecLabel(q, v, 0))))

    if x.kind in ("dzero", "done"):
        mk = "dzero" if x.kind == "dzero" else "done"
        u1 = tuple(MprLabel(q, mk, v) for v in terms(x.vertex, stalks.hom_dim))
        u0 = tuple(MprLabel(q, mk, v) for v in terms(x.vertex, stalks.ext1_dim))
        return u1, u0
    i, k = _slot(x)
    succ = window(q, i, k + 1)
    x1 = _terms(x)[0]
    pres_m1 = Counter(s for u in x1 for s in terms(u, stalks.hom_dim))
    pres_0 = Counter(w for u in x1 for w in terms(u, stalks.ext1_dim))
    diff = Counter(_terms(succ)[0])
    diff.subtract(pres_0)
    if any(c < 0 for c in diff.values()):
        raise InternalCheckError("successor source term does not dominate the translated one")
    v_counts = pres_m1 + diff
    u1 = tuple(MprLabel(q, "dzero", v) for v in sorted(v_counts.elements()))
    return u1, (succ,)


# ---------------------------------------------------------------------------
# the rotation on frozen labels


def omega_action(label: MprLabel) -> MprLabel:
    """Rotation of the frozen labels: kill -> identity -> trivial
    presentation -> kill at the involuted vertex."""
    q = label.quiver
    if label.kind == "done":
        return MprLabel(q, "dzero", label.vertex)
    if label.kind == "dzero":
        return MprLabel(q, "mod", label.vertex, 0)
    if label.kind == "mod" and label.power == 0:
        return MprLabel(q, "done", stalks._defect_data(q)[2][label.vertex])
    raise GuardError(f"{label} is not frozen; the rotation acts on frozen labels only")


def omega_orbit(label: MprLabel) -> list[MprLabel]:
    orbit = [label]
    cur = omega_action(label)
    while cur != label:
        orbit.append(cur)
        cur = omega_action(cur)
    return orbit


def omega_order(q: Quiver) -> int:
    order = 1
    for v in q.vertices:
        for kind in ("mod", "dzero", "done"):
            order = math.lcm(order, len(omega_orbit(MprLabel(q, kind, v))))
    return order
