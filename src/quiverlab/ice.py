"""Ice quiver with potential attached to the morphism category.

The vertex set is the AR quiver of the morphism category; a vertex is
frozen when its label lies in the image of the three projective
embeddings (the whole identity and kill families, plus the trivial
presentations of the projectives).  On top of the AR arrows, each mesh
contributes one reverse arrow, and each quiver arrow contributes a
reverse arrow between identity objects, whose embedded image is a
composite rather than an arrow.  The potential has one cyclic term per
mesh, running through the reverse arrow.
"""
from __future__ import annotations

import functools
import json
from typing import NamedTuple

from .dynkin import Quiver
from .errors import GuardError, InternalCheckError
from .morphcat import MprLabel, mpr_ar_quiver, mpr_number


class IceArrow(NamedTuple):
    src: int
    dst: int
    origin: str   # "AR" | "mesh-reverse" | "rule2-frozen"
    frozen: bool


class PotentialTerm(NamedTuple):
    """One cycle per mesh: rho * sum_i alpha_i beta_i, stored as the
    reverse arrow and the ordered (incoming, outgoing) arrow pairs."""

    rho: tuple[int, int]
    pairs: tuple[tuple[tuple[int, int], tuple[int, int]], ...]


class IceQuiver(NamedTuple):
    quiver: Quiver
    vertices: tuple[MprLabel, ...]
    frozen: tuple[bool, ...]
    arrows: tuple[IceArrow, ...]
    potential: tuple[PotentialTerm, ...]

    def frozen_ids(self) -> tuple[int, ...]:
        """The 1-based ids of the frozen vertices; public API of `IceQuiver`."""
        return tuple(i + 1 for i, f in enumerate(self.frozen) if f)

    def arrow_pairs(self, origin: str | None = None, frozen: bool | None = None):
        """(source, target) of each arrow of the given origin and frozenness;
        public API of `IceQuiver`."""
        return tuple(
            (a.src, a.dst)
            for a in self.arrows
            if (origin is None or a.origin == origin) and (frozen is None or a.frozen == frozen)
        )

    def to_json(self) -> dict:
        verts = []
        for i, (lab, fr) in enumerate(zip(self.vertices, self.frozen)):
            d = {"id": i + 1, "kind": lab.kind, "vertex": lab.vertex, "frozen": fr}
            if lab.kind == "mod":
                d["power"] = lab.power
            verts.append(d)
        return {
            "type": str(self.quiver.dtype),
            "quiver_arrows": [list(a) for a in self.quiver.arrows],
            "vertices": verts,
            "arrows": [
                {"src": a.src, "dst": a.dst, "origin": a.origin, "frozen": a.frozen}
                for a in self.arrows
            ],
            "potential": [
                {"rho": list(t.rho), "pairs": [[list(p[0]), list(p[1])] for p in t.pairs]}
                for t in self.potential
            ],
        }

    def to_dot(self) -> str:
        lines = ["digraph ice {", "  rankdir=LR;"]
        for i, (lab, fr) in enumerate(zip(self.vertices, self.frozen)):
            shape = "box" if fr else "ellipse"
            lines.append(f'  n{i + 1} [label="{i + 1}: {lab}", shape={shape}];')
        for a in self.arrows:
            style = "dashed" if a.frozen else "solid"
            lines.append(f"  n{a.src} -> n{a.dst} [style={style}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


@functools.cache
def build_ice_quiver(q: Quiver) -> IceQuiver:
    ar = mpr_ar_quiver(q)
    num = mpr_number(q)
    frozen = tuple(lab.kind != "mod" or lab.power == 0 for lab in ar.vertices)

    def dz(v: int) -> int:
        return num[MprLabel(q, "dzero", v)]

    def mod0(v: int) -> int:
        return num[MprLabel(q, "mod", v, 0)]

    def done(v: int) -> int:
        return num[MprLabel(q, "done", v)]

    # frozen arrows: images of the quiver arrows under the three embeddings;
    # the identity-family image is a composite, so it enters reversed.
    lineage = set()
    rule2 = []
    for (i, j) in q.arrows:
        lineage.add((mod0(i), mod0(j)))
        lineage.add((done(i), done(j)))
        rule2.append((dz(j), dz(i)))
    missing = lineage - set(ar.arrows)
    if missing:
        raise InternalCheckError(f"embedded quiver arrows missing from the AR quiver: {missing}")

    arrows = [IceArrow(a, b, "AR", (a, b) in lineage) for a, b in ar.arrows]
    reverse = {}
    for mesh in ar.meshes:
        arrows.append(IceArrow(mesh.target, mesh.tau_target, "mesh-reverse", False))
        reverse[mesh.target] = (mesh.target, mesh.tau_target)
    for (a, b) in sorted(rule2):
        arrows.append(IceArrow(a, b, "rule2-frozen", True))

    potential = tuple(
        PotentialTerm(
            rho=reverse[mesh.target],
            pairs=tuple(((mesh.tau_target, m), (m, mesh.target)) for m in mesh.middles),
        )
        for mesh in ar.meshes
    )
    n_frozen_arrows = sum(1 for a in arrows if a.frozen)
    if n_frozen_arrows != 3 * len(q.arrows):
        raise InternalCheckError("frozen arrow count is off")
    return IceQuiver(q, ar.vertices, frozen, tuple(arrows), potential)


def mutable_part(ice: IceQuiver) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Restriction to the unfrozen vertices: ids and the arrows among them."""
    keep = {i + 1 for i, f in enumerate(ice.frozen) if not f}
    sub = tuple((a.src, a.dst) for a in ice.arrows if a.src in keep and a.dst in keep)
    return tuple(sorted(keep)), sub


def ice_from_json(data: dict) -> IceQuiver:
    """The inverse of the JSON export, kept so that the export is shown to
    be lossless by a round trip."""
    from .dynkin import build_quiver

    q = build_quiver(data["type"], [tuple(a) for a in data["quiver_arrows"]])
    vertices = []
    frozen = []
    for v in data["vertices"]:
        if v["kind"] == "mod":
            vertices.append(MprLabel(q, "mod", v["vertex"], v["power"]))
        else:
            vertices.append(MprLabel(q, v["kind"], v["vertex"]))
        frozen.append(bool(v["frozen"]))
    arrows = tuple(
        IceArrow(a["src"], a["dst"], a["origin"], bool(a["frozen"])) for a in data["arrows"]
    )
    potential = tuple(
        PotentialTerm(
            rho=tuple(t["rho"]),
            pairs=tuple((tuple(p[0]), tuple(p[1])) for p in t["pairs"]),
        )
        for t in data["potential"]
    )
    return IceQuiver(q, tuple(vertices), tuple(frozen), arrows, potential)


def export_ice(ice: IceQuiver, fmt: str = "dot") -> str:
    if fmt == "dot":
        return ice.to_dot()
    if fmt == "json":
        return json.dumps(ice.to_json(), indent=2) + "\n"
    raise GuardError(f"unknown ice export format {fmt!r}")
