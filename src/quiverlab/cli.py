"""Command-line front end and result cache.

One subcommand per construction: the underlying quiver, the two
translation quivers, the decorated quiver with potential, the graded hom
tables, the projective-presentation calculus over the loop algebra, and
the braid-word toolkit.  Output is deterministic for a fixed job, so a
content digest of the canonicalized job doubles as a cache key; cached
artifacts are replayed byte for byte.

A cache hit needs only the job and the stored entry, so this module loads
nothing at import time beyond the standard library, `errors` and `dynkin`
(the parsers and serializers of quivers).  Each renderer imports the
layers it uses.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
from typing import TYPE_CHECKING

from .dynkin import (
    build_quiver,
    quiver_from_json,
    quiver_from_text,
    quiver_to_dot,
    quiver_to_json,
    quiver_to_text,
)
from .errors import GuardError, InternalCheckError

if TYPE_CHECKING:
    from . import higgs

CACHE_VERSION = 1
CACHE_ENV = "QUIVERLAB_CACHE_DIR"


@dataclasses.dataclass
class JobSpec:
    """A fully parsed request: one command over one quiver source."""

    command: str
    dtype: str | None
    arrows: tuple[tuple[int, int], ...] | None
    fmt: str
    options: dict
    cache_dir: str | None = None

    def quiver(self):
        if self.dtype is None:
            raise GuardError("no quiver given (use --type, optionally --orient, or --file)")
        return build_quiver(self.dtype, list(self.arrows) if self.arrows is not None else None)


@functools.cache
def source_digest() -> str:
    """sha256 over the names and bytes of the package's `.py` sources, so that
    a cache entry written by other code is never replayed."""
    h = hashlib.sha256()
    pkg = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(b"%s\0%d\0" % (name.encode("utf-8"), os.fstat(fh.fileno()).st_size))
                h.update(fh.read())
    return h.hexdigest()


def _canonical(job: JobSpec) -> dict:
    # cache_dir deliberately excluded: it locates the cache, it is not input
    return {
        "version": CACHE_VERSION,
        "code": source_digest(),
        "command": job.command,
        "type": job.dtype,
        "arrows": sorted(list(a) for a in job.arrows) if job.arrows is not None else None,
        "format": job.fmt,
        "options": job.options,
    }


def cache_key(job: JobSpec) -> str:
    blob = json.dumps(_canonical(job), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run(job: JobSpec, out=None) -> int:
    out = sys.stdout if out is None else out
    path = None
    if job.cache_dir:
        key = cache_key(job)
        path = os.path.join(job.cache_dir, key + ".json")
        stored = _read_entry(path)
        if stored is not None:
            out.write(stored)
            return 0
    text = _render(job)
    if path is not None:
        try:
            _write_entry(job, path, text)
        except OSError as exc:
            # the artifact is still exact; only its replay is lost
            print(f"warning: cache entry not written: {exc}", file=sys.stderr)
    out.write(text)
    return 0


def _write_entry(job: JobSpec, path: str, text: str) -> None:
    """Store `text` at `path` atomically, through a temporary file."""
    import tempfile

    os.makedirs(job.cache_dir, exist_ok=True)
    payload = {"version": CACHE_VERSION, "job": _canonical(job), "output": text}
    fd, tmp = tempfile.mkstemp(dir=job.cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    except BaseException:
        os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _read_entry(path: str) -> str | None:
    """The output stored at `path`, or None on a miss.  An unreadable or
    malformed entry is a miss too: the caller recomputes and rewrites it."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(stored, dict) or stored.get("version") != CACHE_VERSION:
        return None
    output = stored.get("output")
    return output if isinstance(output, str) else None


# ---------------------------------------------------------------------------
# renderers


def _json_text(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _render(job: JobSpec) -> str:
    return _RENDERERS[job.command](job)


def _render_quiver(job: JobSpec) -> str:
    q = job.quiver()
    if job.fmt == "text":
        return quiver_to_text(q)
    if job.fmt == "dot":
        return quiver_to_dot(q)
    return _json_text(quiver_to_json(q))


def _render_ar(job: JobSpec) -> str:
    from .stalks import knit_ar_quiver

    ar = knit_ar_quiver(job.quiver())
    if job.fmt == "json":
        return _json_text(ar.to_json())
    if job.fmt == "dot":
        return ar.to_dot()
    lines = ["vertices: " + " ".join(str(l) for l in ar.vertices)]
    lines.append("arrows:   " + " ".join(f"{a}->{b}" for a, b in ar.arrows))
    lines.append("translate:" + " ".join(f" {a}=>{b}" for a, b in ar.tau_pairs))
    return "\n".join(lines) + "\n"


def _render_mpr(job: JobSpec) -> str:
    from . import morphcat as mp

    ar = mp.mpr_ar_quiver(job.quiver())
    if job.fmt == "json":
        return _json_text(ar.to_json())
    if job.fmt == "dot":
        return ar.to_dot()
    lines = []
    for i, lab in enumerate(ar.vertices):
        lines.append(f"{i + 1:3d}: {lab}")
    lines.append("arrows:   " + " ".join(f"{a}->{b}" for a, b in ar.arrows))
    lines.append("translate:" + " ".join(f" {a}=>{b}" for a, b in ar.tau_pairs))
    for m in ar.meshes:
        mid = " ".join(str(x) for x in m.middles)
        lines.append(f"mesh {m.target}: {m.tau_target} -> [{mid}] -> {m.target}")
    return "\n".join(lines) + "\n"


def _render_ice(job: JobSpec) -> str:
    from .ice import build_ice_quiver, export_ice

    return export_ice(build_ice_quiver(job.quiver()), job.fmt)


def _render_hom(job: JobSpec) -> str:
    from . import boundary
    from .stalks import IndecLabel

    q = job.quiver()
    if job.options["mode"] == "table":
        return boundary.export_hom_table(boundary.hom_table(q), job.fmt)
    keys = boundary.table_keys(q)
    i, j = job.options["pair"]
    if not (1 <= i <= len(keys) and 1 <= j <= len(keys)):
        raise GuardError(f"pair indices must lie in 1..{len(keys)}")
    (ei, u), (ej, v) = keys[i - 1], keys[j - 1]
    g = boundary.thm1_hom(ei, IndecLabel(q, u, 0), ej, IndecLabel(q, v, 0))
    name = lambda e, w: f"D{e}P{w}"
    if job.fmt == "json":
        return _json_text(
            {
                "source": name(ei, u),
                "target": name(ej, v),
                "dims": {str(d): n for d, n in g},
            }
        )
    lines = [f"{name(ei, u)} -> {name(ej, v)}"]
    lines.extend(f"{d}\t{n}" for d, n in g)
    return "\n".join(lines) + "\n"


def _label_json(num: dict, lab) -> dict:
    return {"id": num[lab], "label": str(lab)}


def _check_vertex(q, v: int) -> None:
    if v not in q.vertices:
        raise GuardError(f"no vertex {v} in {q.dtype} (vertices 1..{q.rank})")


def _path_vector(alg, path: str, start: int, end: int) -> dict[int, int]:
    """Element of the loop algebra given as a dash-separated vertex walk,
    which must run from `start` to `end`."""
    try:
        seq = [int(t) for t in path.split("-")]
    except ValueError:
        raise GuardError(f"bad path {path!r} (expected e.g. '1-2-1')") from None
    for v in seq:
        _check_vertex(alg.quiver, v)
    if (seq[0], seq[-1]) != (start, end):
        raise GuardError(f"path {path!r} does not run from vertex {start} to vertex {end}")
    return alg.walk(seq)


def _entry_vector(alg, entry, start: int, end: int) -> dict[int, int]:
    """A lift-spec entry as a sparse element; `LambdaMorphism` reduces it."""
    if not isinstance(entry, list) or entry and isinstance(entry[0], str):
        entry = [entry]
    vec: dict[int, int] = {}
    for pair in entry:
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and type(pair[1]) is int):
            raise GuardError(f"bad entry term {pair!r} (expected [path, coefficient])")
        path, coeff = pair
        for k, c in _path_vector(alg, path, start, end).items():
            vec[k] = vec.get(k, 0) + coeff * c
    return vec


def _morphism_json(f: higgs.LambdaMorphism) -> dict:
    # each entry lists its terms in increasing basis index
    return {
        "p1": list(f.p1),
        "p0": list(f.p0),
        "matrix": [[[[f.alg.path_string(k), c] for k, c in terms] for terms in row]
                   for row in f.entries],
    }


def _render_higgs(job: JobSpec) -> str:
    from . import morphcat as mp

    q = job.quiver()
    num = mp.mpr_number(q)
    op = job.options["op"]
    if op == "omega-orbit":
        # label arithmetic: answered before the algebra loads
        orbit = mp.omega_orbit(mp.label_by_number(q, job.options["label"]))
        return _json_text(
            {"orbit": [_label_json(num, l) for l in orbit], "order": len(orbit)}
        )
    from . import higgs

    if op == "phi":
        lab = mp.label_by_number(q, job.options["label"])
        f = higgs.phi_image(lab)
        return _json_text({"label": _label_json(num, lab), **_morphism_json(f)})
    spec = job.options["spec"]
    if not isinstance(spec, dict):
        raise GuardError("lift spec must be a JSON object {p1, p0, matrix}")
    for field in ("p1", "p0", "matrix"):
        if field not in spec:
            raise GuardError(f"lift spec is missing field {field!r}")
    p1, p0, rows = spec["p1"], spec["p0"], spec["matrix"]
    if not all(isinstance(vs, list) and all(type(v) is int for v in vs) for vs in (p1, p0)):
        raise GuardError("lift spec fields 'p1' and 'p0' must be lists of vertices")
    for v in p1 + p0:
        _check_vertex(q, v)
    if not (isinstance(rows, list) and len(rows) == len(p0)
            and all(isinstance(r, list) and len(r) == len(p1) for r in rows)):
        raise GuardError("lift matrix shape does not match p0 x p1")
    from . import lifting

    alg = higgs.preprojective_algebra(q)
    f = higgs.LambdaMorphism(alg, p1, p0, [
        [_entry_vector(alg, rows[r][c], p1[c], p0[r]) for c in range(len(p1))]
        for r in range(len(p0))])
    lift = lifting.lift_morphism(f)
    return _json_text(
        {
            "labels": [_label_json(num, l) for l in lift.labels],
            "unresolved": [
                {"sub": [str(l) for l in c.sub], "quot": [str(l) for l in c.quot]}
                for c in lift.unresolved
            ],
        }
    )


def _render_braid(job: JobSpec) -> str:
    from . import braids

    if job.dtype is None:
        raise GuardError("braid needs --type")
    letters = job.options["word"]
    word = braids.BraidWord.from_ints(job.dtype, letters)
    if job.options.get("star"):
        word = braids.star_involution(word)
    nf = braids.garside_normal_form(word)
    factors = [
        [i for i, _ in braids.canonical_lift(w).letters] for w in nf.factors
    ]
    star = braids.star_involution(word)
    member = braids.star_form(nf) == nf  # is_in_B_star(word), with the form at hand
    data = {
        "type": str(word.dtype),
        "word": [i * s for i, s in word.letters],
        "normal_form": {"delta_power": nf.infimum, "factors": factors},
        "star": [i * s for i, s in star.letters],
        "in_b_star": member,
        "k0": [list(row) for row in braids.k0_rows(word)],
    }
    if job.fmt == "json":
        return _json_text(data)
    lines = ["word:    " + " ".join(str(x) for x in data["word"])]
    parts = [f"D^{nf.infimum}"] + ["[" + " ".join(map(str, f)) + "]" for f in factors]
    lines.append("normal:  " + " ".join(parts))
    lines.append("star:    " + " ".join(str(x) for x in data["star"]))
    lines.append("in B*:   " + ("yes" if member else "no"))
    lines.append("k0:      " + json.dumps(data["k0"]))
    return "\n".join(lines) + "\n"


_RENDERERS = {
    "quiver": _render_quiver,
    "ar": _render_ar,
    "mpr": _render_mpr,
    "ice": _render_ice,
    "hom": _render_hom,
    "higgs": _render_higgs,
    "braid": _render_braid,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_source_args(sub):
    sub.add_argument("--type", help="Dynkin type, e.g. A3")
    sub.add_argument("--orient", help="arrow list like '1->2 2->3' (default: small to large)")
    sub.add_argument("--file", help="read the quiver from a file (text or JSON form)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quiverlab",
        description="Combinatorial structures attached to a simply laced Dynkin quiver.",
    )
    ap.add_argument("--cache-dir", help=f"cache artifacts here (or ${CACHE_ENV})")
    cmds = ap.add_subparsers(dest="command", required=True)

    p = cmds.add_parser("quiver", help="the quiver itself")
    _add_source_args(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = cmds.add_parser("ar", help="translation quiver of the module category")
    _add_source_args(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = cmds.add_parser("mpr", help="translation quiver of the projective-morphism category")
    _add_source_args(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = cmds.add_parser("ice", help="decorated quiver with frozen part and potential")
    _add_source_args(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = cmds.add_parser("hom", help="graded hom tables over the embedded projectives")
    _add_source_args(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table", action="store_true", help="degree-zero grid over all slots")
    mode.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"),
                      help="full graded dims for one slot pair (1-based)")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = cmds.add_parser("higgs", help="projective presentations over the loop algebra")
    _add_source_args(p)
    op = p.add_mutually_exclusive_group(required=True)
    op.add_argument("--phi", type=int, metavar="N",
                    help="presentation image of the numbered label")
    op.add_argument("--lift", metavar="SPEC",
                    help="JSON {p1,p0,matrix} (inline, or @file); entries are [path, coeff] lists")
    op.add_argument("--omega-orbit", type=int, metavar="N",
                    help="rotation orbit of the numbered frozen label")
    p.add_argument("--format", choices=("json",), default="json")

    p = cmds.add_parser("braid", help="normal form, star image, membership, K0 matrix")
    p.add_argument("--type", required=True, help="Dynkin type, e.g. A3")
    p.add_argument("--word", required=True, help="letters like '1 2 -1' (negative = inverse)")
    p.add_argument("--star", action="store_true", help="operate on the star image instead")
    p.add_argument("--format", choices=("text", "json"), default="text")

    return ap


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise GuardError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise GuardError(f"cannot read {path}: not UTF-8 text") from None


def _job_from_args(args) -> JobSpec:
    dtype = getattr(args, "type", None)
    arrows = None
    if getattr(args, "file", None):
        if getattr(args, "orient", None):
            raise GuardError("--orient contradicts --file: the file fixes the orientation")
        raw = _read_text(args.file)
        try:
            q = quiver_from_json(json.loads(raw))
        except json.JSONDecodeError:
            q = quiver_from_text(raw)
        if dtype is not None and dtype != str(q.dtype):
            raise GuardError(f"--type {dtype} contradicts the file's type {q.dtype}")
        dtype, arrows = str(q.dtype), q.arrows
    elif getattr(args, "orient", None):
        if dtype is None:
            raise GuardError("--orient needs --type")
        arrows = build_quiver(dtype, args.orient).arrows

    options: dict = {}
    if args.command == "hom":
        options = {"mode": "table"} if args.table else {"mode": "pair", "pair": list(args.pair)}
    elif args.command == "higgs":
        if args.phi is not None:
            options.update(op="phi", label=args.phi)
        elif args.omega_orbit is not None:
            options.update(op="omega-orbit", label=args.omega_orbit)
        else:
            raw = args.lift
            if raw.startswith("@"):
                raw = _read_text(raw[1:])
            try:
                options.update(op="lift", spec=json.loads(raw))
            except json.JSONDecodeError as exc:
                raise GuardError(f"lift spec is not valid JSON: {exc}") from None
    elif args.command == "braid":
        try:
            letters = [int(t) for t in args.word.replace(",", " ").split()]
        except ValueError:
            raise GuardError(f"bad word {args.word!r} (expected e.g. '1 2 -1')") from None
        options = {"word": letters, "star": bool(args.star)}

    return JobSpec(
        command=args.command,
        dtype=dtype,
        arrows=arrows,
        fmt=args.format,
        options=options,
        cache_dir=args.cache_dir or os.environ.get(CACHE_ENV),
    )


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return run(_job_from_args(args))
    except GuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
