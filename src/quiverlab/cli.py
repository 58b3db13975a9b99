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
layers it uses.  The command line is read from one table by a small
parser, not by argparse, whose import and parser objects (with `gettext`
and `locale`) cost about 8 ms of every fresh process.
"""
from __future__ import annotations

import functools
import json
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .dynkin import (
    DynkinType,
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


class JobSpec:
    """A fully parsed request: one command over one quiver source."""

    __slots__ = ("command", "dtype", "arrows", "fmt", "options", "cache_dir")

    def __init__(self, command: str, dtype: str | None,
                 arrows: tuple[tuple[int, int], ...] | None, fmt: str, options: dict,
                 cache_dir: str | None = None):
        self.command = command
        self.dtype = dtype
        self.arrows = arrows
        self.fmt = fmt
        self.options = options
        self.cache_dir = cache_dir

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not JobSpec:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"JobSpec({args})"

    def quiver(self):
        if self.dtype is None:
            raise GuardError("no quiver given (use --type, optionally --orient, or --file)")
        return build_quiver(self.dtype, list(self.arrows) if self.arrows is not None else None)


@functools.cache
def source_digest() -> str:
    """sha256 over the names and bytes of the package's `.py` sources, so that
    a cache entry written by other code is never replayed."""
    import hashlib  # only a job with a cache directory computes a key

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
    import hashlib

    blob = json.dumps(_canonical(job), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run(job: JobSpec, out=None) -> int:
    out = sys.stdout if out is None else out
    path = None
    if job.cache_dir:
        path = os.path.join(job.cache_dir, cache_key(job) + ".json")
        stored = _read_entry(job, path)
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


def _read_entry(job: JobSpec, path: str) -> str | None:
    """The output stored at `path` for `job`, or None on a miss.  An
    unreadable or malformed entry, or one stored for another job, is a miss
    too: the caller recomputes and rewrites it."""
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return None
    if (not isinstance(stored, dict) or stored.get("version") != CACHE_VERSION
            or stored.get("job") != _canonical(job)):
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
    g = sorted(boundary.thm1_hom(ei, IndecLabel(q, u, 0), ej, IndecLabel(q, v, 0)).items(),
               reverse=True)
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

    lifting.require_liftable(q)  # before the algebra is built
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
# the command line
#
# One table describes it.  An option maps to (kind, metavar, help): the kind
# is `str` or `int` for one value, "pair" for two ints, "flag" for a switch,
# or a tuple of choices whose first member is the default.  A command maps to
# its help line, its options in usage order and its groups; exactly one
# option of each group must be given, so a group of one is a required option.
# `_parse_args` reads a command line as argparse would read this table
# (unique prefixes, `--option=value`, which tokens count as values, the last
# of a repeated option wins), without importing or building argparse.

_SOURCE = {
    "--type": (str, "TYPE", "Dynkin type, e.g. A3"),
    "--orient": (str, "ORIENT", "arrow list like '1->2 2->3' (default: small to large)"),
    "--file": (str, "FILE", "read the quiver from a file (text or JSON form)"),
}


def _format(*choices: str) -> dict:
    return {"--format": (choices, None, f"output format (default: {choices[0]})")}


_COMMANDS = {
    "quiver": ("the quiver itself", {**_SOURCE, **_format("text", "json", "dot")}, ()),
    "ar": ("translation quiver of the module category",
           {**_SOURCE, **_format("text", "json", "dot")}, ()),
    "mpr": ("translation quiver of the projective-morphism category",
            {**_SOURCE, **_format("text", "json", "dot")}, ()),
    "ice": ("decorated quiver with frozen part and potential",
            {**_SOURCE, **_format("dot", "json")}, ()),
    "hom": ("graded hom tables over the embedded projectives", {
        **_SOURCE,
        "--table": ("flag", None, "degree-zero grid over all slots"),
        "--pair": ("pair", "I J", "full graded dims for one slot pair (1-based)"),
        **_format("tsv", "json"),
    }, (("--table", "--pair"),)),
    "higgs": ("projective presentations over the loop algebra", {
        **_SOURCE,
        "--phi": (int, "N", "presentation image of the numbered label"),
        "--lift": (str, "SPEC",
                   "JSON {p1,p0,matrix} (inline, or @file); entries are [path, coeff] lists"),
        "--omega-orbit": (int, "N", "rotation orbit of the numbered frozen label"),
        **_format("json"),
    }, (("--phi", "--lift", "--omega-orbit"),)),
    "braid": ("normal form, star image, membership, K0 matrix", {
        "--type": _SOURCE["--type"],
        "--word": (str, "WORD", "letters like '1 2 -1' (negative = inverse)"),
        "--star": ("flag", None, "operate on the star image instead"),
        **_format("text", "json"),
    }, (("--type",), ("--word",))),
}
# the options before the command, in the same shape
_TOP = ("Combinatorial structures attached to a simply laced Dynkin quiver.",
        {"--cache-dir": (str, "DIR", f"cache artifacts here (or ${CACHE_ENV})")}, ())
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse takes these as values


def _spelling(name: str, spec: tuple) -> str:
    kind, metavar, _ = spec
    if isinstance(kind, tuple):
        metavar = "{" + ",".join(kind) + "}"
    return f"{name} {metavar}" if metavar else name


def _usage(command: str | None) -> str:
    _, options, groups = _TOP if command is None else _COMMANDS[command]
    words = ["usage: quiverlab", "[-h]"] if command is None else ["usage: quiverlab", command, "[-h]"]
    for name, spec in options.items():
        group = next((g for g in groups if name in g), ())
        if not group:
            words.append(f"[{_spelling(name, spec)}]")
        elif len(group) == 1:
            words.append(_spelling(name, spec))
        elif name == group[0]:
            words.append("(" + " | ".join(_spelling(n, options[n]) for n in group) + ")")
    if command is None:
        words.append("{" + ",".join(_COMMANDS) + "} ...")
    return " ".join(words)


def _help(command: str | None) -> str:
    about, options, _ = _TOP if command is None else _COMMANDS[command]
    sections = [("options", [("-h, --help", "show this help and exit")]
                 + [(_spelling(name, spec), spec[2]) for name, spec in options.items()])]
    if command is None:
        sections.insert(0, ("commands", [(c, h) for c, (h, _, _) in _COMMANDS.items()]))
    width = max(len(left) for _, rows in sections for left, _ in rows)
    lines = [_usage(command), "", about]
    for title, rows in sections:
        lines += ["", f"{title}:"] + [f"  {left:<{width}}  {text}" for left, text in rows]
    return "\n".join(lines) + "\n"


def _fail(command: str | None, message: str):
    sys.stderr.write(f"{_usage(command)}\nquiverlab: error: {message}\n")
    raise SystemExit(2)


def _option(token: str, names: tuple, command: str | None):
    """How argparse reads `token` against the option `names`: None for a
    value, else (option, the value attached by '=' or None), where the
    option is '' when none matches."""
    if token[:1] != "-" or token == "-":
        return None
    if token in names:
        return token, None
    head, eq, tail = token.partition("=")
    if eq and head in names:
        return head, tail
    if token[1] != "-":  # only -h is short; what follows it is attached
        if token.startswith("-h"):
            return "-h", token[2:]
    else:
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            _fail(command, f"ambiguous option: {token!r} could match {', '.join(found)}")
        if found:
            return found[0], tail if eq else None
    if _NEGATIVE.match(token) or " " in token:
        return None
    return "", None


def _scan(argv: list, command: str | None) -> tuple[dict, list, int]:
    """Take the options of `command` (None: the top level) from `argv`, left
    to right.  Returns the option values, the tokens no option took, and the
    index at which the top level meets its command."""
    _, options, groups = _TOP if command is None else _COMMANDS[command]
    names = (*_HELP, *options)
    kind_of = {name: spec[0] for name, spec in options.items()}
    kinds = []  # every token is read before any is taken, as in argparse
    for k, token in enumerate(argv):
        if token == "--":  # what follows is values only; "--" itself is none
            kinds += ["--"] + [None] * (len(argv) - k - 1)
            break
        kinds.append(_option(token, names, command))
    given: dict = {}
    extras = []
    i = 0
    while i < len(argv):
        if not isinstance(kinds[i], tuple):
            if command is None:
                break
            extras.append(argv[i])
            i += 1
            continue
        name, attached = kinds[i]
        i += 1
        if not name:
            extras.append(argv[i - 1])
            continue
        n = 0 if name in _HELP or kind_of[name] == "flag" else 2 if kind_of[name] == "pair" else 1
        if attached is None and i + n <= len(argv) and all(k is None for k in kinds[i:i + n]):
            raw = argv[i:i + n]
            i += n
        elif attached is not None and (n == 1 or name == "-h" and attached and not attached.strip("h")):
            raw = [attached]  # argparse reads "-hh" as -h given twice
        else:
            _fail(command, f"argument {name}: expected {('no argument', 'one argument', '2 arguments')[n]}")
        if name in _HELP:
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        kind = kind_of[name]
        if kind == "flag":
            value = True
        elif kind is str:
            value = raw[0]
        elif isinstance(kind, tuple):
            value = raw[0]
            if value not in kind:
                choices = ", ".join(map(repr, kind))
                _fail(command, f"argument {name}: invalid choice: {value!r} (choose from {choices})")
        else:
            value = []
            for token in raw:
                try:
                    value.append(int(token))
                except ValueError:
                    _fail(command, f"argument {name}: invalid int value: {token!r}")
            if kind is int:
                value = value[0]
        clash = [other for group in groups if name in group for other in group
                 if other != name and other in given]
        if clash:
            _fail(command, f"argument {name}: not allowed with argument {clash[0]}")
        given[name] = value
    return given, extras, i


def _parse_args(argv=None) -> SimpleNamespace:
    """Read a command line against the table: the command, `cache_dir`, and
    each option of the command under its name without dashes (`omega_orbit`),
    defaulted when absent.  A usage error prints the usage and one error
    line on stderr and exits 2; -h or --help prints help and exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    top, extras, i = _scan(argv, None)
    if i == len(argv):
        _fail(None, "the following arguments are required: command")
    command = argv[i]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    given, more, _ = _scan(argv[i + 1:], command)
    _, options, groups = _COMMANDS[command]
    missing = [group[0] for group in groups if len(group) == 1 and group[0] not in given]
    if missing:
        _fail(command, "the following arguments are required: " + ", ".join(missing))
    for group in groups:
        if not any(name in given for name in group):
            _fail(command, f"one of the arguments {' '.join(group)} is required")
    if extras or more:
        _fail(None, "unrecognized arguments: " + ", ".join(map(repr, extras + more)))
    args = SimpleNamespace(command=command, cache_dir=top.get("--cache-dir"))
    for name, (kind, _, _) in options.items():
        default = False if kind == "flag" else kind[0] if isinstance(kind, tuple) else None
        setattr(args, name[2:].replace("-", "_"), given.get(name, default))
    return args


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
    if dtype is not None:
        # one spelling per type, for the file check and the cache key
        dtype = str(DynkinType.parse(dtype))
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
    args = _parse_args(argv)
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
