"""What a process loads: `import quiverlab` binds its exports lazily, a
command-line job that needs no computation (a cache hit, or the quiver
itself) imports no compute module, the label-level jobs (`ar`, `hom`,
`mpr`, `ice`, `higgs --omega-orbit`) load only the integer layers
`stalks`, `boundary`, `morphcat` and `ice`, a `higgs --phi` job on an
identity object, a kill object or a projective adds only `_kernels` and
`higgs`, and a `braid` job loads only `braids`.  No module imports
anything outside the standard library, nor `dataclasses` or `argparse`,
and every command runs with numpy blocked and leaves `dataclasses`,
`argparse`, `gettext` and `locale` unloaded.

Each check runs in a fresh interpreter, since the test process has long
since loaded every module.  The source checks read the package's syntax
trees: where a module imports its layers, that it imports nothing from
outside the standard library (and not `dataclasses` or `argparse`),
that every memo is a module-level function, and that every definition
is called, exported or kept for a reason named in `UNCALLED_BY_DESIGN`."""

import ast
import importlib
import json
import os
import random
import subprocess
import sys

import pytest

import quiverlab

# `quiverlab.__all__` as the package exported it with eager imports
EXPORTS = """
ARQuiver BraidWord Conflation DerivedLabel DynkinType GarsideForm GuardError
HiggsLift HomTable IceQuiver IndecLabel InternalCheckError LambdaMorphism Morphism MprLabel
MprObject PreprojAlgebra Quiver Rep TQAlgebra WeylElement boundary braid_equal
braids build_ice_quiver build_quiver canonical_lift clear_caches complexes coxeter_number
decompose derived_hom dynkin e_exponent errors euler_form export_hom_table export_ice
ext1_dim f_power_label f_presentation gamma_hom garside_element garside_normal_form higgs
hom_basis hom_dim hom_dim_mpr hom_pair_dim hom_table ice injective_rep is_in_B_star
is_indecomposable is_isomorphic k0_rows knit_ar_quiver label_by_number lift_morphism
lifting list_indecomposables memos min_presentation morphcat mpr_ar_quiver mpr_indecomposables
mpr_number mutable_part nakayama_involution omega_action omega_orbit omega_order phi_image
pi2_hom positive_roots preprojective_algebra presentation project_to_weyl projective_rep
quiver_from_json quiver_from_text quiver_to_dot quiver_to_json quiver_to_text realize_lift
reduced_words reps simple_rep split_summands stalks star_involution tau_inv_rep tau_mpr
thm1_hom thm2_hom tq_algebra window
""".split()

LIGHT = ["quiverlab", "quiverlab.cli", "quiverlab.dynkin", "quiverlab.errors"]


def run_python(code: str) -> dict:
    """Run `code` in a fresh interpreter on the package under test, with no
    cache directory set; it prints one JSON document last on stdout."""
    env = dict(os.environ)
    env.pop("QUIVERLAB_CACHE_DIR", None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(quiverlab.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(argv: list) -> dict:
    """Exit code, output and loaded modules of one in-process `cli.main`."""
    return run_python(f"""
import contextlib, io, json, sys
from quiverlab import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main({argv!r})
print(json.dumps({{
    "rc": rc,
    "out": out.getvalue(),
    "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab"),
}}))
""")


def test_cache_hit_loads_no_numpy_and_no_compute_module(tmp_path):
    # label 5 is M(t-1P1), whose presentation comes from the complexes
    argv = ["--cache-dir", str(tmp_path), "higgs", "--type", "A3", "--phi", "5"]
    cold = run_cli(argv)
    assert cold["rc"] == 0
    assert {"quiverlab.higgs", "quiverlab.complexes"} <= set(cold["modules"])
    replay = run_cli(argv)
    assert replay["rc"] == 0 and replay["out"] == cold["out"]
    assert replay["modules"] == LIGHT


def test_quiver_job_loads_no_numpy_and_no_compute_module():
    job = run_cli(["quiver", "--type", "D5", "--orient", "2->1 2->3 4->3 3->5"])
    assert job["rc"] == 0
    assert job["out"] == "type D 5\n2 -> 1\n2 -> 3\n3 -> 5\n4 -> 3\n"
    assert job["modules"] == LIGHT


def test_star_import_binds_every_export_lazily():
    got = run_python("""
import json, sys
import quiverlab
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab")
before = set(globals())
from quiverlab import *
names = sorted(set(globals()) - before - {"before"})
same = []
for name in names:
    obj = globals()[name]
    if type(obj) is type(sys):
        same.append(obj is sys.modules["quiverlab." + name])
    else:
        same.append(obj is getattr(sys.modules[obj.__module__], name))
print(json.dumps({"loaded": loaded, "names": names, "same": same,
                  "all": quiverlab.__all__, "dir": dir(quiverlab)}))
""")
    assert got["loaded"] == ["quiverlab"]
    assert got["all"] == sorted(EXPORTS)
    assert got["names"] == sorted(EXPORTS)
    assert all(got["same"])
    assert set(EXPORTS) <= set(got["dir"])


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quiverlab.no_such_name  # noqa: B018


def test_ar_job_loads_no_numpy():
    job = run_cli(["ar", "--type", "E8"])
    assert job["rc"] == 0 and job["out"].startswith("vertices: P1 ")
    assert job["modules"] == sorted(LIGHT + ["quiverlab.stalks"])


def test_hom_table_job_loads_no_numpy():
    job = run_cli(["hom", "--type", "D8", "--table"])
    assert job["rc"] == 0 and job["out"].startswith("hom0\t")
    assert job["modules"] == sorted(LIGHT + ["quiverlab.boundary", "quiverlab.stalks"])


def test_mpr_job_loads_no_numpy():
    job = run_cli(["mpr", "--type", "E8"])
    assert job["rc"] == 0 and job["out"].startswith("  1: M(P1)\n")
    assert job["modules"] == sorted(LIGHT + ["quiverlab.morphcat", "quiverlab.stalks"])


def test_ice_job_loads_no_numpy():
    job = run_cli(["ice", "--type", "D6", "--orient", "2->1 2->3 4->3 4->5 6->4", "--format", "json"])
    assert job["rc"] == 0 and json.loads(job["out"])["type"] == "D6"
    assert job["modules"] == sorted(LIGHT + ["quiverlab.ice", "quiverlab.morphcat", "quiverlab.stalks"])


def test_omega_orbit_job_loads_no_numpy():
    job = run_cli(["higgs", "--type", "E8", "--omega-orbit", "1"])
    assert job["rc"] == 0
    out = json.loads(job["out"])
    assert [x["label"] for x in out["orbit"]] == ["M(P1)", "E(1)", "Z(1)"] and out["order"] == 3
    assert job["modules"] == sorted(LIGHT + ["quiverlab.morphcat", "quiverlab.stalks"])
    got = run_python("""
import json, sys
import quiverlab
orbit = quiverlab.omega_orbit(quiverlab.MprLabel(quiverlab.build_quiver("E8"), "done", 1))
print(json.dumps({"orbit": [str(x) for x in orbit],
                  "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab")}))
""")
    assert got == {"orbit": ["E(1)", "Z(1)", "M(P1)"],
                   "modules": ["quiverlab", "quiverlab.dynkin", "quiverlab.errors",
                               "quiverlab.morphcat", "quiverlab.stalks"]}


PHI_MODULES = sorted(LIGHT + ["quiverlab._kernels", "quiverlab.higgs", "quiverlab.morphcat",
                             "quiverlab.stalks"])


@pytest.mark.parametrize("t", ["A8", "D8", "E8"])
def test_phi_jobs_on_trivial_presentations_load_no_numpy(t):
    # the identity object Z(v), the kill object E(v) and the projective P_v
    q = quiverlab.build_quiver(t)
    num = quiverlab.mpr_number(q)
    for kind in ("dzero", "done", "mod"):
        lab = quiverlab.MprLabel(q, kind, 2)
        job = run_cli(["higgs", "--type", t, "--phi", str(num[lab])])
        assert job["rc"] == 0 and json.loads(job["out"])["label"]["label"] == str(lab)
        assert job["modules"] == PHI_MODULES


def test_phi_image_of_a_trivial_presentation_loads_no_numpy():
    got = run_python("""
import json, sys
import quiverlab
f = quiverlab.phi_image(quiverlab.MprLabel(quiverlab.build_quiver("E8"), "dzero", 3))
print(json.dumps({"terms": [f.p1, f.p0], "entries": f.entries,
                  "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab")}))
""")
    assert got == {"terms": [[3], [3]], "entries": [[[[2, 1]]]],
                   "modules": ["quiverlab", "quiverlab._kernels", "quiverlab.dynkin", "quiverlab.errors",
                               "quiverlab.higgs", "quiverlab.morphcat", "quiverlab.stalks"]}


def test_every_command_runs_with_numpy_blocked(tmp_path):
    """One job of every command, in one interpreter where importing numpy
    fails: the package needs nothing beyond the standard library."""
    lift = json.dumps({"p1": [1], "p0": [1], "matrix": [[["1", 0]]]})  # E(1) + M(P1)
    jobs = [
        ["quiver", "--type", "E6", "--format", "json"],
        ["ar", "--type", "D5"],
        ["mpr", "--type", "A4", "--format", "json"],
        ["ice", "--type", "A3", "--format", "json"],
        ["hom", "--type", "D4", "--table"],
        ["hom", "--type", "A3", "--pair", "1", "2", "--format", "json"],
        ["higgs", "--type", "D5", "--phi", "9"],  # a module label past the projectives
        ["higgs", "--type", "A1", "--lift", lift],
        ["higgs", "--type", "A3", "--omega-orbit", "1"],
        ["braid", "--type", "D4", "--word", "1 2 -3 4 1", "--format", "json"],
        ["--cache-dir", str(tmp_path), "higgs", "--type", "A3", "--phi", "5"],
        ["--cache-dir", str(tmp_path), "higgs", "--type", "A3", "--phi", "5"],
    ]
    got = run_python(f"""
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from quiverlab import cli
out = []
for argv in {jobs!r}:
    with contextlib.redirect_stdout(io.StringIO()) as text:
        out.append([cli.main(argv), text.getvalue()])
print(json.dumps({{"jobs": out, "numpy": sys.modules["numpy"] is None}}))
""")
    assert got["numpy"]
    assert [rc for rc, _ in got["jobs"]] == [0] * len(jobs)
    assert all(text for _, text in got["jobs"])
    assert sorted(x["label"] for x in json.loads(got["jobs"][7][1])["labels"]) == ["E(1)", "M(P1)"]
    assert got["jobs"][10][1] == got["jobs"][11][1]


def test_module_category_exports_load_no_matrix_layer():
    got = run_python("""
import json, sys
import quiverlab
quiverlab.IndecLabel, quiverlab.ARQuiver, quiverlab.knit_ar_quiver
print(json.dumps({"numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab")}))
""")
    assert not got["numpy"]
    assert got["modules"] == ["quiverlab", "quiverlab.dynkin", "quiverlab.errors", "quiverlab.stalks"]


@pytest.mark.parametrize("t", ["E6", "E7", "E8"])
def test_braid_job_loads_no_numpy(t):
    rng = random.Random(f"braid-job-{t}")
    dtype = quiverlab.DynkinType.parse(t)
    word = [rng.choice(dtype.vertices) * rng.choice((1, -1)) for _ in range(100)]
    job = run_cli(["braid", "--type", t, "--word", " ".join(map(str, word)), "--format", "json"])
    assert job["rc"] == 0
    out = json.loads(job["out"])
    star = quiverlab.nakayama_involution(quiverlab.build_quiver(t))
    assert out["word"] == word
    assert out["star"] == [star[abs(x)] * (1 if x > 0 else -1) for x in word]
    # the form is the same braid, so the exponent sums agree; Delta has one
    # letter per positive root, and each factor one per letter of its lift
    form = out["normal_form"]
    npos = len(quiverlab.positive_roots(t))
    assert npos * form["delta_power"] + sum(map(len, form["factors"])) == sum(
        1 if x > 0 else -1 for x in word)
    # the vertex involution is trivial on E7 and E8, so every word is fixed
    assert out["in_b_star"] is (t != "E6")
    assert len(out["k0"]) == dtype.rank
    assert job["modules"] == sorted(LIGHT + ["quiverlab.braids"])


def test_jobs_without_a_cache_dir_load_no_hashlib():
    """Only a job with a cache directory computes a key, so the quiver, ar
    and braid jobs run without `hashlib`, and a cached job loads it."""
    got = run_python("""
import contextlib, io, json, sys
from quiverlab import cli
loaded = []
for argv in (["quiver", "--type", "D5"], ["ar", "--type", "E8"],
             ["braid", "--type", "E7", "--word", "1 2 -3 7"]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    loaded.append([rc, "hashlib" in sys.modules])
print(json.dumps(loaded))
""")
    assert got == [[0, False]] * 3
    key = run_python("""
import json, sys
from quiverlab import cli
job = cli.JobSpec("quiver", "A3", None, "text", {})
print(json.dumps([len(cli.cache_key(job)), "hashlib" in sys.modules]))
""")
    assert key == [64, True]


def test_positive_roots_load_no_numpy():
    got = run_python("""
import json, sys
import quiverlab
roots = quiverlab.positive_roots("E8")
print(json.dumps({"numpy": "numpy" in sys.modules, "count": len(roots),
                  "ints": all(type(x) is int for r in roots for x in r)}))
""")
    assert got == {"numpy": False, "count": 120, "ints": True}


# the representation-matrix route: the label layers never load it at import
MATRIX_LAYERS = {"quiverlab.reps", "quiverlab.complexes"}


def module_level_imports(name: str) -> set:
    """The matrix layers that `quiverlab.<name>` imports when it is itself
    imported: every import statement outside a function body, relative ones
    resolved."""
    path = os.path.join(os.path.dirname(quiverlab.__file__), f"{name}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(p for p in ("quiverlab" if node.level else "", node.module) if p)
            found.add(base)
            found.update(f"{base}.{a.name}" for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found & MATRIX_LAYERS


@pytest.mark.parametrize("name", ["stalks", "boundary", "braids", "morphcat", "ice", "higgs", "_kernels"])
def test_integer_layers_import_no_matrix_layer(name):
    assert module_level_imports(name) == set()


def test_matrix_layer_imports_are_detected():
    assert module_level_imports("complexes") == {"quiverlab.reps"}
    assert module_level_imports("boundary") == set()
    # `morphcat` reaches the complexes only inside its functions
    assert "quiverlab.complexes" in imports_anywhere("morphcat")
    assert module_level_imports("morphcat") == set()


def imports_anywhere(name: str) -> set:
    """What `quiverlab.<name>` imports anywhere, function bodies included:
    quiverlab submodules by full name, anything else by its top-level
    package."""
    path = os.path.join(os.path.dirname(quiverlab.__file__), f"{name}.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(p for p in ("quiverlab" if node.level else "", node.module) if p)
            paths = [f"{base}.{a.name}" for a in node.names] if base == "quiverlab" else [base]
        else:
            continue
        for p in paths:
            top, _, rest = p.partition(".")
            found.add(f"quiverlab.{rest.partition('.')[0]}" if top == "quiverlab" else top)
    return found


def test_stalks_imports_only_dynkin_and_errors():
    # labels never reach a matrix layer: not even a function body imports one
    found = imports_anywhere("stalks") - set(sys.stdlib_module_names)
    assert found == {"quiverlab.dynkin", "quiverlab.errors"}


def test_boundary_never_imports_reps():
    found = imports_anywhere("boundary")
    assert "quiverlab.reps" not in found
    # the imports inside `thm2_hom` and `gamma_hom` are seen
    assert {"quiverlab.morphcat", "quiverlab.complexes"} <= found


def top_level_imports(source: str) -> set:
    """Top-level packages that the source imports anywhere, function bodies
    included; relative imports are left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def third_party_imports(source: str) -> set:
    """Top-level packages outside the standard library and quiverlab that
    the source imports anywhere, function bodies included."""
    return top_level_imports(source) - set(sys.stdlib_module_names) - {"quiverlab"}


def package_sources() -> dict:
    """The source text of every package module, by file name."""
    pkg = os.path.dirname(quiverlab.__file__)
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                out[name] = fh.read()
    return out


def test_package_imports_only_the_standard_library():
    found = {name: tops for name, source in package_sources().items()
             if (tops := third_party_imports(source))}
    assert found == {}
    # positive control: imports inside a function body are seen
    source = "import os\nfrom . import reps\ndef f():\n    import numpy.linalg\n    from scipy import sparse\n"
    assert third_party_imports(source) == {"numpy", "scipy"}


def unused_sibling_imports(source: str) -> set:
    """Names that the source imports from a sibling module (a relative
    import, function bodies included) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update(a.asname or a.name for a in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_keeps_an_unused_sibling_import():
    # a sibling import nothing reads is a re-export: each name has one home
    found = {name: unused for name, source in package_sources().items()
             if name != "__init__.py" and (unused := unused_sibling_imports(source))}
    assert found == {}
    # positive control: module imports, aliases and function-body imports are
    # seen, and an attribute of a module does not count as a use of the name
    source = ("from . import reps, stalks\nfrom .stalks import e_exponent as e, tau\n"
              "def f():\n    from .dynkin import Quiver\n    return stalks.tau(e)\n")
    assert unused_sibling_imports(source) == {"reps", "tau", "Quiver"}


def test_no_module_imports_dataclasses():
    """`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, about
    10 ms of every fresh process; the value types are named tuples and
    slotted classes instead."""
    found = [name for name, source in package_sources().items()
             if "dataclasses" in top_level_imports(source)]
    assert found == []
    # positive control: both import forms are seen, in function bodies too
    assert "dataclasses" in top_level_imports("import dataclasses as dc\n")
    assert "dataclasses" in top_level_imports("def f():\n    from dataclasses import dataclass\n")


def test_no_module_imports_argparse():
    """Building and running argparse cost about 8 ms of every fresh process;
    `cli` reads its command line from one table instead."""
    found = [name for name, source in package_sources().items()
             if "argparse" in top_level_imports(source)]
    assert found == []
    # positive control: both import forms are seen, in function bodies too
    assert "argparse" in top_level_imports("import argparse as ap\n")
    assert "argparse" in top_level_imports("def f():\n    from argparse import ArgumentParser\n")


SLOW_IMPORTS = ["dataclasses", "argparse", "gettext", "locale"]


def test_no_job_loads_dataclasses(tmp_path):
    """A fresh interpreter runs one job of each kind, a usage error and a
    help request, and records after each which of `dataclasses`, `argparse`,
    `gettext` and `locale` are loaded: nothing the jobs import pulls them in."""
    lift = json.dumps({"p1": [1], "p0": [1], "matrix": [[["1", 0]]]})  # E(1) + M(P1)
    replay = ["--cache-dir", str(tmp_path), "quiver", "--type", "A3"]
    jobs = [
        replay,
        replay,
        ["braid", "--type", "E8", "--word", "1 2 -3 8 4 1", "--format", "json"],
        ["higgs", "--type", "A3", "--phi", "5"],  # a module label past the projectives
        ["higgs", "--type", "A2", "--lift", lift],
        ["mpr", "--type", "E8"],
        ["ice", "--type", "D5"],
        ["hom", "--type", "D6", "--table"],
        ["ar", "--type", "E7"],
        ["hom", "--type", "A2", "--pair", "1", "x"],  # a usage error
        ["higgs", "--help"],
    ]
    got = run_python(f"""
import contextlib, io, json, sys
slow = {SLOW_IMPORTS!r}
loaded = [[m for m in slow if m in sys.modules]]
from quiverlab import cli
loaded.append([m for m in slow if m in sys.modules])
codes = []
for argv in {jobs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(cli.main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
    loaded.append([m for m in slow if m in sys.modules])
print(json.dumps({{"codes": codes, "loaded": loaded}}))
""")
    assert got["codes"] == [0] * (len(jobs) - 2) + [2, 0]
    assert got["loaded"] == [[]] * (len(jobs) + 2)


def _is_memo(decorator) -> bool:
    """Whether a decorator is `functools.cache` or `functools.lru_cache`,
    bare, called or imported by name."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in {"cache", "lru_cache"}


def memoized_functions() -> dict:
    """Every memoized function defined in a package module, as
    `<module>.<dotted path>`, mapped to whether a class encloses it."""
    pkg = os.path.dirname(quiverlab.__file__)
    found = {}

    def visit(node, path: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{path}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(map(_is_memo, child.decorator_list)):
                    found[name] = in_class
                visit(child, name, in_class or isinstance(child, ast.ClassDef))
            else:
                visit(child, path, in_class)

    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), name[:-3], False)
    return found


def test_no_method_is_memoized():
    # a memo on a method is keyed by `self` and keeps every instance alive
    found = memoized_functions()
    assert [name for name, in_class in found.items() if in_class] == []
    # positive control: the check sees every module-level memo `memos` lists
    for name in (*quiverlab._SUBMODULES, "cli"):
        importlib.import_module(f"quiverlab.{name}")
    assert {f"quiverlab.{name}" for name in found} == set(quiverlab.memos())


# definitions that nothing in the package calls, each kept for the reason given
UNCALLED_BY_DESIGN = {
    "morphcat.functor_D": "the crosscheck benchmark compares thm2_hom on its images with thm1_hom",
    "ice.ice_from_json": "the inverse of the JSON export, for the lossless round trip",
    "ice.IceQuiver.frozen_ids": "public API of the exported IceQuiver",
    "ice.IceQuiver.arrow_pairs": "public API of the exported IceQuiver",
    "lifting.TQAlgebra.nakayama_order": "the second route to morphcat.omega_order",
    "reps._ext1_via_presentation": "the second route to ext1_dim",
    "braids.BraidWord.inverse": "the group inverse of the exported BraidWord",
}


def uncalled_definitions(sources: dict, exported: set) -> set:
    """`<module>.<name>` of each top-level function or class, and of each
    public method, whose name no module reads (as a name or an attribute)
    outside the definition itself, and which is not exported.  Dunder
    methods are called by the interpreter and are left out."""
    trees = {name[:-3]: ast.parse(source) for name, source in sources.items()}
    defs = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((mod, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs.extend((mod, f"{node.name}.{sub.name}", sub) for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))

    def reads(tree, skip) -> set:
        out, stack = set(), [tree]
        while stack:
            node = stack.pop()
            if node is skip:
                continue
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
        return out

    found = set()
    for mod, qual, node in defs:
        name = qual.rpartition(".")[2]
        if name.startswith("__") or name in exported:
            continue
        if not any(name in reads(tree, node if other == mod else None) for other, tree in trees.items()):
            found.add(f"{mod}.{qual}")
    return found


def test_no_definition_that_nothing_calls():
    found = uncalled_definitions(package_sources(), set(quiverlab.__all__))
    assert found == set(UNCALLED_BY_DESIGN)
    # positive control: a function or a method read only inside itself is
    # flagged; a called one, an exported one and a dunder method are not
    source = ("def dead(n):\n    return dead(n - 1)\n"
              "class C:\n    def m(self):\n        return self.m()\n    def __len__(self):\n        return 0\n"
              "def used():\n    return 1\n"
              "def main():\n    return used() + len(C())\n")
    assert uncalled_definitions({"x.py": source}, {"main"}) == {"x.dead", "x.C.m"}
