"""What a process loads: `import quiverlab` binds its exports lazily, a
command-line job that needs no computation (a cache hit, or the quiver
itself) imports neither numpy nor a compute module, the label-level jobs
(`ar`, `hom`, `mpr`, `ice`, `higgs --omega-orbit`) load only the integer
layers `stalks`, `boundary`, `morphcat` and `ice`, a `higgs --phi` job on
an identity object, a kill object or a projective adds only `_field` and
`higgs`, and a `braid` job loads only `braids`.  A job that does load numpy runs it with one BLAS thread,
unless the caller chose otherwise.

Each check runs in a fresh interpreter, since the test process has long
since loaded every module.  The source checks read the package's syntax
trees: where a module imports its layers, and that every memo is a
module-level function."""

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
ARQuiver BraidWord Conflation DerivedLabel DynkinType GarsideForm GradedDim GuardError
HiggsLift HomTable IceQuiver IndecLabel InternalCheckError LambdaMorphism Morphism MprLabel
MprObject PreprojAlgebra Quiver Rep SiltingLabel TQAlgebra WeylElement boundary braid_equal
braids build_ice_quiver build_quiver canonical_lift clear_caches complexes coxeter_number
decompose derived_hom dynkin e_exponent errors euler_form export_hom_table export_ice
ext1_dim f_power_label f_presentation gamma_hom garside_element garside_normal_form higgs
hom_basis hom_dim hom_dim_mpr hom_pair_dim hom_table ice injective_rep is_in_B_star
is_indecomposable is_isomorphic k0_action knit_ar_quiver label_by_number lift_morphism
lifting list_indecomposables memos min_presentation morphcat mpr_ar_quiver mpr_indecomposables
mpr_number mutable_part nakayama_involution omega_action omega_orbit omega_order phi_image
pi2_hom positive_roots preprojective_algebra presentation project_to_weyl projective_rep
quiver_from_json quiver_from_text quiver_to_dot quiver_to_json quiver_to_text realize_lift
reduced_words reps simple_rep split_summands stalks star_involution tau_inv_rep tau_mpr
thm1_hom thm2_hom tq_algebra triangular_extension window
""".split()

LIGHT = ["quiverlab", "quiverlab.cli", "quiverlab.dynkin", "quiverlab.errors"]


def run_python(code: str, **extra_env) -> dict:
    """Run `code` in a fresh interpreter on the package under test, with
    `extra_env` added to a clean environment; it prints one JSON document
    last on stdout."""
    env = dict(os.environ)
    env.pop("QUIVERLAB_CACHE_DIR", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(extra_env)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(quiverlab.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(argv: list, **extra_env) -> dict:
    """Exit code, output, loaded modules, BLAS thread setting and thread
    count (None without /proc) of one in-process `cli.main`."""
    return run_python(f"""
import contextlib, io, json, os, sys
from quiverlab import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    rc = cli.main({argv!r})
print(json.dumps({{
    "rc": rc,
    "out": out.getvalue(),
    "numpy": "numpy" in sys.modules,
    "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab"),
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
}}))
""", **extra_env)


def test_cache_hit_loads_no_numpy_and_no_compute_module(tmp_path):
    # label 5 is M(t-1P1), whose presentation loads numpy
    argv = ["--cache-dir", str(tmp_path), "higgs", "--type", "A3", "--phi", "5"]
    cold = run_cli(argv)
    assert cold["rc"] == 0 and cold["numpy"] and "quiverlab.higgs" in cold["modules"]
    replay = run_cli(argv)
    assert replay["rc"] == 0 and replay["out"] == cold["out"]
    assert not replay["numpy"]
    assert replay["modules"] == LIGHT


def test_quiver_job_loads_no_numpy_and_no_compute_module():
    job = run_cli(["quiver", "--type", "D5", "--orient", "2->1 2->3 4->3 3->5"])
    assert job["rc"] == 0
    assert job["out"] == "type D 5\n2 -> 1\n2 -> 3\n3 -> 5\n4 -> 3\n"
    assert not job["numpy"]
    assert job["modules"] == LIGHT


def test_star_import_binds_every_export_lazily():
    got = run_python("""
import json, sys
import quiverlab
loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab")
numpy = "numpy" in sys.modules
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
print(json.dumps({"loaded": loaded, "numpy": numpy, "names": names, "same": same,
                  "all": quiverlab.__all__, "dir": dir(quiverlab)}))
""")
    assert got["loaded"] == ["quiverlab"] and not got["numpy"]
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
    assert not job["numpy"]
    assert job["modules"] == sorted(LIGHT + ["quiverlab.stalks"])


def test_hom_table_job_loads_no_numpy():
    job = run_cli(["hom", "--type", "D8", "--table"])
    assert job["rc"] == 0 and job["out"].startswith("hom0\t")
    assert not job["numpy"]
    assert job["modules"] == sorted(LIGHT + ["quiverlab.boundary", "quiverlab.stalks"])


def test_mpr_job_loads_no_numpy():
    job = run_cli(["mpr", "--type", "E8"])
    assert job["rc"] == 0 and job["out"].startswith("  1: M(P1)\n")
    assert not job["numpy"]
    assert job["modules"] == sorted(LIGHT + ["quiverlab.morphcat", "quiverlab.stalks"])


def test_ice_job_loads_no_numpy():
    job = run_cli(["ice", "--type", "D6", "--orient", "2->1 2->3 4->3 4->5 6->4", "--format", "json"])
    assert job["rc"] == 0 and json.loads(job["out"])["type"] == "D6"
    assert not job["numpy"]
    assert job["modules"] == sorted(LIGHT + ["quiverlab.ice", "quiverlab.morphcat", "quiverlab.stalks"])


def test_omega_orbit_job_loads_no_numpy():
    job = run_cli(["higgs", "--type", "E8", "--omega-orbit", "1"])
    assert job["rc"] == 0
    out = json.loads(job["out"])
    assert [x["label"] for x in out["orbit"]] == ["M(P1)", "E(1)", "Z(1)"] and out["order"] == 3
    assert not job["numpy"]
    assert job["modules"] == sorted(LIGHT + ["quiverlab.morphcat", "quiverlab.stalks"])
    got = run_python("""
import json, sys
import quiverlab
orbit = quiverlab.omega_orbit(quiverlab.MprLabel(quiverlab.build_quiver("E8"), "done", 1))
print(json.dumps({"orbit": [str(x) for x in orbit], "numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab")}))
""")
    assert got == {"orbit": ["E(1)", "Z(1)", "M(P1)"], "numpy": False,
                   "modules": ["quiverlab", "quiverlab.dynkin", "quiverlab.errors",
                               "quiverlab.morphcat", "quiverlab.stalks"]}


PHI_MODULES = sorted(LIGHT + ["quiverlab._field", "quiverlab.higgs", "quiverlab.morphcat",
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
        assert not job["numpy"]
        assert job["modules"] == PHI_MODULES


def test_phi_image_of_a_trivial_presentation_loads_no_numpy():
    got = run_python("""
import json, sys
import quiverlab
f = quiverlab.phi_image(quiverlab.MprLabel(quiverlab.build_quiver("E8"), "dzero", 3))
print(json.dumps({"terms": [f.p1, f.p0], "entries": f.entries, "numpy": "numpy" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.partition(".")[0] == "quiverlab")}))
""")
    assert got == {"terms": [[3], [3]], "entries": [[[[2, 1]]]], "numpy": False,
                   "modules": ["quiverlab", "quiverlab._field", "quiverlab.dynkin", "quiverlab.errors",
                               "quiverlab.higgs", "quiverlab.morphcat", "quiverlab.stalks"]}


def test_cli_runs_numpy_with_one_blas_thread():
    job = run_cli(["higgs", "--type", "A3", "--phi", "5"])  # M(t-1P1)
    assert job["rc"] == 0 and job["numpy"]
    assert job["blas"] == "1"
    if job["threads"] is not None:
        assert job["threads"] == 1
    # a caller's own setting is left alone
    job = run_cli(["higgs", "--type", "A3", "--phi", "5"], OPENBLAS_NUM_THREADS="2")
    assert job["rc"] == 0 and job["numpy"]
    assert job["blas"] == "2"


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
    assert not job["numpy"]
    assert job["modules"] == sorted(LIGHT + ["quiverlab.braids"])


def test_positive_roots_load_no_numpy():
    got = run_python("""
import json, sys
import quiverlab
roots = quiverlab.positive_roots("E8")
print(json.dumps({"numpy": "numpy" in sys.modules, "count": len(roots),
                  "ints": all(type(x) is int for r in roots for x in r)}))
""")
    assert got == {"numpy": False, "count": 120, "ints": True}


MATRIX_LAYERS = {"numpy", "quiverlab._kernels", "quiverlab.reps", "quiverlab.complexes"}


def module_level_imports(name: str) -> set:
    """Modules that `quiverlab.<name>` imports when it is itself imported:
    every import statement outside a function body, relative ones resolved."""
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
    return {m for m in found if m in MATRIX_LAYERS or m.startswith("numpy.")}


@pytest.mark.parametrize("name", ["stalks", "boundary", "braids", "morphcat", "ice", "higgs", "_field"])
def test_integer_layers_import_no_matrix_layer(name):
    assert module_level_imports(name) == set()


def test_matrix_layer_imports_are_detected():
    assert module_level_imports("reps") == {"numpy", "quiverlab._kernels"}
    assert module_level_imports("lifting") == {"numpy", "quiverlab._kernels"}
    assert module_level_imports("complexes") == {"numpy", "quiverlab._kernels", "quiverlab.reps"}


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


# the package modules that import numpy anywhere, function bodies included;
# `higgs` and `dynkin` work in plain integers and are not among them
NUMPY_IMPORTERS = {"_kernels", "braids", "complexes", "lifting", "morphcat", "reps"}


def test_numpy_importers_are_pinned():
    # a new numpy import anywhere in the package has to be added here
    pkg = os.path.dirname(quiverlab.__file__)
    names = [name[:-3] for name in sorted(os.listdir(pkg)) if name.endswith(".py")]
    assert {"higgs", "dynkin"} <= set(names)
    assert {name for name in names if "numpy" in imports_anywhere(name)} == NUMPY_IMPORTERS


def test_stalks_imports_only_dynkin_and_errors():
    # labels never reach a matrix layer: not even a function body imports one
    found = imports_anywhere("stalks") - set(sys.stdlib_module_names)
    assert found == {"quiverlab.dynkin", "quiverlab.errors"}


def test_boundary_never_imports_reps():
    found = imports_anywhere("boundary")
    assert "quiverlab.reps" not in found
    # the imports inside `thm2_hom` and `gamma_hom` are seen
    assert {"quiverlab.morphcat", "quiverlab.complexes"} <= found


def third_party_imports() -> dict:
    """Top-level packages outside the standard library, numpy and quiverlab
    that any package module imports anywhere, function bodies included."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "quiverlab"}
    pkg = os.path.dirname(quiverlab.__file__)
    found = {}
    for name in sorted(os.listdir(pkg)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.partition(".")[0]]
            else:
                continue
            found.update({(name, t): node.lineno for t in tops if t not in allowed})
    return found


def test_numpy_is_the_only_third_party_import():
    assert third_party_imports() == {}


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
