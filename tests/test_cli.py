"""End-to-end tests of the command-line interface: rendering, file input,
the artifact cache, exit codes, help and usage errors, and the table
parser against the argparse parser it replaced."""

import argparse
import contextlib
import functools
import io
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quiverlab import boundary
from quiverlab import cli
from quiverlab import dynkin as dy
from quiverlab import morphcat as mc
from quiverlab.errors import GuardError
from tests.test_morphcat import A3_ARROWS, A3_LABELS, A3_TAU


def run_ok(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    assert rc == 0, out.err
    return out.out


# ---------------------------------------------------------------------------
# rendering


def test_quiver_text(capsys):
    out = run_ok(capsys, ["quiver", "--type", "A2"])
    assert out == "type A 2\n1 -> 2\n"


def test_quiver_json_round_trip(capsys):
    out = run_ok(capsys, ["quiver", "--type", "D4", "--format", "json"])
    q = dy.quiver_from_json(json.loads(out))
    assert q == dy.build_quiver("D4")


def test_quiver_orient(capsys):
    out = run_ok(capsys, ["quiver", "--type", "A2", "--orient", "2->1"])
    assert "2 -> 1" in out


def test_mpr_json_matches_library(capsys):
    out = json.loads(run_ok(capsys, ["mpr", "--type", "A3", "--format", "json"]))
    assert len(out["vertices"]) == 12
    assert out["vertices"][0] == {"id": 1, "kind": "mod", "vertex": 1, "power": 0}
    assert {tuple(a) for a in out["arrows"]} == set(A3_ARROWS)
    assert {tuple(t) for t in out["tau"]} == set(A3_TAU)
    labels = [mc.label_by_number(dy.build_quiver("A3"), v["id"]) for v in out["vertices"]]
    assert [str(l) for l in labels] == list(A3_LABELS)


def test_mpr_text_lists_labels(capsys):
    out = run_ok(capsys, ["mpr", "--type", "A1"])
    assert "  1: M(P1)" in out and "mesh" in out


def test_ice_dot_node_shapes(capsys):
    out = run_ok(capsys, ["ice", "--type", "A2"])
    assert out.count("shape=box") == 6
    assert out.count("shape=ellipse") == 1


def test_ice_dot_with_explicit_orientation(capsys):
    out = run_ok(capsys, ["ice", "--type", "A3", "--orient", "1->2 2->3"])
    assert out.count("[label=") == 12


def test_hom_table_tsv_matches_library(capsys):
    out = run_ok(capsys, ["hom", "--type", "A1", "--table"])
    assert out == boundary.export_hom_table(boundary.hom_table(dy.build_quiver("A1")), "tsv")


def test_hom_pair(capsys):
    out = json.loads(
        run_ok(capsys, ["hom", "--type", "A2", "--pair", "1", "1", "--format", "json"])
    )
    assert out["source"] == out["target"] == "D-1P1"
    # degrees print highest first, in both formats
    assert list(out["dims"].items()) == [("0", 1), ("-1", 1), ("-2", 1), ("-3", 1)]
    out = run_ok(capsys, ["hom", "--type", "A2", "--pair", "1", "1"])
    assert out == "D-1P1 -> D-1P1\n0\t1\n-1\t1\n-2\t1\n-3\t1\n"


def test_braid_text(capsys):
    out = run_ok(capsys, ["braid", "--type", "A2", "--word", "1 2 1"])
    assert "normal:  D^1" in out
    assert "in B*:   yes" in out


def test_braid_star_operates_on_image(capsys):
    plain = json.loads(
        run_ok(capsys, ["braid", "--type", "A2", "--word", "1", "--format", "json"])
    )
    starred = json.loads(
        run_ok(capsys, ["braid", "--type", "A2", "--word", "1", "--star", "--format", "json"])
    )
    assert plain["word"] == [1] and starred["word"] == [2]
    assert starred["star"] == [1]
    assert plain["in_b_star"] is False


def test_braid_json_fields(capsys):
    out = json.loads(
        run_ok(capsys, ["braid", "--type", "A2", "--word", "-1", "--format", "json"])
    )
    assert out["normal_form"] == {"delta_power": -1, "factors": [[1, 2]]}
    # each generator acts by an involution, so the inverse letter acts the same
    assert out["k0"] == [[-1, 1], [0, 1]]


def test_braid_job_normalises_once(capsys, monkeypatch):
    from quiverlab import braids

    calls = []
    normal_form = braids.garside_normal_form

    def counted(word):
        calls.append(word)
        return normal_form(word)

    monkeypatch.setattr(braids, "garside_normal_form", counted)
    out = json.loads(
        run_ok(capsys, ["braid", "--type", "A3", "--word", "1 2 -3 1", "--format", "json"])
    )
    assert len(calls) == 1  # membership reads the star image of this form
    word = braids.BraidWord.from_ints("A3", [1, 2, -3, 1])
    assert out["in_b_star"] is braids.is_in_B_star(word) is False

def test_higgs_phi(capsys):
    q = dy.build_quiver("A2")
    num = mc.mpr_number(q)
    z1 = next(l for l in num if str(l) == "Z(1)")
    out = json.loads(
        run_ok(capsys, ["higgs", "--type", "A2", "--phi", str(num[z1])])
    )
    assert out["label"]["label"] == "Z(1)"
    assert out["p1"] == [1] and out["p0"] == [1]
    assert out["matrix"] == [[[["1", 1]]]]


def test_higgs_phi_on_the_largest_liftable_type(capsys):
    out = json.loads(run_ok(capsys, ["higgs", "--type", "D8", "--phi", "1"]))
    assert out["label"]["label"] == "M(P1)" and out["p1"] == [] and out["p0"] == [1]


@pytest.mark.parametrize("t", ["E7", "E8"])
def test_higgs_phi_renders_e7_and_e8(capsys, t):
    # the dense dim^3 table refused these types; the sparse constants do not
    out = json.loads(run_ok(capsys, ["higgs", "--type", t, "--phi", "1"]))
    assert out == {"label": {"id": 1, "label": "M(P1)"}, "p1": [], "p0": [1], "matrix": [[]]}


def test_higgs_omega_orbit(capsys):
    q = dy.build_quiver("A2")
    num = mc.mpr_number(q)
    e1 = next(l for l in num if str(l) == "E(1)")
    out = json.loads(
        run_ok(capsys, ["higgs", "--type", "A2", "--omega-orbit", str(num[e1])])
    )
    assert out["order"] == 6
    assert [x["label"] for x in out["orbit"]][:4] == ["E(1)", "Z(1)", "M(P1)", "E(2)"]


def test_higgs_lift_simple_module(capsys, tmp_path):
    spec = {"p1": [2], "p0": [1], "matrix": [[[["2-1", 1]]]]}
    f = tmp_path / "spec.json"
    f.write_text(json.dumps(spec))
    out = json.loads(
        run_ok(capsys, ["higgs", "--type", "A2", "--lift", f"@{f}"])
    )
    assert out["labels"] == []
    assert out["unresolved"] == [{"sub": ["M(P1)"], "quot": ["E(2)"]}]


def test_higgs_lift_inline_identity(capsys):
    spec = json.dumps({"p1": [1], "p0": [1], "matrix": [[["1", 1]]]})
    out = json.loads(run_ok(capsys, ["higgs", "--type", "A2", "--lift", spec]))
    assert [x["label"] for x in out["labels"]] == ["Z(1)"]


def test_higgs_lift_decomposable_needs_numpy_only(capsys, monkeypatch):
    # the zero map P1 -> P1 splits into two labelled summands; importing
    # anything beyond the standard library on the way would fail here
    monkeypatch.setitem(sys.modules, "sympy", None)
    monkeypatch.setitem(sys.modules, "numpy", None)
    spec = json.dumps({"p1": [1], "p0": [1], "matrix": [[["1", 0]]]})
    out = json.loads(run_ok(capsys, ["higgs", "--type", "A1", "--lift", spec]))
    assert sorted(x["label"] for x in out["labels"]) == ["E(1)", "M(P1)"]
    assert out["unresolved"] == []


# ---------------------------------------------------------------------------
# file input


def test_quiver_from_text_file(capsys, tmp_path):
    f = tmp_path / "q.txt"
    f.write_text("type A 2\n2 -> 1\n")
    out = run_ok(capsys, ["quiver", "--file", str(f)])
    assert "2 -> 1" in out


def test_quiver_from_json_file(capsys, tmp_path):
    q = dy.build_quiver("A3")
    f = tmp_path / "q.json"
    f.write_text(json.dumps(dy.quiver_to_json(q)))
    out = run_ok(capsys, ["mpr", "--file", str(f)])
    assert "12:" in out


def test_file_type_contradiction(capsys, tmp_path):
    f = tmp_path / "q.txt"
    f.write_text("type A 2\n1 -> 2\n")
    rc = cli.main(["quiver", "--file", str(f), "--type", "A3"])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("error:")


@pytest.mark.parametrize("spelling", ["A3", "a3", " A3", "a 3"])
def test_file_accepts_any_spelling_of_its_type(capsys, tmp_path, spelling):
    # --type is read as a Dynkin type, not compared as a string
    f = tmp_path / "a3.json"
    f.write_text(json.dumps(dy.quiver_to_json(dy.build_quiver("A3"))))
    alone = run_ok(capsys, ["quiver", "--type", spelling])
    assert run_ok(capsys, ["quiver", "--type", spelling, "--file", str(f)]) == alone
    assert alone == "type A 3\n1 -> 2\n2 -> 3\n"


def test_spellings_of_a_type_share_its_cache_key():
    def key(spelling):
        args = cli._parse_args(["mpr", "--type", spelling])
        return cli.cache_key(cli._job_from_args(args))

    canonical = cli.cache_key(cli.JobSpec("mpr", "A3", None, "text", {}))
    assert {key(s) for s in ("A3", "a3", " A3", "a 3 ")} == {canonical}
    assert key("A4") != canonical


def test_file_with_orient_is_refused(capsys, tmp_path):
    f = tmp_path / "q.txt"
    f.write_text("type A 3\n1 -> 2\n2 -> 3\n")
    rc = cli.main(["quiver", "--file", str(f), "--orient", "2->1 3->2"])
    out = capsys.readouterr()
    assert rc == 3 and out.out == ""
    assert out.err.startswith("error:") and len(out.err.strip().splitlines()) == 1
    assert "--orient" in out.err


# ---------------------------------------------------------------------------
# the artifact cache


def test_cache_replay_is_byte_identical(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "mpr", "--type", "A3", "--format", "json"]
    first = run_ok(capsys, argv)
    files = list(tmp_path.iterdir())
    assert len(files) == 1
    second = run_ok(capsys, argv)
    assert first == second
    assert list(tmp_path.iterdir()) == files


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
    run_ok(capsys, ["quiver", "--type", "A1"])
    assert len(list(tmp_path.iterdir())) == 1


def test_cache_key_ignores_arrow_order_and_cache_dir():
    a = cli.JobSpec("mpr", "A3", ((1, 2), (2, 3)), "json", {}, None)
    b = cli.JobSpec("mpr", "A3", ((2, 3), (1, 2)), "json", {}, "/tmp/elsewhere")
    assert cli.cache_key(a) == cli.cache_key(b)


def test_cache_key_separates_orientations_and_formats():
    a = cli.JobSpec("mpr", "A3", ((1, 2), (2, 3)), "json", {}, None)
    b = cli.JobSpec("mpr", "A3", ((2, 1), (2, 3)), "json", {}, None)
    c = cli.JobSpec("mpr", "A3", ((1, 2), (2, 3)), "dot", {}, None)
    assert len({cli.cache_key(x) for x in (a, b, c)}) == 3


def test_cache_key_covers_the_source_digest(monkeypatch):
    job = cli.JobSpec("mpr", "A3", None, "json", {}, None)
    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    old = cli.cache_key(job)
    monkeypatch.setattr(cli, "source_digest", lambda: "1" * 64)
    assert cli.cache_key(job) != old


def test_entry_of_another_job_is_a_miss(capsys, tmp_path):
    # an entry saved under another job's key is recomputed and rewritten,
    # never replayed as this job's output
    a2 = ["--cache-dir", str(tmp_path), "quiver", "--type", "A2"]
    a3 = ["--cache-dir", str(tmp_path), "quiver", "--type", "A3"]
    run_ok(capsys, a2)
    (entry,) = tmp_path.iterdir()
    job = cli.JobSpec("quiver", "A3", None, "text", {}, str(tmp_path))
    other = tmp_path / (cli.cache_key(job) + ".json")
    shutil.copyfile(entry, other)
    assert run_ok(capsys, a3) == "type A 3\n1 -> 2\n2 -> 3\n"
    assert json.loads(other.read_text())["job"] == cli._canonical(job)
    assert json.loads(other.read_text())["output"] == "type A 3\n1 -> 2\n2 -> 3\n"


def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "quiver", "--type", "A2"]
    first = run_ok(capsys, argv)
    (entry,) = tmp_path.iterdir()
    entry.write_text('{"version": 1, "outp')
    assert run_ok(capsys, argv) == first
    assert json.loads(entry.read_text())["output"] == first
    assert list(tmp_path.iterdir()) == [entry]


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
def test_unwritable_cache_dir_still_prints_the_artifact(capsys, tmp_path, below):
    # a regular file as the cache dir (FileExistsError), or a path below one
    # (NotADirectoryError): the artifact is printed, the failed write reported
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = blocker / "sub" if below else blocker
    want = run_ok(capsys, ["ar", "--type", "A2"])
    assert cli.main(["--cache-dir", str(cache), "ar", "--type", "A2"]) == 0
    out = capsys.readouterr()
    assert out.out == want
    assert out.err.startswith("warning: cache entry not written:")
    assert len(out.err.strip().splitlines()) == 1
    assert blocker.read_text() == "not a directory"


def test_render_is_deterministic(capsys):
    one = run_ok(capsys, ["ice", "--type", "A3", "--format", "json"])
    two = run_ok(capsys, ["ice", "--type", "A3", "--format", "json"])
    assert one == two


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_guard_error(capsys):
    assert cli.main(["quiver", "--type", "Q9"]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_exit_code_bad_pair(capsys):
    assert cli.main(["hom", "--type", "A1", "--pair", "1", "4"]) == 3


def test_exit_code_missing_file(capsys, tmp_path):
    missing = tmp_path / "nonexistent"
    assert cli.main(["quiver", "--file", str(missing)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "p1, p0, path, words",
    [
        ([1], [2], "9-9", "vertex 9"),  # a walk through a missing vertex
        ([9], [2], "1", "vertex 9"),  # a summand at a missing vertex
        ([1], [2], "2-1", "from vertex 1 to vertex 2"),  # a walk between the wrong ends
    ],
)
def test_exit_code_bad_lift_spec(capsys, p1, p0, path, words):
    spec = json.dumps({"p1": p1, "p0": p0, "matrix": [[[[path, 1]]]]})
    assert cli.main(["higgs", "--type", "A3", "--lift", spec]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and words in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("path", ["1", "9-9"])  # a valid path, a walk through a missing vertex
def test_refused_lift_builds_no_algebra(capsys, path):
    """The type is refused before the algebra is built, so a spec whose
    paths are also bad gets the refusal too."""
    from quiverlab import higgs

    higgs.preprojective_algebra.cache_clear()
    spec = json.dumps({"p1": [1], "p0": [1], "matrix": [[[path, 1]]]})
    assert cli.main(["higgs", "--type", "E8", "--lift", spec]) == 3
    assert capsys.readouterr().err == ("error: lifting needs a representation-finite loop "
                                       "algebra (['A1', 'A2', 'A3', 'A4']), not E8\n")
    assert higgs.preprojective_algebra.cache_info().currsize == 0


@pytest.mark.parametrize(
    "spec",
    [
        {"p1": ["x"], "p0": [2], "matrix": [[["1-2", 1]]]},  # a non-numeric summand
        {"p1": 5, "p0": [2], "matrix": [[["1-2", 1]]]},  # summands not a list
        {"p1": [1], "p0": [2], "matrix": 5},  # matrix not a list of rows
        {"p1": [1], "p0": [2], "matrix": [[["1-2", "x"]]]},  # a non-numeric coefficient
        {"p1": [1], "p0": [2], "matrix": [[[7, 1]]]},  # an entry term that is not a pair
        [1, 2],  # not an object
    ],
)
def test_exit_code_ill_typed_lift_spec(capsys, spec):
    assert cli.main(["higgs", "--type", "A3", "--lift", json.dumps(spec)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "content",
    [
        {"arrows": [[1, 2]]},  # no type
        {"type": "A3", "arrows": [[1]]},  # an arrow that is not a pair
        {"type": "A3", "arrows": 5},  # arrows not a list
        [1, 2],  # not an object
        "A3",
    ],
)
def test_exit_code_ill_typed_quiver_json(capsys, tmp_path, content):
    f = tmp_path / "q.json"
    f.write_text(json.dumps(content))
    assert cli.main(["quiver", "--file", str(f)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)
_vertex = st.integers(-1, 4) | _json
_term = st.lists(st.sampled_from(["1", "2-1", "3-2-1", "1-2", "", "x"]) | st.integers(-3, 3) | _json,
                 min_size=2, max_size=2)
_entry = st.lists(_term, max_size=2) | _term | _json
_lift_spec = _json | st.fixed_dictionaries({
    "p1": st.lists(_vertex, max_size=2) | _json,
    "p0": st.lists(_vertex, max_size=2) | _json,
    "matrix": st.lists(st.lists(_entry, max_size=2), max_size=2) | _json,
})
_quiver_json = _json | st.fixed_dictionaries({
    "type": st.sampled_from(["A1", "A2", "A3"]) | _json,
    "arrows": st.lists(st.lists(_vertex, max_size=3), max_size=3) | _json,
})


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rank=st.integers(1, 3), lift=st.booleans(), spec=_lift_spec, content=_quiver_json)
def test_fuzz_json_inputs_exit_cleanly(tmp_path, monkeypatch, rank, lift, spec, content):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    if lift:
        argv = ["higgs", "--type", f"A{rank}", "--lift", json.dumps(spec)]
    else:
        f = tmp_path / "q.json"
        f.write_text(json.dumps(content))
        argv = ["quiver", "--file", str(f)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # usage errors
            rc = exc.code
    assert rc in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == 3:
        assert err.getvalue().startswith("error:")
        assert len(err.getvalue().strip().splitlines()) == 1


_arg_text = st.text(alphabet="0123-> ,x#\n", max_size=12) | st.text(max_size=6)
_text_line = st.sampled_from(
    ["type A 3", "type A 2", "type A1", "type E 9", "1 -> 2", "2 -> 1", "2->3", "3 -> 2",
     "1 -> 1", "# note", ""]
) | _arg_text
_quiver_text = st.lists(_text_line, max_size=5).map("\n".join)


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rank=st.integers(1, 3), word=_arg_text, orient=_arg_text,
       pair=st.lists(st.integers(-1, 12).map(str) | _arg_text, min_size=2, max_size=2),
       content=_quiver_text)
def test_fuzz_argv_text_exits_cleanly(tmp_path, monkeypatch, rank, word, orient, pair, content):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    f = tmp_path / "q.txt"
    f.write_text(content)
    dtype = f"A{rank}"
    for argv in (
        ["braid", "--type", dtype, "--word", word],
        ["quiver", "--type", dtype, "--orient", orient],
        ["hom", "--type", dtype, "--pair", *pair],
        ["quiver", "--file", str(f)],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # usage errors
                rc = exc.code
        assert rc in (0, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if rc == 3:
            assert err.getvalue().startswith("error:")
            assert len(err.getvalue().strip().splitlines()) == 1

def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# the command line: help, usage errors, and parity with argparse


def run_module(argv):
    """Exit code, stdout and stderr of `python -m quiverlab.cli` in a fresh
    interpreter on the package under test, with no cache directory set."""
    env = dict(os.environ)
    env.pop(cli.CACHE_ENV, None)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    return subprocess.run([sys.executable, "-m", "quiverlab.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_names_every_command_and_option(capsys, command, flag):
    argv = [flag] if command is None else [command, flag]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.startswith("usage: quiverlab ")
    about, options, _ = cli._TOP if command is None else cli._COMMANDS[command]
    names = [about, "-h, --help", *options, *(h for _, _, h in options.values())]
    if command is None:
        names += [f"  {c} " for c in cli._COMMANDS]
        names += [h for h, _, _ in cli._COMMANDS.values()]
    assert [n for n in names if n not in out.out] == []


USAGE_ERRORS = {
    "unknown command": ["frobnicate", "--type", "A2"],
    "unknown option": ["quiver", "--type", "A2", "--bogus"],
    "missing value": ["quiver", "--type"],
    "bad int": ["higgs", "--type", "A2", "--phi", "x"],
    "bad choice": ["ice", "--type", "A2", "--format", "text"],
    "both of an exclusive group": ["hom", "--type", "A2", "--table", "--pair", "1", "2"],
    "neither of a required group": ["higgs", "--type", "A2"],
    "braid without --word": ["braid", "--type", "A2"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_prints_usage_and_one_error_line(argv):
    proc = run_module(argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    usage, error = proc.stderr.splitlines()
    assert usage.startswith("usage: quiverlab ")
    assert error.startswith("quiverlab: error: ")


@functools.cache
def argparse_reference():
    """The argparse parser that read the command line before the table: the
    reference `cli._parse_args` must agree with."""
    def add_source_args(sub):
        sub.add_argument("--type", help="Dynkin type, e.g. A3")
        sub.add_argument("--orient", help="arrow list like '1->2 2->3' (default: small to large)")
        sub.add_argument("--file", help="read the quiver from a file (text or JSON form)")

    ap = argparse.ArgumentParser(
        prog="quiverlab",
        description="Combinatorial structures attached to a simply laced Dynkin quiver.",
    )
    ap.add_argument("--cache-dir", help=f"cache artifacts here (or ${cli.CACHE_ENV})")
    cmds = ap.add_subparsers(dest="command", required=True)

    p = cmds.add_parser("quiver", help="the quiver itself")
    add_source_args(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = cmds.add_parser("ar", help="translation quiver of the module category")
    add_source_args(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = cmds.add_parser("mpr", help="translation quiver of the projective-morphism category")
    add_source_args(p)
    p.add_argument("--format", choices=("text", "json", "dot"), default="text")

    p = cmds.add_parser("ice", help="decorated quiver with frozen part and potential")
    add_source_args(p)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = cmds.add_parser("hom", help="graded hom tables over the embedded projectives")
    add_source_args(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--table", action="store_true", help="degree-zero grid over all slots")
    mode.add_argument("--pair", nargs=2, type=int, metavar=("I", "J"),
                      help="full graded dims for one slot pair (1-based)")
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p = cmds.add_parser("higgs", help="projective presentations over the loop algebra")
    add_source_args(p)
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


def outcome(parse, argv):
    """What `argv` comes to: ("exit", code) for a usage error or help, else
    the job `_job_from_args` builds, or ("refused", message) if it refuses."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return ("exit", exc.code), out.getvalue(), err.getvalue()
    try:
        return cli._job_from_args(args), "", ""
    except GuardError as exc:
        return ("refused", str(exc)), "", ""


# each option as the argparse reference declares it, with values to draw
# (None: a flag); QFILE stands for a readable quiver file
_OPTION_VALUES = {
    "--type": ["A1", "A2", "a 3", " D4", "E6", "Q9", ""],
    "--orient": ["2->1", "1->2 2->3", "x", "-1"],
    "--file": ["QFILE", "nofile"],
    "--format": ["text", "json", "dot", "tsv", "Text"],
    "--table": None,
    "--pair": ["1", "2", "-1", "+3", " 4", "x", "1.0"],
    "--phi": ["1", "5", "-2", "x", " 3"],
    "--omega-orbit": ["1", "7", "٣", "0x1"],
    "--lift": ['{"p1": [1], "p0": [1], "matrix": [[["1", 1]]]}', "[1]", "@nofile", "-x y"],
    "--word": ["1 2 -1", "1,2", "-1", "x", ""],
    "--star": None,
}
_COMMAND_OPTIONS = {
    "quiver": ["--type", "--orient", "--file", "--format"],
    "ar": ["--type", "--orient", "--file", "--format"],
    "mpr": ["--type", "--orient", "--file", "--format"],
    "ice": ["--type", "--orient", "--file", "--format"],
    "hom": ["--type", "--orient", "--file", "--table", "--pair", "--format"],
    "higgs": ["--type", "--orient", "--file", "--phi", "--lift", "--omega-orbit", "--format"],
    "braid": ["--type", "--word", "--star", "--format"],
}

# drawn three times as often, so that more argv meet their required groups
_REQUIRED = {"hom": ["--table", "--pair"], "higgs": ["--phi", "--lift", "--omega-orbit"],
             "braid": ["--type", "--word"]}


def _given_option(name):
    """One option on the command line: its name or a prefix of it, then its
    value(s), separate or attached by '='."""
    spelling = st.just(name) | st.integers(4, len(name) - 1).map(lambda k: name[:k])
    values = _OPTION_VALUES[name]
    if values is None:
        return spelling.map(lambda s: [s])
    if name == "--pair":
        return st.tuples(spelling, st.sampled_from(values), st.sampled_from(values)).map(list)
    return st.tuples(spelling, st.sampled_from(values), st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])


# tokens that name no option, name an option of another command, are
# ambiguous, or are values in the wrong place
_NOISE = [
    "--t", "--f", "--p", "--o", "--s", "--omega", "--cache-dir", "--c", "-h", "--help", "--he", "-hh",
    "-hx", "-h=h", "-h=", "--help=x", "--bogus", "-t", "--", "-", "", "stray", "-1", "-2.5", "-x y", "-x",
    "-5\n", "--table=x", "--pair=1", "--=x", "--word", "--phi",
]
# repeated members weight a draw: about a third of the argv carry noise,
# and half start with no option
_noise = st.sampled_from([[]] * 2 * len(_NOISE) + [[t] for t in _NOISE])
_ODD_STARTS = [
    ["--cache-dir", "D"], ["--cache-dir=D"], ["--cache", "D"], ["--c", "D"], ["--cache-dir"],
    ["--cache-dir", "D", "--cache-dir", "E"], ["--bogus"], ["-h"], ["D"], ["--"],
]
_before = st.sampled_from([[]] * len(_ODD_STARTS) + _ODD_STARTS)


def _after(command):
    """Options of the command, with at most one noise token among them."""
    names = _COMMAND_OPTIONS.get(command, ["--type"]) + 2 * _REQUIRED.get(command, [])
    options = st.lists(st.one_of(*map(_given_option, names)), max_size=4)
    return st.tuples(options, _noise, st.integers(0, 4)).map(
        lambda t: [x for item in t[0][:t[2]] + [t[1]] + t[0][t[2]:] for x in item])


_argv = st.tuples(_before, st.one_of(
    st.tuples(st.sampled_from([command]), _after(command))
    for command in [*_COMMAND_OPTIONS, "frobnicate", "-h"]
)).map(lambda t: [*t[0], t[1][0], *t[1][1]])


@settings(max_examples=1000, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv)
def test_parser_agrees_with_argparse(tmp_path, monkeypatch, argv):
    """Every argv either builds the same job through `_job_from_args` on both
    parsers, is refused with the same message, or exits with the same code:
    2 for a usage error, 0 for help.  An exit 2 prints the usage and one
    error line."""
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    qfile = tmp_path / "q.txt"
    qfile.write_text("type A 2\n2 -> 1\n")
    argv = [str(qfile) if t == "QFILE" else t for t in argv]
    want, _, _ = outcome(argparse_reference().parse_args, argv)
    got, out, err = outcome(cli._parse_args, argv)
    assert got == want, argv
    if got == ("exit", 2):
        assert out == "" and len(err.splitlines()) == 2
        assert err.startswith("usage: quiverlab ") and "\nquiverlab: error: " in err


def test_parser_agrees_with_argparse_on_every_noise_token(tmp_path, monkeypatch):
    """Each noise token in each of a few places, on top of the sampled argv."""
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    contexts = [
        lambda t: [t, "quiver", "--type", "A2"],
        lambda t: ["quiver", t, "A2"],
        lambda t: ["quiver", "--type", "A2", t],
        lambda t: ["quiver", "--type", t],
        lambda t: ["quiver", "--format", t],
        lambda t: ["hom", "--type", "A2", t, "json"],
        lambda t: ["hom", "--type", "A2", "--pair", "1", t],
        lambda t: ["braid", "--word", "1", t, "A2"],
    ]
    for t in _NOISE:
        for context in contexts:
            argv = context(t)
            want, _, _ = outcome(argparse_reference().parse_args, argv)
            assert outcome(cli._parse_args, argv)[0] == want, argv


@pytest.mark.parametrize("argv, code", [
    (["braid", "--type=--", "--word", "1"], 3),  # argparse: the type [], refused
    (["braid", "--type", "A2", "--word=--"], 3),  # argparse: the word [], a traceback
    (["higgs", "--type", "A2", "--phi=--"], 2),  # argparse: the label [], a traceback
    (["quiver", "--type", "A2", "--format=--"], 2),  # argparse: the format [], rendered as json
])
def test_an_attached_double_dash_is_a_value(capsys, argv, code):
    """The one argv that the table parser reads otherwise than argparse
    (3.11), which takes an attached `--` as an empty list: here it is the
    string `--`, which no option accepts."""
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    assert capsys.readouterr().err.splitlines()[-1].startswith(("error: ", "quiverlab: error: "))


def test_exit_code_internal_failure(capsys, monkeypatch):
    from quiverlab.errors import InternalCheckError

    def boom(job):
        raise InternalCheckError("simulated")

    monkeypatch.setitem(cli._RENDERERS, "quiver", boom)
    assert cli.main(["quiver", "--type", "A1"]) == 4
    assert "simulated" in capsys.readouterr().err


def test_console_script_installed():
    exe = shutil.which("quiverlab")
    assert exe is not None
    proc = subprocess.run(
        [exe, "quiver", "--type", "A1"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "type A 1\n"
