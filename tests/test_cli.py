"""End-to-end tests of the command-line interface: rendering, file input,
the artifact cache, and exit codes."""

import json
import shutil
import subprocess

import pytest

from quiverlab import boundary
from quiverlab import cli
from quiverlab import dynkin as dy
from quiverlab import morphcat as mc
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
    assert out["dims"] == {"0": 1, "-1": 1, "-2": 1, "-3": 1}


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


def test_corrupt_cache_entry_is_a_miss(capsys, tmp_path):
    argv = ["--cache-dir", str(tmp_path), "quiver", "--type", "A2"]
    first = run_ok(capsys, argv)
    (entry,) = tmp_path.iterdir()
    entry.write_text('{"version": 1, "outp')
    assert run_ok(capsys, argv) == first
    assert json.loads(entry.read_text())["output"] == first
    assert list(tmp_path.iterdir()) == [entry]


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


def test_exit_code_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


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
