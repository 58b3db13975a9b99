"""quiverlab benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; quiverlab is imported from ``src``.
Workloads (see README.md for why each exists):

  catalog        module-category artifacts, each job cold and then replayed
                 from its disk cache, one fresh `quiverlab` process per run
  presentations  `higgs` jobs: phi images, phi -> lift round trips, omega orbits
  braids         `braid` jobs: Garside normal forms of seeded signed words
  crosscheck     independent-route comparisons inside one library process

With ``--trace 0`` the end-to-end metrics are measured for ``--seconds``.
With ``--trace 1`` one round of the workload's pass runs once plain and once
with every layer function wrapped, giving the per-layer metrics and the
tracing overhead.  The gated times are CPU seconds (user + system) of the
processes doing the work, scaled to a reference host (`reference.py`); raw
wall times are printed beside them.  The last line of stdout
is the result object; a fuller report goes to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import jobs as J
import tracer
from reference import Reference, children_cpu_s, process_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("catalog", "presentations", "braids", "crosscheck")
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 120
# f_presentation raises on these labels (default orientation); reported, not filtered
KNOWN_FPRES_DEFECT = {"D4": {11, 12, 13, 14}, "D5": {19, 20, 21, 22, 23}}
GATED = ("setup_s", "op_cpu_gmean_s", "ops_per_cpu_s", "repeat_cpu_gmean_s", "peak_rss_mb")


def unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_s") or name.endswith("_per_cpu_s"):
        return "1/s"
    if name.endswith("_s") or ".rref_s." in name:
        return "s"
    if name.endswith("_bytes_computed"):
        return "B"
    if name.endswith("_rate") or name.endswith("_frac"):
        return "ratio"
    return "count"


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            self.reasons.append(f"{what}: {reason}")


def job_env() -> dict:
    # an inherited cache dir would turn cold jobs into replays; the bytecode
    # cache under src/ is written once and then read, as for an installed package
    env = {k: v for k, v in os.environ.items()
           if k not in ("QUIVERLAB_CACHE_DIR", "QUIVERLAB_BACKEND", "PYTHONPATH",
                         "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    return env


def steal_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs so far, or None where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_process(cmd: list[str], env: dict) -> tuple[float, float, int | None, str, str]:
    """(cpu_s, wall_s, exit code, stdout, stderr) of one child process.  Only
    one child runs at a time, so the growth of the reaped children's rusage
    is this child's CPU time."""
    c0, t0 = children_cpu_s(), time.perf_counter()
    try:
        p = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return (children_cpu_s() - c0, time.perf_counter() - t0, None, "",
                f"timed out after {JOB_TIMEOUT_S} s")
    return children_cpu_s() - c0, time.perf_counter() - t0, p.returncode, p.stdout, p.stderr


def setup(workload: str, seed: int, env: dict, ref: Reference):
    """Generate the inputs, make the run's temp dir and import quiverlab in a
    fresh interpreter; repeated, and the median CPU time reported, each
    set-up scaled by the reference sampled right after it."""
    probe = ("import numpy, quiverlab.cli, quiverlab._kernels as K; "
             "print(numpy.__version__, K.BACKEND)")
    times, tmp = [], None
    for _ in range(SETUP_REPEATS):
        if tmp is not None:
            shutil.rmtree(tmp)
        c0 = time.process_time()
        if workload == "crosscheck":
            inputs = J.crosscheck_ops(seed)
        else:
            inputs = J.cli_jobs(workload, seed)
        tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        child_s, _, rc, out, err = run_process([sys.executable, "-c", probe], env)
        cpu_s = time.process_time() - c0 + child_s
        if rc != 0:
            shutil.rmtree(tmp)
            raise SystemExit(f"quiverlab does not import from {SRC}:\n{err}")
        ref.sample()
        times.append(cpu_s * ref.scale())
    numpy_version, backend = out.split()
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy_version, "backend": backend, "machine": platform.machine()}
    return inputs, tmp, statistics.median(times), machine


# ---------------------------------------------------------------------------
# CLI workloads


def rounds(n_jobs: int, deadline: float | None):
    """(round, job) pairs: the whole pass once, then more rounds until the
    deadline; without a deadline, one round."""
    r = 0
    while True:
        for k in range(n_jobs):
            if r > 0 and (deadline is None or time.perf_counter() >= deadline):
                return
            yield r, k
        r += 1


def cli_loop(jobs: list[dict], tmp: Path, env: dict, tally: Tally, ref: Reference,
             deadline: float | None, traced: bool) -> dict:
    """Run the pass round after round, each job cold against an empty cache
    dir and then replayed from it.  The reference is sampled before every
    job and once at the end, so each cold run is scaled by the sample right
    before it and each replay by the sample right after it.  Returns every
    job's (scaled cpu, wall) samples per phase and, if traced, the layer
    sums."""
    golden = J.golden()["digests"]
    samples = {phase: [[] for _ in jobs] for phase in ("cold", "replay")}
    per_job, layers, outputs = [], {}, {}
    start, cpu = time.perf_counter(), 0.0
    for r, k in rounds(len(jobs), deadline):
        job = jobs[k]
        argv = list(job["argv"])
        what = " ".join(argv)
        if "lift_of" in job:
            if job["lift_of"] not in outputs:
                tally.record(what, "its phi job failed")
                continue
            argv.append(outputs[job["lift_of"]])
        cache = tmp / f"cache-{r}-{k}"
        first = None
        ref.sample()
        for phase in ("cold", "replay"):
            spans = tmp / f"spans-{k}-{phase}.json"
            prefix = ([sys.executable, str(HERE / "job_trace.py"), str(spans)] if traced
                      else [sys.executable, "-m", "quiverlab.cli"])
            cpu_s, wall_s, rc, out, err = run_process(
                prefix + ["--cache-dir", str(cache), *argv], env)
            # index of the adjacent reference sample; the replay's is taken next
            samples[phase][k].append((cpu_s, wall_s, len(ref.samples) - (phase == "cold")))
            cpu += cpu_s
            if rc != 0:
                reason = f"exit code {rc}: {err.strip()[-300:]}"
            elif phase == "cold":
                reason = checks.check(job, out)
                digest = hashlib.sha256(out.encode()).hexdigest()
                if reason is None and golden.get(json.dumps(argv), digest) != digest:
                    reason = "stdout differs from the golden digest"
                if reason is None and len(list(cache.glob("*.json"))) != 1:
                    reason = "the cold run wrote no cache entry"
                first = out
            else:
                reason = None if out == first else "replay differs from the cold output"
            tally.record(f"{phase} {what}", reason)
            if phase == "cold":
                outputs.pop(k, None)
                if reason is None and job["expect"]["command"] == "phi":
                    outputs[k] = out
            if traced and spans.exists():
                with open(spans, encoding="utf-8") as fh:
                    data = json.load(fh)
                spans.unlink()
                m = tracer.layer_metrics(data["spans"])
                m["cli.numpy_import_s"] = data["numpy_import_s"]
                m["cli.import_s"] = data["import_s"]
                for name, v in m.items():
                    layers[name] = layers.get(name, 0) + v
                per_job.append({"job": what[:120], "phase": phase, "cpu_s": cpu_s,
                                "wall_s": wall_s, "rref_calls": m["kernels.rref_calls"]})
            if rc != 0:
                break  # no replay of a failed cold run
    ref.sample()
    for xs in samples["cold"] + samples["replay"]:
        xs[:] = [(c * ref.scale(i), w) for c, w, i in xs]
    return {**samples, "loop_s": time.perf_counter() - start, "loop_cpu_s": cpu,
            "layers": layers, "jobs": per_job}


def cli_metrics(r: dict) -> dict:
    cold_cpu = [[c for c, _ in xs] for xs in r["cold"]]
    cold_wall = [w for xs in r["cold"] for _, w in xs]
    return {
        **cpu_metrics(cold_cpu, [[c for c, _ in xs] for xs in r["replay"]],
                      list(range(len(cold_cpu)))),
        "job_p50_s": {"value": statistics.median(cold_wall), "samples": len(cold_wall)},
        "job_p90_s": p90(cold_wall),
        "jobs_per_s": {"value": len(cold_wall) / r["loop_s"], "samples": len(cold_wall)},
        "replay_p50_s": {"value": statistics.median(w for xs in r["replay"] for _, w in xs),
                         "samples": sum(map(len, r["replay"]))},
    }


# ---------------------------------------------------------------------------
# crosscheck


def crosscheck_run(spec: dict, tmp: Path, env: dict, tally: Tally, seconds: float,
                   traced: bool) -> dict:
    ops = spec["ops"]
    spec_path, out_path = tmp / "ops.json", tmp / f"crosscheck-{int(traced)}.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    cmd = [sys.executable, str(HERE / "crosscheck.py"), str(spec_path), str(out_path),
           str(seconds), str(int(traced))]
    _, wall_s, rc, _, err = run_process(cmd, env)
    if rc != 0:
        raise SystemExit(f"crosscheck process failed with exit code {rc}:\n{err}")
    with open(out_path, encoding="utf-8") as fh:
        r = json.load(fh)
    out_path.unlink()
    r["wall_s"] = wall_s
    for phase in ("cold", "warm"):
        for k, (_, status, detail) in enumerate(r[phase]):
            route, t, *args = ops[k % len(ops)]
            what = f"{phase} {route} {t} {' '.join(map(str, args))}"
            tally.record(what, None if status == "ok" else f"{status}: {detail}")
    return r


def fpres_report(r: dict) -> dict:
    """Sort the untimed f_presentation sweep into the known defect, labels
    that raise unexpectedly, and known labels that no longer raise."""
    known, unexpected, fixed = [], [], []
    for t, label, status, detail in r["fpres"]:
        is_known = label in KNOWN_FPRES_DEFECT.get(t, ())
        if status == "internal" and is_known:
            known.append(f"{t} {label}")
        elif status != "ok":
            unexpected.append(f"{t} {label}: {status}: {detail}")
        elif is_known:
            fixed.append(f"{t} {label}")
    return {"labels": len(r["fpres"]), "known": known, "unexpected": unexpected, "fixed": fixed}


def crosscheck_metrics(r: dict, ops: list) -> dict:
    n = len(ops)
    cold = [[op[0]] for op in r["cold"]]
    warm: list[list[float]] = [[] for _ in range(n)]
    for k, op in enumerate(r["warm"]):
        warm[k % n].append(op[0])
    every = [op[0] for op in r["cold"] + r["warm"]]
    return {
        # grouped by (route, type): comparisons of one route cost alike and
        # routes differ tenfold, so single comparisons would weight the mix
        **cpu_metrics(cold, warm, [tuple(op[:2]) for op in ops]),
        "check_p90_s": p90(every),
        "checks_per_s": {"value": len(every) / r["wall_s"], "samples": len(every)},
    }


# ---------------------------------------------------------------------------
# reporting


def cpu_metrics(first: list[list[float]], repeat: list[list[float]], groups: list) -> dict:
    """Timings from per-operation samples in reference-host CPU seconds.
    Each operation's time is its median over rounds.  The gated typical
    times are geometric means over groups of the mean time of their
    operations: a median over a pass of a dozen unlike jobs jumps from one
    job to another with the seed.  The rate is operations over the summed
    time of the whole pass."""
    def by_group(per_op: list[list[float]]) -> list[float]:
        groups_seen: dict = {}
        for g, xs in zip(groups, per_op):
            if xs:
                groups_seen.setdefault(g, []).append(statistics.median(xs))
        return [statistics.fmean(v) for v in groups_seen.values()]

    per_op = [statistics.median(xs) for xs in first if xs]
    n_first, n_repeat = sum(map(len, first)), sum(map(len, repeat))
    return {
        "op_cpu_gmean_s": {"value": statistics.geometric_mean(by_group(first)), "samples": n_first},
        "op_cpu_p50_s": {"value": statistics.median(by_group(first)), "samples": n_first},
        "ops_per_cpu_s": {"value": len(per_op) / sum(per_op), "samples": n_first},
        "repeat_cpu_gmean_s": {"value": statistics.geometric_mean(by_group(repeat)),
                               "samples": n_repeat},
        "repeat_cpu_p50_s": {"value": statistics.median(by_group(repeat)), "samples": n_repeat},
    }


def p90(samples: list[float]) -> dict:
    """The 90th percentile; valid only with at least ten samples beyond it."""
    value = statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]
    beyond = sum(x > value for x in samples)
    return {"value": value, "samples": len(samples), "valid": beyond >= 10}


def peak_rss_mb() -> dict:
    # ru_maxrss of the largest child waited for: a job process or the crosscheck process
    return {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "samples": 1}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "quiverlab" / "cli.py").is_file():
        print(f"error: no quiverlab sources under {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    env = job_env()
    ref = process_reference(env)
    inputs, tmp, setup_s, machine = setup(args.workload, args.seed, env, ref)
    tally = Tally()
    kind = "crosscheck" if args.workload == "crosscheck" else "cli"
    report: dict = {}
    extra: dict = {}
    steal0 = steal_jiffies()
    try:
        if args.trace == 0 and kind == "cli":
            deadline = time.perf_counter() + args.seconds
            r = cli_loop(inputs, tmp, env, tally, ref, deadline, False)
            report.update(cli_metrics(r))
            extra["jobs"] = [{"job": " ".join(job["argv"])[:120], "cold": r["cold"][k],
                              "replay": r["replay"][k]} for k, job in enumerate(inputs)]
        elif args.trace == 0:
            r = crosscheck_run(inputs, tmp, env, tally, args.seconds, False)
            report.update(crosscheck_metrics(r, inputs["ops"]))
            report["reference_loop_cpu_s"] = {"value": statistics.median(r["ref"]),
                                              "samples": len(r["ref"])}
            extra["f_presentation"] = fpres_report(r)
        elif kind == "cli":
            (tmp / "plain").mkdir()
            (tmp / "traced").mkdir()
            plain = cli_loop(inputs, tmp / "plain", env, tally, ref, None, False)
            traced = cli_loop(inputs, tmp / "traced", env, tally, ref, None, True)
            layers = traced["layers"]
            layers["trace.overhead_frac"] = traced["loop_cpu_s"] / plain["loop_cpu_s"] - 1
            extra["jobs"] = traced["jobs"]
        else:
            plain = crosscheck_run(inputs, tmp, env, tally, 0, False)
            traced = crosscheck_run(inputs, tmp, env, tally, 0, True)
            layers = tracer.layer_metrics(traced["spans"])
            layers["cli.numpy_import_s"] = traced["numpy_import_s"]
            layers["cli.import_s"] = traced["import_s"]
            layers["trace.overhead_frac"] = traced["cold_s"] / plain["cold_s"] - 1
            extra["f_presentation"] = fpres_report(traced)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    steal1 = steal_jiffies()
    if steal0 and steal1 and steal1[1] > steal0[1]:
        machine["steal_frac"] = (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    report["setup_s"] = {"value": setup_s, "samples": SETUP_REPEATS}
    report["reference_cpu_s"] = {"value": statistics.median(ref.samples),
                                 "samples": len(ref.samples)}
    report["peak_rss_mb"] = peak_rss_mb()
    report["error_rate"] = {"value": tally.failed / max(tally.attempted, 1),
                            "samples": tally.attempted}

    if args.trace == 0:
        metrics = {name: report[name]["value"] for name in GATED}
        shown = report
    else:
        metrics = {name: layers.get(name, 0) for name in tracer.metric_names()}
        shown = {name: {"value": v} for name, v in metrics.items()}
    for name, m in shown.items():
        note = f"  (n={m['samples']})" if "samples" in m else ""
        if m.get("valid") is False:
            note += " too few samples beyond the percentile"
        print(f"{name:34s} {m['value']:14.6g} {unit(name)}{note}")
    if "steal_frac" in machine:
        print(f"host steal during the run: {machine['steal_frac']:.1%} of CPU time")
    fpres = extra.get("f_presentation")
    if fpres:
        print(f"f_presentation, untimed sweep of {fpres['labels']} labels, raises "
              f"on the known defect: {', '.join(fpres['known']) or 'none'}")
        for line in fpres["unexpected"]:
            print(f"  unexpected: {line}")
        if fpres["fixed"]:
            print(f"  no longer raises on {', '.join(fpres['fixed'])}: update KNOWN_FPRES_DEFECT")
    if tally.failed:
        print(f"{tally.failed} of {tally.attempted} operations failed, first ones:")
        for reason in tally.reasons[:10]:
            print("  " + reason)
    result_dir = WORK / "results"
    result_dir.mkdir(exist_ok=True)
    with open(result_dir / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine,
                   "metrics": {k: {**v, "unit": unit(k)} for k, v in shown.items()},
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.reasons, **extra}, fh, indent=1)
    print(json.dumps({
        "correct": tally.failed == 0 and not (fpres and fpres["unexpected"]),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
