"""Independent-route comparisons inside one long-lived library process.

    python perfbench/crosscheck.py OPS.json RESULT.json SECONDS TRACE

Runs every comparison of OPS.json once (the cold round, memo caches filling
as it goes), then repeats the list on warm memo caches: at least one whole
round, and more while SECONDS of wall time have not passed since the first
comparison.  SECONDS = 0 runs the cold round only.  Each comparison is
timed in CPU seconds of this process and scaled by the latest sample of
the reference loop (`reference.py`), run every 0.25 s between
comparisons.  After the timed rounds, `morphcat.f_presentation` runs once
on every label listed in OPS.json, untimed, and the labels on which it
raises are reported.
With TRACE = 1 the layer functions are wrapped (see `tracer.py`) and the
spans go into RESULT.json with the per-comparison timings.

Comparisons (built by `jobs.crosscheck_ops`):
  gamma  thm1_hom(i, P_x, j, P_y) against the oracle gamma_hom
  thm2   thm2_hom(i, P_x, functor_D(j, P_y)) against thm1_hom
  ext1   ext1_dim(a, b) against hom_dim(a, b) - euler_form(a, b)
"""
import json
import sys
import time

import tracer
from reference import loop_reference

clock = time.process_time


def main() -> int:
    ops_path, out_path, seconds, trace = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1"
    with open(ops_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    ops, labels = spec["ops"], spec["fpres_labels"]
    t0 = clock()
    import numpy  # noqa: F401
    t1 = clock()
    import quiverlab  # noqa: F401
    t2 = clock()
    rec = tracer.Recorder()
    if trace:
        tracer.install(rec)
    from quiverlab import boundary, dynkin, morphcat, reps
    from quiverlab.errors import InternalCheckError

    def projective(q, v):
        return reps.IndecLabel(q, v, 0)

    def run(op):
        route, t, *args = op
        q = dynkin.build_quiver(t)
        if route == "gamma":
            i, x, j, y = args
            a = boundary.thm1_hom(i, projective(q, x), j, projective(q, y))
            b = boundary.gamma_hom(i, projective(q, x), j, projective(q, y))
        elif route == "thm2":
            i, x, j, y = args
            a = boundary.thm2_hom(i, projective(q, x), morphcat.functor_D(j, projective(q, y)))
            b = boundary.thm1_hom(i, projective(q, x), j, projective(q, y))
        elif route == "ext1":
            items = reps.list_indecomposables(q)
            ra, rb = items[args[0]][1], items[args[1]][1]
            a = reps.ext1_dim(ra, rb)
            b = reps.hom_dim(ra, rb) - reps.euler_form(q, ra.dim_vector(), rb.dim_vector())
        else:
            raise ValueError(f"unknown route {route!r}")
        return ("ok", "") if a == b else ("unequal", f"{a!r} != {b!r}")

    def timed(op):
        start = clock()
        try:
            status, detail = run(op)
        except Exception as exc:  # noqa: BLE001 - a failed comparison, reported
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        return [(clock() - start) * ref.scale(), status, detail]

    ref = loop_reference()
    deadline = time.perf_counter() + seconds
    ref.sample()
    cold, warm, cold_s = [], [], 0.0
    for op in ops:
        ref.sample_if_due()
        cold.append(timed(op))
        cold_s += cold[-1][0]
    if seconds > 0:
        while time.perf_counter() < deadline or len(warm) < len(ops):
            ref.sample_if_due()
            warm.append(timed(ops[len(warm) % len(ops)]))

    fpres = []  # [type, label, status, detail]
    for t, label in labels:
        try:
            morphcat.f_presentation(morphcat.label_by_number(dynkin.build_quiver(t), label))
            fpres.append([t, label, "ok", ""])
        except InternalCheckError as exc:
            fpres.append([t, label, "internal", str(exc)])
        except Exception as exc:  # noqa: BLE001 - reported as an unexpected failure
            fpres.append([t, label, "error", f"{type(exc).__name__}: {exc}"])
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"numpy_import_s": t1 - t0, "import_s": t2 - t1, "cold": cold, "cold_s": cold_s,
                   "warm": warm, "ref": ref.samples, "fpres": fpres, "spans": rec.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
