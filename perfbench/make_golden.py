"""Regenerate golden.json: reference data for the benchmark's checks.

    PYTHONPATH=src python3 perfbench/make_golden.py

Records the frozen (`dzero`/`done`) label numbers that `--omega-orbit` jobs
may use, and the stdout sha256 of every job that the CLI workloads generate for
seeds 0 to 5.  Run it only when an artifact is meant to change,
and say why in the change that commits the new file.
"""
import hashlib
import itertools
import json
import os
import subprocess
import sys

import checks
import jobs as J

SEEDS = range(6)


def main() -> int:
    from quiverlab import dynkin, morphcat

    frozen = {}
    for t in J.PHI_TYPES:
        labels = morphcat.mpr_indecomposables(dynkin.build_quiver(t))
        frozen[t] = [n for n, lab in enumerate(labels, 1) if lab.kind in ("dzero", "done")]
    path = os.path.join(J.HERE, "golden.json")
    # jobs.py reads the frozen labels back while generating the passes below
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"frozen_labels": frozen, "digests": {}}, fh)
    J.golden.cache_clear()

    digests = {}
    for workload, seed in itertools.product(("catalog", "presentations", "braids"), SEEDS):
        outputs = {}
        for k, job in enumerate(J.cli_jobs(workload, seed)):
            argv = list(job["argv"])
            if "lift_of" in job:
                argv.append(outputs[job["lift_of"]])
            p = subprocess.run([sys.executable, "-m", "quiverlab.cli", *argv],
                               capture_output=True, text=True, check=True)
            reason = checks.check(job, p.stdout)
            if reason is not None:
                raise SystemExit(f"{' '.join(argv)}: {reason}")
            outputs[k] = p.stdout
            digests[json.dumps(argv)] = hashlib.sha256(p.stdout.encode()).hexdigest()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"frozen_labels": frozen, "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
