"""Run one quiverlab CLI job in this fresh process with tracing installed.

    python perfbench/job_trace.py SPANS.json [quiverlab arguments...]

Times ``import numpy`` and then ``import quiverlab.cli`` in CPU seconds,
wraps the layer functions (see `tracer.py`), calls ``quiverlab.cli.main``
and, at exit, writes the import times and every span to SPANS.json.  The
job's stdout and exit code are the CLI's own.
"""
import json
import sys
import time

import tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.process_time()
    import numpy  # noqa: F401
    t1 = time.process_time()
    import quiverlab.cli as cli
    t2 = time.process_time()
    rec = tracer.Recorder()
    tracer.install(rec)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"numpy_import_s": t1 - t0, "import_s": t2 - t1, "spans": rec.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
