"""Entry script: ``python3 benchmarks/e2e/run.py --workload W --seed N
--seconds S --trace 0|1`` (the driver's command), or ``run`` /
``repeat`` / ``compare`` as the first argument.

Puts the repository root and ``src/`` on ``sys.path`` in place of this
directory, so the harness imports as ``benchmarks.e2e`` and the program
as ``repro`` without an install or a ``PYTHONPATH``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def bootstrap():
    # One thread per process: the sandbox has two cores and the load is
    # the harness's own; must be set before numpy loads.
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: {src}/repro not found: the benchmark measures the "
              "repository it sits in", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    for path in (src, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


if __name__ == "__main__":
    bootstrap()
    from benchmarks.e2e.cli import main

    raise SystemExit(main())
