"""``python -m benchmarks.e2e``: same entry as ``run.py``."""

from benchmarks.e2e.run import bootstrap

bootstrap()

from benchmarks.e2e.cli import main  # noqa: E402

raise SystemExit(main())
