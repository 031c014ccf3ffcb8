"""The canonical end-to-end benchmark (see ``README.md`` here and
``BENCHMARK.json`` at the repository root)."""
