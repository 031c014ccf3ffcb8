"""Smoke tests: every example script must run and produce sane output.

Examples import heavy datasets, so each main() is run on a small
stream via its command line where it takes one, or simply executed at
its default (small) scale.  Every example runs once.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_quickstart(capsys):
    module = _load("quickstart")
    result = module.main()
    assert result.completed
    assert "windowed counts" in capsys.readouterr().out


def test_dashboard(capsys):
    module = _load("dashboard")
    result = module.main()
    out = capsys.readouterr().out
    assert "dashboard refinement" in out
    # Later outputs are at least as complete as earlier ones.
    completeness = [
        result.completeness(i) for i in range(len(result.collectors))
    ]
    assert completeness == sorted(completeness)


def test_ad_click_patterns(capsys):
    module = _load("ad_click_patterns")
    result = module.main()
    out = capsys.readouterr().out
    assert "matches" in out
    assert len(result.output_events(1)) >= len(result.output_events(0))


def test_ad_click_patterns_optimized(capsys):
    module = _load("ad_click_patterns_optimized")
    result = module.main()
    assert "coalesced" in capsys.readouterr().out
    assert len(result.output_events(1)) >= len(result.output_events(0))


def test_disorder_analysis(tmp_path, capsys):
    module = _load("disorder_analysis")
    rows = module.main(["--n", "5000", "--csv", str(tmp_path)])
    assert len(rows) == 3
    assert (tmp_path / "figure2_cloudlog.csv").exists()
    header = (tmp_path / "figure2_cloudlog.csv").read_text().splitlines()[0]
    assert header == "arrival_position,event_time"


def test_sorter_shootout(capsys):
    module = _load("sorter_shootout")
    module.main(["--dataset", "synthetic", "--n", "5000"])
    out = capsys.readouterr().out
    assert "Offline sorting" in out
    assert "Online sorting" in out


# Examples that a test above already runs and checks.
CHECKED_ABOVE = {
    "ad_click_patterns", "ad_click_patterns_optimized", "dashboard",
    "disorder_analysis", "quickstart", "sorter_shootout",
}


@pytest.mark.parametrize(
    "name",
    [p.stem for p in sorted(EXAMPLES_DIR.glob("*.py"))],
)
def test_every_example_has_main_and_docstring(name, capsys):
    module = _load(name)
    assert callable(getattr(module, "main", None)), name
    assert module.__doc__ and len(module.__doc__) > 40, name
    if name not in CHECKED_ABOVE:
        module.main()
        assert capsys.readouterr().out, name
