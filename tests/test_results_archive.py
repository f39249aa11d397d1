"""Integration checks for the shipped results archive (results/*.json).

The archive is produced by ``repro all --quality fast --json results/``;
CI regenerates some of it and compares bytes.  These tests keep it
loadable and complete without re-running the experiments.
"""

import pathlib

import pytest

from repro.experiments.base import SeriesResult

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

archives = sorted(RESULTS_DIR.glob("*.json")) if RESULTS_DIR.exists() else []


@pytest.mark.skipif(not archives, reason="results archive not generated")
class TestResultsArchive:
    def test_every_archive_loads(self):
        for path in archives:
            result = SeriesResult.from_json(path.read_text())
            assert result.name == path.stem
            assert result.x_values, path
            assert result.series, path

    def test_figure_archives_present(self):
        names = {path.stem for path in archives}
        for required in ("fig3", "fig4", "fig5", "fig6", "theorem1", "baseline"):
            assert required in names, f"missing archive for {required}"
