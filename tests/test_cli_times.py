"""The summary of ``scripts/cli_times.py`` on hand-made samples."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cli_times.py"


@pytest.fixture(scope="module")
def cli_times():
    spec = importlib.util.spec_from_file_location("cli_times", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_of_fixed_samples(cli_times):
    samples = {
        "decompose": {"parent": [90.0, 92.0, 94.0, 96.0, 98.0],
                      "change": [80.0, 93.0, 78.0, 77.0, 79.0]},
        "check": {"parent": [120.0, 120.0, 125.0], "change": [120.0, 130.0, 110.0]},
    }
    summary = cli_times.summarize(samples)
    assert list(summary) == ["decompose", "check"]
    decompose = summary["decompose"]
    assert decompose["parent"] == [92.0, 94.0, 96.0]
    assert decompose["change"] == [78.0, 79.0, 80.0]
    assert decompose["change_wins"] == "4/5"
    assert decompose["change_minus_parent"] == round((79.0 - 94.0) / 94.0, 4)
    check = summary["check"]
    assert check["change_wins"] == "1/3"  # the tie counts for neither side
    assert check["change_minus_parent"] == 0.0

