"""Timing-free suite reports, compared byte for byte with the files in ``data/reports``.

A change that keeps every clause, witness and parameter keeps these files.
To record them again after an intended change to a report:

    PYTHONPATH=src python tests/test_pinned_reports.py
"""

from pathlib import Path

import pytest

from superalg.suites import SUITES, run_suite

REPORTS = Path(__file__).resolve().parent / "data" / "reports"

# file stem -> (suite, parameters); every suite at its defaults, plus scaled-up runs.
PINNED = {name: (name, {}) for name in SUITES}
PINNED["landi-n3"] = ("landi", {"n": 3})
PINNED["sphere-projector-n2"] = ("sphere-projector", {"n": 2})


def report_text(stem: str) -> str:
    suite, params = PINNED[stem]
    return run_suite(suite, **params).to_json_text(include_timing=False) + "\n"


@pytest.mark.parametrize("stem", sorted(PINNED))
def test_report_matches_pinned_file(stem):
    assert report_text(stem) == (REPORTS / f"{stem}.json").read_text(encoding="utf-8")


if __name__ == "__main__":
    REPORTS.mkdir(parents=True, exist_ok=True)
    for stem in PINNED:
        (REPORTS / f"{stem}.json").write_text(report_text(stem), encoding="utf-8")
