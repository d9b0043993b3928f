"""The committed perf trajectory: every BENCH_*.json at the repo root.

Each file holds the provenance and result lines of the paired
``bench/run.py`` runs behind one performance claim.  A file must parse,
every run in it must name the git commit it measured, and every result
line must be a correct run with no failed operation.  Every file that
claims a gain has a row in the README's table of speed claims.
"""

import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_runs_name_a_sha_and_are_correct(path):
    data = json.loads(path.read_text())
    runs = data["runs"]
    assert runs
    for run in runs:
        provenance, result = run["provenance"], run["result"]
        assert re.fullmatch(r"[0-9a-f]{40}", provenance["git_sha"] or ""), provenance
        assert result["correct"] is True, provenance
        assert result["failed"] == 0, provenance


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_a_claimed_gain_has_a_readme_row(path):
    if json.loads(path.read_text())["claim"].startswith("No gain claimed"):
        return
    rows = re.findall(r"^\| `(BENCH_\w+\.json)` \|", (ROOT / "README.md").read_text(), re.MULTILINE)
    assert path.name in rows
