"""The paper's recorded results are reproduced exactly.

Each committed ``results/<name>.json`` was written by the experiment
runner; a default run of the same experiment today must produce the
same ``result`` document — run in this process, and through the
suite's task path on a two-worker pool.  These twelve experiments are
deterministic (simulated time, seeded randomness), so any difference is
a change in protocol behaviour, message counts or figures — not noise.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.runner import execute, registry, run_kwargs, run_suite

RESULTS = Path(__file__).resolve().parents[2] / "results"
RECORDED = sorted(path.stem for path in RESULTS.glob("*.json"))


def test_every_deterministic_record_is_committed():
    assert len(RECORDED) == 12
    assert set(RECORDED) <= set(registry())


@pytest.mark.parametrize("name", RECORDED)
def test_fresh_run_matches_recorded_result(name):
    exp = registry()[name]
    record = execute(exp, run_kwargs(exp))
    fresh = json.loads(json.dumps(record["result"]))
    recorded = json.loads((RESULTS / f"{name}.json").read_text())["result"]
    assert fresh == recorded


@pytest.fixture(scope="module")
def pooled(tmp_path_factory):
    """All twelve records from one ``--jobs 2`` suite run."""
    out = tmp_path_factory.mktemp("jobs2")
    records = run_suite(RECORDED, str(out), jobs=2)
    return {record["experiment"]: record for record in records}


@pytest.mark.parametrize("name", RECORDED)
def test_two_job_suite_matches_recorded_result(pooled, name):
    recorded = json.loads((RESULTS / f"{name}.json").read_text())["result"]
    assert pooled[name]["result"] == recorded
