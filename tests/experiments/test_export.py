"""Tests for CSV export and trace JSONL serialization."""

import csv
from pathlib import Path

from repro.core.messages import TraceLog
from repro.experiments.ablations import run_abl4, run_abl5
from repro.experiments.export import (
    POINT_COLUMNS,
    export_all,
    export_fig4,
    export_fig5,
    export_fig6,
    export_points,
)
from repro.experiments.fig4_efficiency import run_fig4
from repro.experiments.fig5_adaptability import run_fig5
from repro.experiments.fig6_flexibility import run_fig6
from repro.experiments.runner import _jsonable

RESULTS = Path(__file__).resolve().parents[2] / "results"


def read_csv(path):
    with path.open() as fh:
        return list(csv.reader(fh))


def test_export_fig4(tmp_path):
    result = _jsonable(run_fig4(n_agents=10, step=5))
    path = export_fig4(result, tmp_path / "fig4.csv")
    rows = read_csv(path)
    assert rows[0] == ["protocol", "conflicting_agents", "messages"]
    assert len(rows) == 1 + 3 * 2  # 3 protocols x 2 sweep points
    protocols = {r[0] for r in rows[1:]}
    assert protocols == {"flecc", "time-sharing", "multicast"}


def test_export_fig5(tmp_path):
    result = _jsonable(run_fig5(n_agents=4, ops_per_phase=3))
    path = export_fig5(result, tmp_path / "fig5.csv")
    rows = read_csv(path)
    assert rows[0] == ["time", "phase", "method_duration", "unseen_updates"]
    assert len(rows) == 1 + 9
    assert {r[1] for r in rows[1:]} == {"weak-1", "strong", "weak-2"}


def test_export_fig6(tmp_path):
    result = _jsonable(run_fig6(n_agents=4, n_methods=6))
    path = export_fig6(result, tmp_path / "fig6.csv")
    rows = read_csv(path)
    assert len(rows) == 1 + 12  # 2 variants x 6 method calls
    assert {r[0] for r in rows[1:]} == {
        "explicit pulls only", "with pull trigger"
    }


def test_export_abl4_and_abl5(tmp_path):
    p4 = export_points(
        "abl4_centralization", _jsonable(run_abl4(view_counts=(2, 10))),
        tmp_path / "abl4.csv",
    )
    rows = read_csv(p4)
    assert rows[1] == ["2", "8", "12"]
    p5 = export_points(
        "abl5_rw_semantics",
        _jsonable(run_abl5(read_fractions=(0.0, 1.0), n_agents=3, n_ops=3)),
        tmp_path / "abl5.csv",
    )
    rows5 = read_csv(p5)
    assert rows5[0] == ["read_fraction", "rw_aware_messages", "write_only_messages"]
    assert len(rows5) == 3


def test_export_all_reads_the_records_and_writes_the_committed_csvs(tmp_path):
    """Nothing re-runs: every CSV comes from a ``results/<name>.json``
    record, byte for byte what ``results/csv`` holds."""
    written = export_all(str(RESULTS), str(tmp_path))
    assert len(written) == 4 + len(POINT_COLUMNS)
    for path in written:
        assert path.read_bytes() == (RESULTS / "csv" / path.name).read_bytes()


class TestTraceJsonl:
    def test_roundtrip(self):
        log = TraceLog()
        log.record(1.0, "dir", "REGISTER", view="v1")
        log.record(2.5, "cm:v1", "send:PUSH")
        text = log.to_jsonl()
        back = TraceLog.from_jsonl(text)
        assert back.sequence() == log.sequence()
        assert back.events[0].detail == {"view": "v1"}
        assert back.events[1].time == 2.5

    def test_empty(self):
        assert TraceLog.from_jsonl("").events == []

    def test_blank_lines_skipped(self):
        log = TraceLog()
        log.record(0.0, "a", "E")
        assert len(TraceLog.from_jsonl(log.to_jsonl() + "\n\n")) == 1
