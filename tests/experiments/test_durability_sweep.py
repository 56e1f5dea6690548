"""The durability sweep's point families and acceptance gates."""

import pytest

from repro.experiments.durability_sweep import (
    CUT_KILL_POINTS,
    CUT_WINDOWS,
    FSYNC_POLICIES,
    KILL_POINTS,
    RECOVERY_TAILS,
    bench_payload,
    gates,
    merge_durability_sweep,
    run_cut_kill_point,
    run_kill_point,
    run_overhead_points,
    run_recovery_point,
    run_sweep_point,
    sweep_points,
)


def test_sweep_points_cover_all_families():
    points = sweep_points()
    # One overhead point times every fsync policy in alternation.
    assert len(points) == 1 + len(RECOVERY_TAILS) + sum(
        count for _, count in KILL_POINTS
    ) + CUT_KILL_POINTS
    assert sum(1 for p in points if p[0] == "kill") >= 50
    assert {p[1] for p in points if p[0] == "kill"} == {1, 4}
    assert [p for p in points if p[0] == "cut"] == [
        ("cut", 4, i) for i in range(CUT_KILL_POINTS)
    ]


def test_recovery_point_replays_the_tail():
    p = run_recovery_point(16)
    assert p.tail_len == 16
    # fsync=batch: the kill may lose the unsynced window, never more.
    assert 16 - 16 // 2 <= p.cells_replayed <= 16
    assert p.recovery_ms > 0


@pytest.mark.parametrize("n_shards", [1, 4])
def test_kill_point_zero_lost_writes_and_parity(n_shards):
    p = run_kill_point(("kill", n_shards, 0), seed=0)
    assert p.lost_writes == 0
    assert p.parity
    assert p.recoveries >= 1


@pytest.mark.parametrize("index", range(len(CUT_WINDOWS)))
def test_cut_kill_point_zero_lost_writes_and_parity(index):
    p = run_cut_kill_point(("cut", 4, index), seed=0)
    assert p.window == CUT_WINDOWS[index]
    assert p.lost_writes == 0
    assert p.parity
    assert p.recoveries >= 1
    # Down at the first data request, the shard keeps the provisional
    # cut in place; otherwise the cut re-homes all four views.
    assert p.views_rehomed == (0 if p.window == "across" else 4)


def test_kill_point_deterministic_per_seed():
    a = run_kill_point(("kill", 1, 1), seed=3)
    b = run_kill_point(("kill", 1, 1), seed=3)
    assert a == b


def test_overhead_point_volatile_has_no_wal_traffic():
    points = run_overhead_points(repeats=1, burst=16)
    assert [p.policy for p in points] == [
        p or "volatile" for p in FSYNC_POLICIES
    ]
    p = points[0]
    assert p.policy == "volatile"
    assert p.wal_appends == 0 and p.wal_syncs == 0
    assert p.commits > 0


def test_merge_routes_partials_by_type():
    points = [("overhead",), ("recovery", 16), ("kill", 1, 0), ("cut", 4, 0)]
    partials = [run_sweep_point(p, seed=0) for p in points]
    result = merge_durability_sweep(points, partials)
    assert len(result.overhead) == len(FSYNC_POLICIES)
    assert len(result.recovery) == 1
    assert len(result.kills) == 1
    assert len(result.cut_kills) == 1
    payload = bench_payload(result)
    assert payload["kill_points"] == 1 and payload["kill_failures"] == 0


def _passing_payload():
    kill = {
        "n_shards": 1, "index": 0, "lost_writes": 0, "parity": True,
        "injection": "torn", "torn_truncated": True, "snapshots_skipped": 1,
    }
    kills = []
    for i in range(50):
        k = dict(kill, index=i)
        k["n_shards"] = 4 if i % 2 else 1
        k["injection"] = ("none", "torn", "snap")[i % 3]
        kills.append(k)
    cut_kills = [
        {"index": i, "shard": i // 3, "window": CUT_WINDOWS[i % 3],
         "lost_writes": 0, "parity": True,
         "views_rehomed": 0 if CUT_WINDOWS[i % 3] == "across" else 4}
        for i in range(CUT_KILL_POINTS)
    ]
    return {"kills": kills, "cut_kills": cut_kills,
            "batch_overhead_ratio": 1.2}


def test_check_acceptance_passes_a_clean_payload():
    assert gates(_passing_payload()) == []


def test_check_acceptance_flags_each_gate():
    lost = _passing_payload()
    lost["kills"][3]["lost_writes"] = 2
    assert any("lost committed write" in p for p in gates(lost))

    split = _passing_payload()
    split["kills"][7]["parity"] = False
    assert any("differs from crash-free" in p for p in gates(split))

    slow = _passing_payload()
    slow["batch_overhead_ratio"] = 2.0
    assert any("overhead" in p for p in gates(slow))

    few = _passing_payload()
    few["kills"] = few["kills"][:10]
    assert any("kill points" in p for p in gates(few))

    single = _passing_payload()
    for k in single["kills"]:
        k["n_shards"] = 1
    assert any("N=4" in p for p in gates(single))

    uninjected = _passing_payload()
    for k in uninjected["kills"]:
        k["injection"] = "none"
        k["torn_truncated"] = False
        k["snapshots_skipped"] = 0
    problems = gates(uninjected)
    assert any("'torn'" in p for p in problems)
    assert any("'snap'" in p for p in problems)


def test_check_acceptance_flags_each_cut_gate():
    lost = _passing_payload()
    lost["cut_kills"][2]["lost_writes"] = 1
    assert any("cut kill point #2" in p for p in gates(lost))

    split = _passing_payload()
    split["cut_kills"][5]["parity"] = False
    assert any("cut kill point #5" in p for p in gates(split))

    no_before = _passing_payload()
    no_before["cut_kills"] = [
        k for k in no_before["cut_kills"] if k["window"] != "before"
    ]
    assert any("no cut kill point before" in p for p in gates(no_before))

    never_cut = _passing_payload()
    for k in never_cut["cut_kills"]:
        k["views_rehomed"] = 0
    assert any("re-cut the placement" in p for p in gates(never_cut))

    cut_while_down = _passing_payload()
    cut_while_down["cut_kills"][1]["views_rehomed"] = 4
    assert any("with a shard down" in p for p in gates(cut_while_down))
