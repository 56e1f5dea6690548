"""Shape tests: every paper figure's qualitative claims hold at small scale.

These are the contract the benchmarks rely on; they run the experiment
harnesses at reduced size so the full test suite stays fast.
"""

from repro.baselines.common import ProtocolName
from repro.core import messages as M
from repro.experiments.ablations import (
    run_abl1,
    run_abl2,
    run_abl3,
    run_abl4,
    run_abl5,
    run_abl6,
)
from repro.experiments.fig2_trace import run_fig2
from repro.experiments.fig4_efficiency import gates as check_fig4
from repro.experiments.fig4_efficiency import run_fig4
from repro.experiments.fig5_adaptability import gates as check_fig5
from repro.experiments.fig5_adaptability import run_fig5
from repro.experiments.fig6_flexibility import gates as check_fig6
from repro.experiments.fig6_flexibility import run_fig6


class TestFig1:
    def test_shape(self):
        from repro.experiments.fig1_deployment import gates, run_fig1

        result = run_fig1(ops_per_domain=2)
        assert gates(result) == []
        # Both remote domains got views; domain1 is served directly.
        kinds = {d: k for d, (k, _, _) in result.service.items()}
        assert kinds == {
            "domain1": "FlightDatabase",
            "domain2": "TravelAgent",
            "domain3": "TravelAgent",
        }
        assert result.seats_consistent


class TestFig2:
    def test_scenario_outcomes(self):
        r = run_fig2()
        assert r.v1_was_invalidated
        assert r.v2_saw_v1_update
        assert r.final_data == {"x": 100, "y": 2, "z": 300}

    def test_trace_contains_invalidation_round(self):
        r = run_fig2()
        events = [e.event for e in r.trace.events if e.actor == "dir"]
        assert f"send:{M.INVALIDATE}" in events
        assert M.INVALIDATE_ACK in events

    def test_trace_ordering_v2_request_precedes_invalidate(self):
        r = run_fig2()
        seq = [e.event for e in r.trace.events if e.actor == "dir"]
        assert seq.index(M.INIT_REQ) < seq.index(f"send:{M.INVALIDATE}")


class TestFig4:
    def test_shape_at_reduced_scale(self):
        result = run_fig4(n_agents=20, step=5)
        assert check_fig4(result) == []

    def test_flecc_monotone_in_conflicts(self):
        result = run_fig4(n_agents=20, step=5)
        fl = result.messages[ProtocolName.FLECC.value]
        assert all(a <= b for a, b in zip(fl, fl[1:]))

    def test_time_sharing_flat(self):
        result = run_fig4(n_agents=20, step=5)
        ts = result.messages[ProtocolName.TIME_SHARING.value]
        assert max(ts) == min(ts)

    def test_table_renders(self):
        result = run_fig4(n_agents=10, step=5)
        out = result.table().format()
        assert "flecc" in out and "multicast" in out


class TestFig5:
    def test_shape_at_reduced_scale(self):
        result = run_fig5(n_agents=6, ops_per_phase=5)
        assert check_fig5(result) == []

    def test_sample_counts(self):
        result = run_fig5(n_agents=4, ops_per_phase=4)
        assert len(result.samples) == 12
        assert {s.phase for s in result.samples} == {"weak-1", "strong", "weak-2"}

    def test_phase_stats_table(self):
        result = run_fig5(n_agents=4, ops_per_phase=3)
        out = result.table().format()
        assert "strong" in out and "weak-1" in out


class TestFig6:
    def test_shape_at_reduced_scale(self):
        result = run_fig6(n_agents=6, n_methods=9)
        assert check_fig6(result) == []

    def test_quality_never_worse_with_triggers_on_average(self):
        result = run_fig6(n_agents=6, n_methods=9)
        mean = lambda v: sum(q for _, q in v.quality_series) / len(v.quality_series)
        assert mean(result.with_triggers) <= mean(result.without_triggers)

    def test_table_renders(self):
        result = run_fig6(n_agents=4, n_methods=6)
        out = result.table().format()
        assert "with pull trigger" in out


class TestExt1:
    def test_mixed_workload_shape(self):
        from repro.experiments.mixed_workload import gates, run_ext1

        r = run_ext1(buy_fractions=(0.0, 0.5), n_clients=5, n_ops=4)
        assert gates(r) == []
        assert all(lost == 0 for _, _, _, lost in r.points)


class TestAblations:
    def test_abl1_conservative_costs_more(self):
        r = run_abl1(n_agents=8)
        assert r.messages_conservative > r.messages_dynamic
        assert r.false_conflict_overhead > 0

    def test_abl2_tradeoff_monotone(self):
        r = run_abl2(periods=(5.0, 40.0), n_agents=4, n_methods=6)
        (p1, m1, q1), (p2, m2, q2) = r.points
        assert p1 < p2 and m1 > m2 and q1 <= q2

    def test_abl3_fine_granularity_cheaper(self):
        r = run_abl3(n_agents=8)
        assert r.messages_fine < r.messages_coarse

    def test_abl5_read_fraction_monotone(self):
        r = run_abl5(read_fractions=(0.0, 0.5, 1.0), n_agents=4, n_ops=4)
        rw = [m for _, m, _ in r.points]
        wo = [m for _, _, m in r.points]
        assert rw[0] == wo[0]                 # all writes: identical cost
        assert rw == sorted(rw, reverse=True)  # more reads -> fewer msgs
        assert rw[-1] < wo[-1]

    def test_abl6_correct_under_loss(self):
        r = run_abl6(loss_rates=(0.0, 0.15), n_agents=3, n_ops=3)
        assert all(ok for _, _, _, ok in r.points)
        (l0, r0, m0, _), (l1, r1, m1, _) = r.points
        assert r0 == 0 and r1 > 0       # loss forced retransmissions
        assert m1 >= m0                 # which cost extra messages

    def test_abl4_growth_rates(self):
        r = run_abl4(view_counts=(2, 10, 100))
        by_n = {n: (c, d) for n, c, d in r.points}
        # Centralized scales 50x for 50x views; decentralized ~2500x.
        assert by_n[100][0] == 50 * by_n[2][0]
        assert by_n[100][1] > 1000 * by_n[2][1] / 2
