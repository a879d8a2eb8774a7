"""Tests for the experiment drivers (E1-E12) with reduced problem sizes.

These tests assert the *shape* of each report (columns, row counts) and
the paper-level facts the drivers are meant to demonstrate (e.g. in-range
rows are fully safe), using smaller run counts than the benchmark
defaults so the whole module stays fast.
"""

import pytest

from repro.experiments import (
    ALL_EXPERIMENTS,
    alive_predicate_effect,
    ate_resilience_sweep,
    benign_baselines,
    byzantine_predicates,
    corruption_taxonomy,
    fast_decision,
    lamport_attainment,
    santoro_widmayer_circumvention,
    ulive_predicate_effect,
    ute_resilience_sweep,
    validate_ate_row,
    validate_ute_row,
)
from repro.experiments.common import ExperimentReport


class TestReportInfrastructure:
    def test_registry_contains_all_twelve(self):
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 13)}

    def test_report_render_and_json(self, tmp_path):
        report = ExperimentReport(experiment_id="EX", title="demo", paper_claim="claim")
        report.add_row(a=1, b="x")
        report.add_note("note text")
        text = report.render()
        assert "EX" in text and "claim" in text and "note text" in text
        payload = report.to_json(tmp_path / "out" / "report.json")
        assert (tmp_path / "out" / "report.json").exists()
        assert '"experiment_id": "EX"' in payload


class TestNativePlanning:
    def test_paper_campaign_plans_no_run_through_the_adapter(self):
        """Every adversary stack E1-E12 builds has a native planner, so
        no batch-engine run falls back to ``MatrixPlanAdapter``."""
        pytest.importorskip("numpy")
        from repro.runner import CampaignRunner

        for experiment_id, driver in ALL_EXPERIMENTS.items():
            runner = CampaignRunner(backend="batch")
            try:
                driver(runner=runner, runs=1)
            finally:
                runner.close()
            assert runner.stats.batched > 0, experiment_id
            assert runner.stats.adapter_planned == 0, experiment_id


class TestTable1Drivers:
    def test_e1_in_range_rows_fully_correct(self):
        report = validate_ate_row(n=8, runs=6, seed=3, max_rounds=40)
        in_range = [row for row in report.rows if row["in_range"]]
        assert in_range, "expected at least one in-range alpha"
        for row in in_range:
            assert row["agreement_rate"] == 1.0
            assert row["integrity_rate"] == 1.0
            assert row["termination_rate"] == 1.0
            assert row["counterexamples"] == 0
            assert row["theorem_1_satisfied"]

    def test_e1_includes_beyond_range_row(self):
        report = validate_ate_row(n=8, runs=4, seed=3, max_rounds=30)
        beyond = [row for row in report.rows if not row["in_range"]]
        assert beyond and not beyond[0]["theorem_1_satisfied"]

    def test_e2_in_range_rows_fully_correct(self):
        report = validate_ute_row(n=8, runs=5, seed=3, max_rounds=60)
        in_range = [row for row in report.rows if row["in_range"]]
        assert in_range
        for row in in_range:
            assert row["agreement_rate"] == 1.0
            assert row["integrity_rate"] == 1.0
            assert row["termination_rate"] == 1.0
            assert row["theorem_2_satisfied"]

    def test_e2_tolerates_more_alpha_than_e1(self):
        e1 = validate_ate_row(n=9, runs=3, seed=1, max_rounds=30)
        e2 = validate_ute_row(n=9, runs=3, seed=1, max_rounds=60)
        max_e1 = max(row["alpha"] for row in e1.rows if row["in_range"])
        max_e2 = max(row["alpha"] for row in e2.rows if row["in_range"])
        assert max_e2 > max_e1


class TestLivenessDrivers:
    def test_e3_good_rounds_terminate_and_starved_do_not(self):
        report = alive_predicate_effect(n=8, alpha=1, runs=5, seed=2, max_rounds=40)
        rows = {row["environment"]: row for row in report.rows}
        good = rows["good-rounds (P^A,live holds)"]
        starved = rows["starved (no good rounds)"]
        assert good["termination_rate"] == 1.0
        assert starved["termination_rate"] == 0.0
        # Safety holds in every environment.
        assert all(row["agreement_rate"] == 1.0 for row in report.rows)
        assert all(row["integrity_rate"] == 1.0 for row in report.rows)

    def test_e3_transient_bad_prefix_recovers(self):
        report = alive_predicate_effect(n=8, alpha=1, runs=4, seed=5, max_rounds=40)
        rows = {row["environment"]: row for row in report.rows}
        late = rows["late good rounds (transient bad prefix)"]
        assert late["termination_rate"] == 1.0

    def test_e4_good_phases_terminate_and_starved_do_not(self):
        report = ulive_predicate_effect(n=8, alpha=2, runs=5, seed=2, max_rounds=60)
        rows = {row["environment"]: row for row in report.rows}
        assert rows["good-phases (P^U,live holds)"]["termination_rate"] == 1.0
        assert rows["starved (|HO| never exceeds E)"]["termination_rate"] == 0.0
        assert all(row["agreement_rate"] == 1.0 for row in report.rows)


class TestTaxonomyDriver:
    def test_e5_covers_four_classes_and_two_algorithms(self):
        report = corruption_taxonomy(n=8, f=1, runs=4, seed=2, max_rounds=40)
        assert len(report.rows) == 8
        classes = {row["fault_class"] for row in report.rows}
        assert len(classes) == 4
        assert all(row["agreement_rate"] == 1.0 for row in report.rows)


class TestResilienceDrivers:
    def test_e6_feasible_rows_safe_and_live(self):
        report = ate_resilience_sweep(n=8, runs=6, seed=4, max_rounds=40)
        for row in report.rows:
            if row["feasible"]:
                assert row["agreement_rate"] == 1.0
                assert row["integrity_rate"] == 1.0
                assert row["termination_rate_live_env"] == 1.0
                assert row["integer_threshold_pairs"] > 0
            else:
                assert row["integer_threshold_pairs"] == 0

    def test_e7_feasible_rows_safe(self):
        report = ute_resilience_sweep(n=7, runs=6, seed=4, max_rounds=60)
        for row in report.rows:
            if row["feasible"]:
                assert row["agreement_rate"] == 1.0
                assert row["integrity_rate"] == 1.0

    def test_e7_boundary_is_half(self):
        report = ute_resilience_sweep(n=7, runs=2, seed=4, max_rounds=30)
        feasible_alphas = [row["alpha"] for row in report.rows if row["feasible"]]
        infeasible_alphas = [row["alpha"] for row in report.rows if not row["feasible"]]
        assert max(feasible_alphas) == 3
        assert min(infeasible_alphas) == 4


class TestLowerBoundDrivers:
    def test_e8_block_faults_never_break_safety(self):
        report = santoro_widmayer_circumvention(n=8, runs=5, seed=3, max_rounds=40)
        assert all(row["agreement_rate"] == 1.0 for row in report.rows)
        assert all(row["integrity_rate"] == 1.0 for row in report.rows)
        with_good = [r for r in report.rows if "sporadic good rounds" in r["configuration"]]
        assert with_good and with_good[0]["termination_rate"] == 1.0

    def test_e8_reports_corruption_beyond_sw_bound(self):
        report = santoro_widmayer_circumvention(n=8, runs=4, seed=3, max_rounds=40)
        heavy = [r for r in report.rows if "heavy rotating corruption" in r["configuration"]]
        assert heavy and heavy[0]["max_corrupted_receptions_in_a_round"] >= heavy[0]["sw_bound_per_round"]

    def test_e9_fast_decision_rounds(self):
        report = fast_decision(n=9, runs=5, seed=2, max_rounds=20)
        rows = {(row["scenario"], row["algorithm"]): row for row in report.rows}
        unanimous = rows[("fault-free, unanimous initial values", "A_(T,E)")]
        split = rows[("fault-free, split initial values", "A_(T,E)")]
        phase_king = rows[("fault-free, split initial values", "PhaseKing(f=1)")]
        assert unanimous["max_decision_round"] == 1
        assert split["max_decision_round"] == 2
        assert phase_king["max_decision_round"] == 4
        assert split["max_decision_round"] < phase_king["max_decision_round"]

    def test_e9_corrupted_prefix_decides_shortly_after_clean_round(self):
        report = fast_decision(n=9, runs=5, seed=2, max_rounds=20)
        rows = {(row["scenario"], row["algorithm"]): row for row in report.rows}
        burst = rows[("alpha corruptions/round for 3 rounds, then clean", "A_(T,E)")]
        assert burst["termination_rate"] == 1.0
        assert burst["max_decision_round"] <= 6

    def test_e10_bounds_attained_and_safe(self):
        report = lamport_attainment(ns=(5, 9), runs=3, seed=2, max_rounds=30)
        for row in report.rows:
            assert row["ate_bound_satisfied"] and row["ute_bound_satisfied"]
            assert row["ate_tight"] and row["ute_tight"]
            assert row["ate_safety_rate_sim"] == 1.0
            assert row["ute_safety_rate_sim"] == 1.0


class TestByzantineAndBenignDrivers:
    def test_e11_predicates_hold_and_ute_terminates(self):
        report = byzantine_predicates(n=8, f=1, runs=4, seed=3, max_rounds=60)
        rows = {row["algorithm"]: row for row in report.rows}
        assert all(row["predicates_hold"] for row in report.rows)
        assert rows["U_(T,E,alpha=f)"]["termination_rate"] == 1.0
        assert rows["U_(T,E,alpha=f)"]["agreement_rate"] == 1.0
        assert rows["PhaseKing(f=1)"]["termination_rate"] == 1.0

    def test_e12_equivalence_and_omission_sweep(self):
        report = benign_baselines(n=8, runs=5, seed=3, max_rounds=40, drop_probabilities=(0.0, 0.2))
        equivalence = [row for row in report.rows if "OneThirdRule" in str(row.get("check", ""))]
        assert equivalence and equivalence[0]["mismatches"] == 0
        sweep = [row for row in report.rows if row.get("check") == "omission sweep"]
        assert sweep
        assert all(row["agreement_rate"] == 1.0 for row in sweep)
