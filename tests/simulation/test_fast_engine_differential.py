"""Differential tests: the fast backend is semantically invisible.

For every registered algorithm with a step kernel × every adversary
family (including the combinators of ``adversary/compose.py``) × n ∈
{4, 10, 30}, the fast backend must produce *identical* runs to the
reference engine: same decisions, same decision rounds, same per-round
``HO``/``SHO``/``AHO`` sets — and therefore byte-identical
:class:`RunRecord`/:class:`ReducedRecord` rows, so cache entries are
shared across backends without a schema bump.
"""

import pytest

from repro.adversary import (
    AlphaCapAdversary,
    BlockFaultAdversary,
    BoundedOmissionAdversary,
    CrashAdversary,
    LatencyAdversary,
    MinimumSafeDeliveryAdversary,
    PartialGoodRoundAdversary,
    PartitionAdversary,
    PeriodicGoodPhaseAdversary,
    PeriodicGoodRoundAdversary,
    RandomCorruptionAdversary,
    RandomOmissionAdversary,
    ReliableAdversary,
    RotatingSenderCorruptionAdversary,
    RoundScheduleAdversary,
    SequentialAdversary,
    SplitVoteAdversary,
    StaticByzantineAdversary,
    UnboundedCorruptionAdversary,
)
from repro.algorithms import (
    AteAlgorithm,
    OneThirdRuleAlgorithm,
    UniformVotingAlgorithm,
    UteAlgorithm,
)
from repro.core.predicates import AlphaSafePredicate
from repro.runner import CampaignRunner, DecisionReducer, RunTask
from repro.runner.records import RunRecord
from repro.simulation import SimulationConfig, run_simulation
from repro.workloads import generators

MAX_ROUNDS = 14

ALGORITHMS = {
    "ate": lambda n: AteAlgorithm.symmetric(n=n, alpha=1),
    "ate-nested": lambda n: AteAlgorithm(
        AteAlgorithm.symmetric(n=n, alpha=1).params, nested_decision_guard=True
    ),
    "one-third-rule": lambda n: OneThirdRuleAlgorithm(n=n),
    "ute": lambda n: UteAlgorithm.minimal(n=n, alpha=1),
    "uniform-voting": lambda n: UniformVotingAlgorithm(n=n),
}

ADVERSARIES = {
    # fault-free / benign
    "reliable": lambda n: ReliableAdversary(),
    "random-omission": lambda n: RandomOmissionAdversary(0.2, seed=7),
    "bounded-omission": lambda n: BoundedOmissionAdversary(
        max_omissions_per_receiver=max(1, n // 4), drop_probability=0.6, seed=7
    ),
    "crash": lambda n: CrashAdversary({0: 2, 1: 5}),
    "partition": lambda n: PartitionAdversary([range(n // 2), range(n // 2, n)]),
    # value faults
    "random-corruption": lambda n: RandomCorruptionAdversary(
        alpha=1, value_domain=(0, 1), seed=7
    ),
    "random-corruption-drops": lambda n: RandomCorruptionAdversary(
        alpha=2, drop_probability=0.1, value_domain=(0, 1), seed=7
    ),
    "rotating-corruption": lambda n: RotatingSenderCorruptionAdversary(
        alpha=1, value_domain=(0, 1), seed=7
    ),
    "rotating-corruption-wide": lambda n: RotatingSenderCorruptionAdversary(
        alpha=max(2, n // 3), value_domain=(0, 1), seed=7
    ),
    "rotating-corruption-stable": lambda n: RotatingSenderCorruptionAdversary(
        alpha=1, value_domain=(0, 1), seed=7, equivocate=False
    ),
    "unbounded-corruption": lambda n: UnboundedCorruptionAdversary(
        0.25, value_domain=(0, 1), seed=7
    ),
    "split-vote": lambda n: SplitVoteAdversary(
        budget_per_receiver=2, value_a=0, value_b=1, seed=7
    ),
    # lower-bound scenarios
    "block-faults": lambda n: BlockFaultAdversary(
        faults_per_round=n // 2, value_domain=(0, 1), seed=7
    ),
    "block-faults-all-links": lambda n: BlockFaultAdversary(
        faults_per_round=None, value_domain=(0, 1), seed=7
    ),
    "block-faults-drop": lambda n: BlockFaultAdversary(
        faults_per_round=n // 2, mode="drop", seed=7
    ),
    "block-faults-scheduled": lambda n: BlockFaultAdversary(
        faults_per_round=n // 2, victim_schedule=[0, 2, 1], value_domain=(0, 1), seed=7
    ),
    "static-byzantine": lambda n: StaticByzantineAdversary(
        byzantine=range(1), value_domain=(0, 1), seed=7
    ),
    # symmetric mode draws one discarded value per Byzantine edge
    "static-byzantine-symmetric": lambda n: StaticByzantineAdversary(
        byzantine=(0, n - 1, n + 2), equivocate=False, value_domain=(0, 1), seed=7
    ),
    "static-byzantine-drops": lambda n: StaticByzantineAdversary(
        byzantine=range(2), drop_probability=0.3, value_domain=(0, 1), seed=7
    ),
    # liveness wrappers
    "good-rounds": lambda n: PeriodicGoodRoundAdversary(
        inner=RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=7), period=4
    ),
    "good-rounds-omission": lambda n: PeriodicGoodRoundAdversary(
        inner=RandomOmissionAdversary(0.3, seed=7), period=3
    ),
    "good-phases": lambda n: PeriodicGoodPhaseAdversary(
        inner=RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=7), period=3
    ),
    # the E4/E10 nesting
    "good-phases-min-safe": lambda n: PeriodicGoodPhaseAdversary(
        inner=MinimumSafeDeliveryAdversary(
            inner=RandomCorruptionAdversary(
                alpha=1, drop_probability=0.4, value_domain=(0, 1), seed=7
            ),
            minimum=n // 2 + 1,
        ),
        period=3,
    ),
    "partial-good-round": lambda n: PartialGoodRoundAdversary(
        inner=RandomCorruptionAdversary(
            alpha=1, drop_probability=0.2, value_domain=(0, 1), seed=7
        ),
        pi1=range(n // 2 + 1),
        pi2=range(1, n),
        period=3,
    ),
    # combinators (adversary/compose.py)
    "alpha-cap": lambda n: AlphaCapAdversary(
        inner=UnboundedCorruptionAdversary(0.3, value_domain=(0, 1), seed=7), alpha=1
    ),
    "min-safe-delivery": lambda n: MinimumSafeDeliveryAdversary(
        inner=RandomOmissionAdversary(0.5, seed=7), minimum=n // 2 + 1
    ),
    "sequential": lambda n: SequentialAdversary(
        [
            (1, RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=7)),
            (6, ReliableAdversary()),
        ]
    ),
    "round-schedule": lambda n: RoundScheduleAdversary(
        schedule=lambda r: RandomOmissionAdversary(0.3, seed=7) if r % 3 == 0 else None
    ),
    "latency": lambda n: LatencyAdversary(
        inner=RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=7),
        delay_per_round=0,
    ),
}

#: Families whose planning still goes through ``MatrixPlanAdapter``.
ADAPTER_ONLY = {"bounded-omission", "crash", "unbounded-corruption"}

#: Families whose wrappers skip senders with a ``None`` intended
#: payload; the grid also runs them from all-``None`` initial values.
NONE_SENSITIVE = ("alpha-cap", "min-safe-delivery", "partial-good-round")


def run_both(algorithm_factory, adversary_factory, n, seed=42, initial_values=None,
             **config_kwargs):
    config_kwargs.setdefault("max_rounds", MAX_ROUNDS)
    config = SimulationConfig(record_states=False, **config_kwargs)
    if initial_values is None:
        initial_values = generators.uniform_random(n, seed=seed)
    reference = run_simulation(
        algorithm_factory(n), initial_values, adversary_factory(n), config,
        backend="reference",
    )
    fast = run_simulation(
        algorithm_factory(n), initial_values, adversary_factory(n), config,
        backend="fast",
    )
    assert fast.metadata.get("engine") == "fast", "fast backend did not engage"
    return reference, fast


def assert_equivalent(reference, fast):
    """Decisions, decision rounds and per-round HO/SHO/AHO must match."""
    assert reference.rounds_executed == fast.rounds_executed
    assert reference.outcome.decisions == fast.outcome.decisions
    outcome_ref, outcome_fast = reference.outcome, fast.outcome
    assert (
        outcome_ref.agreement,
        outcome_ref.integrity,
        outcome_ref.termination,
        outcome_ref.validity,
        outcome_ref.violations,
    ) == (
        outcome_fast.agreement,
        outcome_fast.integrity,
        outcome_fast.termination,
        outcome_fast.validity,
        outcome_fast.violations,
    )
    n = reference.collection.n
    for record_ref, record_fast in zip(reference.collection, fast.collection):
        for pid in range(n):
            assert record_ref.ho(pid) == record_fast.ho(pid)
            assert record_ref.sho(pid) == record_fast.sho(pid)
            assert record_ref.aho(pid) == record_fast.aho(pid)
            # Payload-level equality, not just set-level.
            assert dict(record_ref.receptions[pid].received) == dict(
                record_fast.receptions[pid].received
            )
    # Final process states agree too.
    for pid in range(n):
        assert (
            reference.processes[pid].state_snapshot()
            == fast.processes[pid].state_snapshot()
        )
    assert reference.metrics.as_dict() == fast.metrics.as_dict()


@pytest.mark.parametrize("n", [4, 10, 30])
@pytest.mark.parametrize("adversary_name", sorted(ADVERSARIES))
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
def test_differential_grid(algorithm_name, adversary_name, n):
    reference, fast = run_both(
        ALGORITHMS[algorithm_name], ADVERSARIES[adversary_name], n
    )
    assert_equivalent(reference, fast)


@pytest.mark.parametrize("n", [4, 10, 30])
@pytest.mark.parametrize("adversary_name", NONE_SENSITIVE)
@pytest.mark.parametrize("algorithm_name", sorted(ALGORITHMS))
def test_differential_grid_none_initial_values(algorithm_name, adversary_name, n):
    """``None`` intended payloads are never counted or restored by the
    wrappers; their native planners must skip them the same way."""
    reference, fast = run_both(
        ALGORITHMS[algorithm_name], ADVERSARIES[adversary_name], n,
        initial_values={pid: None for pid in range(n)},
    )
    assert_equivalent(reference, fast)


class TestNativePlannerSelection:
    """The grid families with native planners must actually use them
    (otherwise the differential grid silently gates only the adapter)."""

    def test_native_families_get_native_planners(self):
        from repro.adversary.plan import (
            BlockFaultPlanner,
            MatrixPlanAdapter,
            RandomCorruptionPlanner,
            RandomOmissionPlanner,
            ReliablePlanner,
            RotatingCorruptionPlanner,
            planner_for,
        )

        expected = {
            "reliable": ReliablePlanner,
            "random-omission": RandomOmissionPlanner,
            "random-corruption": RandomCorruptionPlanner,
            "rotating-corruption": RotatingCorruptionPlanner,
            "rotating-corruption-stable": RotatingCorruptionPlanner,
            "block-faults": BlockFaultPlanner,
            "block-faults-drop": BlockFaultPlanner,
            "block-faults-scheduled": BlockFaultPlanner,
        }
        for name, planner_type in expected.items():
            planner = planner_for(ADVERSARIES[name](6), 6)
            assert type(planner) is planner_type, name
        for name, factory in ADVERSARIES.items():
            planner = planner_for(factory(6), 6)
            if name in ADAPTER_ONLY:
                assert type(planner) is MatrixPlanAdapter, name
            else:
                assert not isinstance(planner, MatrixPlanAdapter), name

    def test_adapter_planned_follows_the_whole_planner_tree(self):
        from repro.adversary.plan import planner_for

        adapted = set()
        for name, factory in ADVERSARIES.items():
            planner = planner_for(factory(6), 6)
            for round_num in range(1, 8):
                planner.plan_round(round_num, [0, 1] * 3)
            if planner.adapter_planned:
                adapted.add(name)
        # alpha-cap wraps an unbounded-corruption inner adversary.
        assert adapted == ADAPTER_ONLY | {"alpha-cap"}

    def test_subclasses_fall_back_to_the_adapter(self):
        from repro.adversary.plan import MatrixPlanAdapter, planner_for

        inner = ReliableAdversary()
        for base, adversary in [
            (BlockFaultAdversary, BlockFaultAdversary(faults_per_round=2, seed=7)),
            (RotatingSenderCorruptionAdversary, RotatingSenderCorruptionAdversary(alpha=1, seed=7)),
            (PartitionAdversary, PartitionAdversary([range(3), range(3, 6)])),
            (SplitVoteAdversary, SplitVoteAdversary(1, value_a=0, value_b=1)),
            (StaticByzantineAdversary, StaticByzantineAdversary(byzantine=[0], seed=7)),
            (PeriodicGoodRoundAdversary, PeriodicGoodRoundAdversary(inner, period=2)),
            (PeriodicGoodPhaseAdversary, PeriodicGoodPhaseAdversary(inner, period=2)),
            (PartialGoodRoundAdversary, PartialGoodRoundAdversary(inner, [0], [1], period=2)),
            (SequentialAdversary, SequentialAdversary([(1, inner)])),
            (RoundScheduleAdversary, RoundScheduleAdversary(lambda r: inner)),
            (LatencyAdversary, LatencyAdversary(inner, delay_per_round=0)),
            (AlphaCapAdversary, AlphaCapAdversary(inner, alpha=1)),
            (MinimumSafeDeliveryAdversary, MinimumSafeDeliveryAdversary(inner, minimum=1)),
        ]:
            adversary.__class__ = type("Custom" + base.__name__, (base,), {})
            assert type(planner_for(adversary, 6)) is MatrixPlanAdapter, base.__name__


class TestConfigEdgeCases:
    """min_rounds / stop_when_all_decided interplay must match exactly."""

    @pytest.mark.parametrize("min_rounds", [0, 5, 14])
    def test_min_rounds(self, min_rounds):
        reference, fast = run_both(
            ALGORITHMS["ate"], ADVERSARIES["reliable"], n=6, min_rounds=min_rounds
        )
        assert_equivalent(reference, fast)
        # The run must not stop before min_rounds even when decided early.
        assert fast.rounds_executed >= min_rounds

    def test_no_stop_when_all_decided(self):
        reference, fast = run_both(
            ALGORITHMS["ate"],
            ADVERSARIES["random-corruption"],
            n=6,
            stop_when_all_decided=False,
        )
        assert_equivalent(reference, fast)
        assert fast.rounds_executed == MAX_ROUNDS

    def test_min_rounds_equal_to_max_rounds(self):
        reference, fast = run_both(
            ALGORITHMS["ute"], ADVERSARIES["good-phases"], n=6,
            min_rounds=MAX_ROUNDS,
        )
        assert_equivalent(reference, fast)
        assert fast.rounds_executed == MAX_ROUNDS

    def test_none_initial_values_stay_equivalent(self):
        """A degenerate None 'decision' (possible when initial values
        are None) must not flip the fast backend's stop condition: the
        reference engine treats a None decision as still undecided."""
        n = 4
        config = SimulationConfig(max_rounds=8, record_states=False)
        initial_values = {pid: None for pid in range(n)}
        reference = run_simulation(
            ALGORITHMS["ate"](n), initial_values, ReliableAdversary(), config,
            backend="reference",
        )
        fast = run_simulation(
            ALGORITHMS["ate"](n), initial_values, ReliableAdversary(), config,
            backend="fast",
        )
        assert fast.metadata.get("engine") == "fast"
        assert_equivalent(reference, fast)
        assert fast.rounds_executed == 8  # None never counts as decided

    def test_never_deciding_run_hits_horizon(self):
        # A partition keeps |HO| below every threshold half the time:
        # nobody ever decides, both backends run the full horizon.
        reference, fast = run_both(
            ALGORITHMS["ute"], ADVERSARIES["partition"], n=6
        )
        assert_equivalent(reference, fast)
        assert not fast.outcome.termination


class TestRecordByteEquality:
    """Cached rows and reduced records are byte-identical across backends."""

    def _task(self, backend, n=9):
        return RunTask(
            algorithm=AteAlgorithm.symmetric(n=n, alpha=1),
            adversary=PeriodicGoodRoundAdversary(
                inner=RandomCorruptionAdversary(alpha=1, value_domain=(0, 1), seed=11),
                period=4,
            ),
            initial_values=generators.split(n),
            max_rounds=20,
            predicate=AlphaSafePredicate(1),
            key="differential/0000",
            cell={"algorithm": "ate", "n": n},
            run_index=0,
            seed=11,
            backend=backend,
        )

    def test_run_records_byte_identical(self):
        records = {}
        for backend in ("reference", "fast"):
            runner = CampaignRunner()
            records[backend] = runner.run_tasks([self._task(backend)])[0]
        assert isinstance(records["reference"], RunRecord)
        assert records["reference"].as_dict() == records["fast"].as_dict()

    def test_reduced_records_byte_identical(self):
        reduced = {}
        for backend in ("reference", "fast"):
            runner = CampaignRunner()
            reduced[backend] = runner.run_reduced(
                [self._task(backend)], DecisionReducer()
            )[0]
        assert reduced["reference"].as_dict() == reduced["fast"].as_dict()

    def test_cache_entries_shared_across_backends(self, tmp_path):
        """A row cached by one backend is a cache hit for the other."""
        runner_ref = CampaignRunner(cache=str(tmp_path), backend="reference")
        first = runner_ref.run_tasks([self._task(None)])[0]
        assert runner_ref.stats.cache_misses == 1
        runner_fast = CampaignRunner(cache=str(tmp_path), backend="fast")
        second = runner_fast.run_tasks([self._task(None)])[0]
        assert runner_fast.stats.cache_hits == 1
        assert first.as_dict() == second.as_dict()
