"""The fast lockstep backend: whole rounds on bitmask kernels.

Executes the same communication-closed round semantics as the reference
engine (:mod:`repro.simulation.engine`) but represents a round as flat
data — per-sender broadcast payloads, per-receiver ``HO``/``SHO``
bitmasks, corrupted payloads only where they exist — instead of
dict-of-dict message matrices and per-process objects:

* the algorithm runs as a :class:`repro.algorithms.kernels.StepKernel`
  over flat state arrays,
* the adversary plans rounds at the mask level
  (:mod:`repro.adversary.plan`), natively where a planner is
  registered and through the matrix adapter otherwise,
* the heard-of collection records
  :class:`~repro.core.heardof.MaskRoundRecord` rounds, which expose the
  identical read API (and materialise full reception vectors lazily).

The backend is *semantically invisible*: decisions, decision rounds and
the per-round ``HO``/``SHO``/``AHO`` sets are identical to the
reference engine for every supported run, so records, reduced records
and cache rows are byte-identical and cache entries are shared between
backends.  :func:`fast_supported` says whether a run can take this
path; the dispatcher (:mod:`repro.simulation.backends`) falls back to
the reference engine otherwise.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from repro.adversary.base import Adversary, ReliableAdversary
from repro.adversary.plan import planner_for
from repro.algorithms.kernels import has_kernel, make_kernel
from repro.core.algorithm import HOAlgorithm
from repro.core.consensus import ConsensusSpec, DecisionRecord
from repro.core.heardof import HeardOfCollection, MaskRoundRecord
from repro.core.process import ProcessId, Value
from repro.simulation.engine import RoundObserver, SimulationConfig, SimulationResult
from repro.simulation.metrics import metrics_from_collection


def fast_supported(
    algorithm: HOAlgorithm,
    adversary: Optional[Adversary] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[RoundObserver]] = None,
) -> bool:
    """Whether a run can execute on the fast backend.

    Requires a registered step kernel for the algorithm's exact class,
    no per-round state snapshots (kernels keep flat state, not process
    objects) and no observers (observers receive process objects every
    round).  Every adversary is supported — those without a native
    planner run through the matrix adapter.
    """
    if observers:
        return False
    # No config means the engine default, which records state snapshots.
    if config is None or config.record_states:
        return False
    return has_kernel(algorithm)


def run_algorithm_fast(
    algorithm: HOAlgorithm,
    initial_values: Mapping[ProcessId, Value],
    adversary: Optional[Adversary] = None,
    config: Optional[SimulationConfig] = None,
    observers: Optional[Sequence[RoundObserver]] = None,
    spec: Optional[ConsensusSpec] = None,
) -> SimulationResult:
    """Fast-backend counterpart of :func:`repro.simulation.engine.run_algorithm`.

    Raises :class:`ValueError` when the run is not fast-capable; use
    :func:`fast_supported` (or the ``backend="fast"`` dispatcher, which
    falls back automatically) to avoid the exception.
    """
    adversary = adversary if adversary is not None else ReliableAdversary()
    config = config if config is not None else SimulationConfig()
    spec = spec if spec is not None else ConsensusSpec()

    if not fast_supported(algorithm, adversary, config, observers):
        raise ValueError(
            f"run is not fast-capable (algorithm={algorithm.describe()}, "
            f"record_states={config.record_states}, observers={bool(observers)}); "
            f"use the reference backend"
        )

    # Same construction (and the same validation errors) as the
    # reference engine; the objects only receive the final kernel state.
    processes = algorithm.create_all(initial_values)
    n = len(processes)
    kernel = make_kernel(algorithm, initial_values)
    assert kernel is not None  # guaranteed by fast_supported
    planner = planner_for(adversary, n)
    collection = HeardOfCollection(n)
    full = (1 << n) - 1
    full_tuple = (full,) * n
    zeros_tuple = (0,) * n
    nones_tuple = (None,) * n

    rounds_executed = 0
    stop_when_all_decided = config.stop_when_all_decided
    min_rounds = config.min_rounds
    for round_num in range(1, config.max_rounds + 1):
        sent = kernel.sends(round_num)
        plan = planner.plan_round(round_num, sent)

        drop_masks = plan.drop_masks
        corrupt_masks = plan.corrupt_masks
        if drop_masks == zeros_tuple and corrupt_masks == zeros_tuple:
            # Perfect round: every receiver's multiset IS the sent list
            # and the record assembles from shared tuples — no per-
            # receiver mask walk, no ho/sho/corrupt list builds.
            for receiver in range(n):
                kernel.step(round_num, receiver, sent)
            collection.append(
                MaskRoundRecord(
                    round_num=round_num,
                    n=n,
                    sent=tuple(sent),
                    ho_masks=full_tuple,
                    sho_masks=full_tuple,
                    corrupt=nones_tuple,
                )
            )
            rounds_executed = round_num
            if stop_when_all_decided and round_num >= min_rounds and kernel.all_decided:
                break
            continue

        ho_masks: List[int] = []
        sho_masks: List[int] = []
        corrupt: List[Optional[dict]] = []
        corrupt_values = plan.corrupt_values
        for receiver in range(n):
            ho = full & ~drop_masks[receiver]
            cmask = corrupt_masks[receiver] & ho
            if cmask:
                cvals = corrupt_values[receiver]
                kept = {}
                values = []
                mask = ho
                while mask:
                    low = mask & -mask
                    sender = low.bit_length() - 1
                    mask ^= low
                    if low & cmask:
                        payload = cvals[sender]
                        kept[sender] = payload
                    else:
                        payload = sent[sender]
                    values.append(payload)
                corrupt.append(kept)
            elif ho == full:
                values = sent
                corrupt.append(None)
            else:
                values = []
                mask = ho
                while mask:
                    low = mask & -mask
                    values.append(sent[low.bit_length() - 1])
                    mask ^= low
                corrupt.append(None)
            ho_masks.append(ho)
            sho_masks.append(ho & ~cmask)
            kernel.step(round_num, receiver, values)

        collection.append(
            MaskRoundRecord(
                round_num=round_num,
                n=n,
                sent=tuple(sent),
                ho_masks=tuple(ho_masks),
                sho_masks=tuple(sho_masks),
                corrupt=tuple(corrupt),
            )
        )
        rounds_executed = round_num

        if stop_when_all_decided and round_num >= min_rounds and kernel.all_decided:
            break

    kernel.apply_to(processes)

    decisions: List[DecisionRecord] = [
        DecisionRecord(
            process=pid, value=kernel.decisions[pid], round_num=kernel.decision_rounds[pid]
        )
        for pid in range(n)
        if kernel.decisions[pid] is not None
    ]
    outcome = spec.evaluate(
        initial_values=initial_values,
        decisions=decisions,
        rounds_executed=rounds_executed,
        metadata={
            "algorithm": algorithm.describe(),
            "adversary": adversary.describe(),
        },
    )
    metrics = metrics_from_collection(
        collection,
        {d.process: d.round_num for d in decisions},
        include_profiles=config.record_states,
    )

    return SimulationResult(
        processes=processes,
        collection=collection,
        outcome=outcome,
        metrics=metrics,
        config=config,
        algorithm_name=algorithm.describe(),
        adversary_name=adversary.describe(),
        # adapter_planned feeds the runner's adapter_planned stat; it
        # never enters records.
        metadata={"engine": "fast", "adapter_planned": planner.adapter_planned},
    )
