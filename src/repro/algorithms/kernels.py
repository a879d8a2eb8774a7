"""Flat per-round step kernels for the fast simulation backend.

A *kernel* executes one algorithm's whole process family on flat state
arrays (lists indexed by process id) instead of per-process objects: the
fast engine hands it the broadcast payloads of a round plus, per
receiver, the multiset of actually received values, and the kernel
applies the transition function in place.  Each kernel mirrors its
process class line for line — same guards, same tie-breaks, same
irrevocable-decision semantics — which the differential backend tests
(``tests/simulation/test_fast_engine_differential.py``) assert across
the full algorithm × adversary × n grid.

Kernels exist for ``A_{T,E}`` (:class:`AteKernel`, covering
OneThirdRule and every ``alpha``-parametrisation) and ``U_{T,E,alpha}``
(:class:`UteKernel`, covering UniformVoting).  They are registered per
*exact* algorithm class — a subclass with a custom process would
silently diverge, so unknown classes get no kernel and the backend
dispatcher falls back to the reference engine.  The name registry
(:func:`repro.algorithms.registry.supports_fast`) advertises which
registry algorithms have kernels.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Type, Union

from repro.algorithms.ate import AteAlgorithm, AteProcess
from repro.algorithms.one_third_rule import OneThirdRuleAlgorithm
from repro.algorithms.uniform_voting import UniformVotingAlgorithm
from repro.algorithms.ute import QUESTION_MARK, UteAlgorithm, UteProcess, _QuestionMark
from repro.algorithms.voting import _sort_key
from repro.core.algorithm import HOAlgorithm
from repro.core.process import HOProcess, Payload, ProcessId, Value
from repro.core.registries import guard_builtin_overwrite, unknown_key_error


def _decision_key(value: Value):
    """The decision tie-break used by both process classes."""
    return (type(value).__name__, repr(value))


class StepKernel:
    """Base class: flat decision bookkeeping shared by all kernels."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.decisions: List[Optional[Value]] = [None] * n
        self.decision_rounds: List[Optional[int]] = [None] * n
        self.undecided = n

    @property
    def all_decided(self) -> bool:
        return self.undecided == 0

    def _decide(self, receiver: ProcessId, value: Value, round_num: int) -> None:
        # Mirrors HOProcess._decide for the degenerate None "decision"
        # (None payloads are reserved, but an initial value of None can
        # produce one): storing None never flips `decided`, so the
        # undecided counter must only move on a real first decision.
        if self.decisions[receiver] is None and value is not None:
            self.undecided -= 1
        self.decisions[receiver] = value
        self.decision_rounds[receiver] = round_num

    def sends(self, round_num: int) -> List[Payload]:
        """The broadcast payload of every process at ``round_num``."""
        raise NotImplementedError

    def step(self, round_num: int, receiver: ProcessId, values: Sequence[Payload]) -> None:
        """Apply ``receiver``'s transition to its received multiset."""
        raise NotImplementedError

    def apply_to(self, processes: Mapping[ProcessId, HOProcess]) -> None:
        """Write the kernel's final state back onto process objects."""
        raise NotImplementedError

    def _apply_decision(self, proc: HOProcess, pid: ProcessId) -> None:
        if self.decisions[pid] is not None:
            proc._decide(self.decisions[pid], self.decision_rounds[pid])
        elif self.decision_rounds[pid] is not None:
            # A degenerate None decision: HOProcess records the round
            # while staying undecided — mirror that for state parity.
            proc._decision_round = self.decision_rounds[pid]


class AteKernel(StepKernel):
    """Flat-state execution of ``A_{T,E}`` (mirrors :class:`AteProcess`)."""

    def __init__(self, algorithm: AteAlgorithm, initial_values: Mapping[ProcessId, Value]) -> None:
        params = algorithm.params
        super().__init__(params.n)
        self.threshold = params.threshold
        self.enough = params.enough
        self.nested_decision_guard = algorithm.nested_decision_guard
        self.xs: List[Value] = [initial_values[p] for p in range(self.n)]

    def sends(self, round_num: int) -> List[Payload]:
        return list(self.xs)

    def step(self, round_num: int, receiver: ProcessId, values: Sequence[Payload]) -> None:
        counts = Counter(values)
        heard = len(values)

        updated = False
        if heard > self.threshold:
            if counts:
                best = max(counts.values())
                candidate = min((v for v, c in counts.items() if c == best), key=_sort_key)
                # AteProcess keeps its estimate when the winner is None.
                if candidate is not None:
                    self.xs[receiver] = candidate
            updated = True

        if self.nested_decision_guard and not updated:
            return
        if self.decisions[receiver] is not None:
            return

        winners = [v for v, c in counts.items() if c > self.enough]
        if winners:
            self._decide(receiver, min(winners, key=_decision_key), round_num)

    def apply_to(self, processes: Mapping[ProcessId, HOProcess]) -> None:
        for pid in range(self.n):
            proc = processes[pid]
            assert isinstance(proc, AteProcess)
            proc.x = self.xs[pid]
            self._apply_decision(proc, pid)


class UteKernel(StepKernel):
    """Flat-state execution of ``U_{T,E,alpha}`` (mirrors :class:`UteProcess`)."""

    def __init__(self, algorithm: UteAlgorithm, initial_values: Mapping[ProcessId, Value]) -> None:
        params = algorithm.params
        super().__init__(params.n)
        self.threshold = params.threshold
        self.enough = params.enough
        self.witness_floor = float(params.alpha) + 1
        self.default_value = algorithm.default_value
        self.xs: List[Value] = [initial_values[p] for p in range(self.n)]
        self.votes: List[Payload] = [QUESTION_MARK] * self.n

    def sends(self, round_num: int) -> List[Payload]:
        if round_num % 2 == 1:
            return list(self.xs)
        return list(self.votes)

    def step(self, round_num: int, receiver: ProcessId, values: Sequence[Payload]) -> None:
        proper = [v for v in values if not isinstance(v, _QuestionMark)]
        counts = Counter(proper)
        if round_num % 2 == 1:
            winners = [v for v, c in counts.items() if c > self.threshold]
            if winners:
                self.votes[receiver] = min(winners, key=_decision_key)
            return

        witnessed = {v: c for v, c in counts.items() if c >= self.witness_floor}
        if witnessed:
            best = max(witnessed.values())
            candidates = [v for v, c in witnessed.items() if c == best]
            self.xs[receiver] = min(candidates, key=_decision_key)
        else:
            self.xs[receiver] = self.default_value

        if self.decisions[receiver] is None:
            winners = [v for v, c in counts.items() if c > self.enough]
            if winners:
                self._decide(receiver, min(winners, key=_decision_key), round_num)

        self.votes[receiver] = QUESTION_MARK

    def apply_to(self, processes: Mapping[ProcessId, HOProcess]) -> None:
        for pid in range(self.n):
            proc = processes[pid]
            assert isinstance(proc, UteProcess)
            proc.x = self.xs[pid]
            proc.vote = self.votes[pid]
            self._apply_decision(proc, pid)


#: Kernel factories keyed by *exact* algorithm class; subclasses are
#: deliberately not matched (their processes may behave differently).
_KERNELS: Dict[Type[HOAlgorithm], Callable[..., StepKernel]] = {
    AteAlgorithm: AteKernel,
    OneThirdRuleAlgorithm: AteKernel,
    UteAlgorithm: UteKernel,
    UniformVotingAlgorithm: UteKernel,
}


#: The kernel registrations that ship with the package; silently
#: replacing one would change semantics for every caller, so
#: :func:`register_kernel` refuses it without ``overwrite=True``.
_BUILTIN_KERNELS = frozenset(_KERNELS)


def register_kernel(
    algorithm_type: Type[HOAlgorithm],
    factory: Optional[Callable[..., StepKernel]] = None,
    *,
    overwrite: bool = False,
):
    """Register a kernel factory for ``algorithm_type`` (exact class).

    Usable directly (``register_kernel(MyAlgorithm, MyKernel)``) or as
    a decorator (``@register_kernel(MyAlgorithm)`` above the kernel
    class); either form returns the factory.  Replacing a built-in
    registration (e.g. the ``A_{T,E}`` kernel) raises unless
    ``overwrite=True`` is passed explicitly.

    Per-process registry: parallel campaign workers only see
    registrations performed at import time (register at module level in
    a module the workers import, or their runs silently fall back to
    the reference engine).
    """
    guard_builtin_overwrite(
        "step kernel",
        f"for {algorithm_type.__name__}",
        algorithm_type in _BUILTIN_KERNELS,
        overwrite,
    )

    def _register(kernel_factory: Callable[..., StepKernel]):
        _KERNELS[algorithm_type] = kernel_factory
        return kernel_factory

    if factory is None:
        return _register
    return _register(factory)


def get_kernel_factory(
    algorithm_type: Union[Type[HOAlgorithm], str]
) -> Callable[..., StepKernel]:
    """Look up a registered kernel factory, with a did-you-mean on typos.

    Accepts the algorithm class itself or its name; raises
    :class:`ValueError` (listing registered classes, with a close-match
    hint) when nothing is registered for it.
    """
    if isinstance(algorithm_type, str):
        by_name = {cls.__name__: cls for cls in _KERNELS}
        cls = by_name.get(algorithm_type)
        if cls is None:
            raise unknown_key_error("step kernel", algorithm_type, by_name)
        return _KERNELS[cls]
    factory = _KERNELS.get(algorithm_type)
    if factory is None:
        raise unknown_key_error(
            "step kernel",
            algorithm_type.__name__,
            (cls.__name__ for cls in _KERNELS),
        )
    return factory


def registered_kernel_factory(
    algorithm_type: Type[HOAlgorithm],
) -> Optional[Callable[..., StepKernel]]:
    """The registered factory for ``algorithm_type``, or None (no raise)."""
    return _KERNELS.get(algorithm_type)


def has_kernel(algorithm: HOAlgorithm) -> bool:
    """Whether the fast backend can execute ``algorithm`` natively."""
    return type(algorithm) in _KERNELS


def make_kernel(
    algorithm: HOAlgorithm, initial_values: Mapping[ProcessId, Value]
) -> Optional[StepKernel]:
    """Build the step kernel for ``algorithm``, or None if it has none."""
    factory = _KERNELS.get(type(algorithm))
    if factory is None:
        return None
    return factory(algorithm, initial_values)
