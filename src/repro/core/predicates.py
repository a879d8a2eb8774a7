"""Communication predicates (Section 2.2, Figures 1 and 2, Section 5.2).

A communication predicate is a predicate over the collections
``(HO(p, r))`` and ``(SHO(p, r))``.  Predicates over the SHO collection
capture communication *safety* (how much corruption there is), while
predicates over the HO collection alone capture communication
*liveness* (how much loss there is).

The paper's predicates implemented here:

``P_alpha``
    ``∀r>0, ∀p: |AHO(p, r)| <= alpha`` — at most ``alpha`` corrupted
    receptions per process per round (:class:`AlphaSafePredicate`).
``P^perm_alpha``
    ``|AS| <= alpha`` — at most ``alpha`` processes ever emit a corrupted
    message, the classical permanent-fault assumption
    (:class:`PermanentAlphaPredicate`).
``P_benign``
    ``SHO(p, r) = HO(p, r)`` everywhere — the benign case of
    Charron-Bost/Schiper (:class:`BenignPredicate`).
``P^{A,live}``
    Figure 1 — the liveness predicate of ``A_{T,E}``
    (:class:`ALivePredicate`).
``P^{U,safe}``
    Equation (7) — the per-round safe-heard-of cardinality bound of
    ``U_{T,E,alpha}`` (:class:`USafePredicate`).
``P^{U,live}``
    Figure 2 — the phase-structured liveness predicate of
    ``U_{T,E,alpha}`` (:class:`ULivePredicate`).
``|SK| >= n - f`` and ``|HO| >= n-f ∧ |AS| <= f``
    Section 5.2's encodings of classical synchronous/asynchronous
    Byzantine assumptions (:class:`ByzantineSynchronousPredicate`,
    :class:`ByzantineAsynchronousPredicate`).

Predicates are evaluated over finite run prefixes
(:class:`repro.core.heardof.HeardOfCollection`).  "Eventually"-style
clauses are interpreted as "within the recorded horizon"; this is the
standard finite-trace reading and is what simulations can observe.

Every predicate reads a round through its ``receivers`` and the aligned
``ho_masks``/``sho_masks`` bitmask tuples, which both record types
expose, so set cardinalities are popcounts and no reception vector is
materialised.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Sequence, Union

from repro.core.heardof import HeardOfCollection, RoundRecord, ids_from_mask, iter_mask

Number = Union[int, float, Fraction]


class CommunicationPredicate(ABC):
    """Base class of all communication predicates.

    Subclasses implement :meth:`holds`, and may refine
    :meth:`violations` to report *why* a collection fails the predicate
    (used extensively by tests and the experiment reports).
    """

    #: Human-readable name used in reports.
    name: str = "P"

    @abstractmethod
    def holds(self, collection: HeardOfCollection) -> bool:
        """Return True iff the predicate holds on the recorded prefix."""

    def violations(self, collection: HeardOfCollection) -> List[str]:
        """Return human-readable descriptions of violations (empty if none)."""
        return [] if self.holds(collection) else [f"{self.name} does not hold"]

    def check_round(self, record: RoundRecord) -> Optional[bool]:
        """Per-round check for permanent predicates.

        Returns ``True``/``False`` for predicates that constrain every
        round independently, and ``None`` for predicates with temporal
        structure that cannot be judged from a single round.
        """
        return None

    # -- combinators -----------------------------------------------------------
    def __and__(self, other: "CommunicationPredicate") -> "AndPredicate":
        return AndPredicate([self, other])

    def __or__(self, other: "CommunicationPredicate") -> "OrPredicate":
        return OrPredicate([self, other])

    def describe(self) -> str:
        """A one-line description for experiment reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


# ----------------------------------------------------------------------
# Combinators
# ----------------------------------------------------------------------
class AndPredicate(CommunicationPredicate):
    """Conjunction of predicates (e.g. ``P_alpha ∧ P^{A,live}``)."""

    def __init__(self, parts: Sequence[CommunicationPredicate]) -> None:
        if not parts:
            raise ValueError("AndPredicate requires at least one part")
        flattened: List[CommunicationPredicate] = []
        for part in parts:
            if isinstance(part, AndPredicate):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        self.parts: List[CommunicationPredicate] = flattened
        self.name = " ∧ ".join(p.name for p in self.parts)

    def holds(self, collection: HeardOfCollection) -> bool:
        return all(part.holds(collection) for part in self.parts)

    def violations(self, collection: HeardOfCollection) -> List[str]:
        result: List[str] = []
        for part in self.parts:
            result.extend(part.violations(collection))
        return result

    def check_round(self, record: RoundRecord) -> Optional[bool]:
        results = [part.check_round(record) for part in self.parts]
        per_round = [r for r in results if r is not None]
        if not per_round:
            return None
        return all(per_round)


class OrPredicate(CommunicationPredicate):
    """Disjunction of predicates."""

    def __init__(self, parts: Sequence[CommunicationPredicate]) -> None:
        if not parts:
            raise ValueError("OrPredicate requires at least one part")
        self.parts = list(parts)
        self.name = " ∨ ".join(p.name for p in self.parts)

    def holds(self, collection: HeardOfCollection) -> bool:
        return any(part.holds(collection) for part in self.parts)

    def violations(self, collection: HeardOfCollection) -> List[str]:
        if self.holds(collection):
            return []
        return [f"none of the disjuncts of {self.name} holds"]


class TruePredicate(CommunicationPredicate):
    """The trivially true predicate (no communication assumptions)."""

    name = "true"

    def holds(self, collection: HeardOfCollection) -> bool:
        return True

    def check_round(self, record: RoundRecord) -> Optional[bool]:
        return True


# ----------------------------------------------------------------------
# Safety predicates
# ----------------------------------------------------------------------
class AlphaSafePredicate(CommunicationPredicate):
    """``P_alpha :: ∀r>0, ∀p ∈ Π: |AHO(p, r)| <= alpha``  (equation (2)).

    Bounds the number of *corrupted* receptions per process and per
    round; it says nothing about omissions, so arbitrarily many messages
    may be lost while ``P_alpha`` still holds.
    """

    def __init__(self, alpha: Number) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.name = f"P_alpha(alpha={alpha})"

    def holds(self, collection: HeardOfCollection) -> bool:
        return collection.max_aho() <= self.alpha

    def violations(self, collection: HeardOfCollection) -> List[str]:
        result = []
        for record in collection:
            for pid, ho, sho in zip(record.receivers, record.ho_masks, record.sho_masks):
                altered = (ho & ~sho).bit_count()
                if altered > self.alpha:
                    result.append(
                        f"round {record.round_num}: |AHO({pid})| = {altered} > {self.alpha}"
                    )
        return result

    def check_round(self, record: RoundRecord) -> Optional[bool]:
        return record.max_aho() <= self.alpha


class PermanentAlphaPredicate(CommunicationPredicate):
    """``P^perm_alpha :: |AS| <= alpha``  (equation (1)).

    The classical assumption that at most ``alpha`` processes ever send
    corrupted information during the whole computation.  The paper notes
    ``P^perm_alpha`` implies ``P_alpha``.
    """

    def __init__(self, alpha: Number) -> None:
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self.alpha = alpha
        self.name = f"P^perm_alpha(alpha={alpha})"

    def holds(self, collection: HeardOfCollection) -> bool:
        return len(collection.global_altered_span()) <= self.alpha

    def violations(self, collection: HeardOfCollection) -> List[str]:
        span = collection.global_altered_span()
        if len(span) <= self.alpha:
            return []
        return [f"|AS| = {len(span)} > {self.alpha} (AS = {sorted(span)})"]


class BenignPredicate(CommunicationPredicate):
    """``P_benign :: ∀p, ∀r: SHO(p, r) = HO(p, r)`` — no corruption at all."""

    name = "P_benign"

    def holds(self, collection: HeardOfCollection) -> bool:
        return collection.is_benign()

    def violations(self, collection: HeardOfCollection) -> List[str]:
        result = []
        for record in collection:
            for pid, ho, sho in zip(record.receivers, record.ho_masks, record.sho_masks):
                altered = ho & ~sho
                if altered:
                    result.append(
                        f"round {record.round_num}: process {pid} received corrupted "
                        f"messages from {list(iter_mask(altered))}"
                    )
        return result

    def check_round(self, record: RoundRecord) -> Optional[bool]:
        return record.max_aho() == 0


# ----------------------------------------------------------------------
# Liveness / mixed predicates of the two algorithms
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoodRoundWitness:
    """A witness for the space-structure clause of ``P^{A,live}``.

    ``pi1`` is the set of processes that commonly and safely hear of the
    same set ``pi2``; the round is the one at which this happened.
    """

    round_num: int
    pi1: FrozenSet[int]
    pi2: FrozenSet[int]


class ALivePredicate(CommunicationPredicate):
    """``P^{A,live}`` — Figure 1, the liveness predicate of ``A_{T,E}``.

    Three conjuncts (interpreted on the recorded finite prefix):

    1. *Uniformisation rounds*: for every round there is a later round
       ``r`` and sets ``Π¹_r``, ``Π²_r`` with ``|Π¹_r| > E − α``,
       ``|Π²_r| > T`` such that every ``p ∈ Π¹_r`` has
       ``HO(p, r) = SHO(p, r) = Π²_r``.
    2. Every process infinitely often hears of more than ``T`` processes.
    3. Every process infinitely often *safely* hears of more than ``E``
       processes.

    On a finite prefix the checks become: at least one uniformisation
    round exists, and after the *first* such round every process has at
    least one round with ``|HO| > T`` and one with ``|SHO| > E``.
    :meth:`good_rounds` exposes all uniformisation-round witnesses so
    experiments can report where they fall.
    """

    def __init__(self, n: int, alpha: Number, threshold: Number, enough: Number) -> None:
        self.n = n
        self.alpha = alpha
        self.threshold = threshold
        self.enough = enough
        self.name = f"P^A,live(T={threshold}, E={enough}, alpha={alpha})"

    # -- clause 1 ---------------------------------------------------------------
    def good_round_witness(self, record: RoundRecord) -> Optional[GoodRoundWitness]:
        """Return a witness if ``record`` is a uniformisation round, else None.

        A candidate ``Π²`` must be the common value of ``HO(p, r)`` and
        ``SHO(p, r)`` for every member of ``Π¹``; we group processes by
        their (HO = SHO) mask, in receiver order, and return the first
        group that is large enough and whose common set is large enough.
        """
        groups: dict = {}
        for pid, ho, sho in zip(record.receivers, record.ho_masks, record.sho_masks):
            if ho == sho:
                groups.setdefault(ho, []).append(pid)
        for pi2, pi1 in groups.items():
            if len(pi1) > self.enough - self.alpha and pi2.bit_count() > self.threshold:
                return GoodRoundWitness(
                    round_num=record.round_num,
                    pi1=frozenset(pi1),
                    pi2=ids_from_mask(pi2),
                )
        return None

    def good_rounds(self, collection: HeardOfCollection) -> List[GoodRoundWitness]:
        """All uniformisation-round witnesses in the prefix."""
        witnesses = []
        for record in collection:
            witness = self.good_round_witness(record)
            if witness is not None:
                witnesses.append(witness)
        return witnesses

    # -- full predicate ---------------------------------------------------------
    def holds(self, collection: HeardOfCollection) -> bool:
        return not self.violations(collection)

    def violations(self, collection: HeardOfCollection) -> List[str]:
        result: List[str] = []
        first_good = next(
            (record.round_num for record in collection if self.good_round_witness(record)),
            None,
        )
        if first_good is None:
            result.append(
                "no uniformisation round: no round r with Π¹, Π² such that "
                f"|Π¹| > E−α = {self.enough}-{self.alpha} and |Π²| > T = {self.threshold} "
                "and HO = SHO = Π² for all of Π¹"
            )
            return result
        # Processes with some later round where |HO| > T, resp. |SHO| > E.
        live_ho = set()
        live_sho = set()
        for record in collection:
            if record.round_num <= first_good:
                continue
            for pid, ho, sho in zip(record.receivers, record.ho_masks, record.sho_masks):
                if ho.bit_count() > self.threshold:
                    live_ho.add(pid)
                if sho.bit_count() > self.enough:
                    live_sho.add(pid)
        for pid in range(collection.n):
            if pid not in live_ho:
                result.append(
                    f"process {pid} never hears of more than T = {self.threshold} "
                    f"processes after round {first_good}"
                )
            if pid not in live_sho:
                result.append(
                    f"process {pid} never safely hears of more than E = {self.enough} "
                    f"processes after round {first_good}"
                )
        return result


class USafePredicate(CommunicationPredicate):
    """``P^{U,safe}`` — equation (7).

    ``∀p ∈ Π, ∀r > 0: |SHO(p, r)| > max(n + 2α − E − 1, T, α)``.

    The paper points out that this predicate mixes safety and liveness:
    it is a *permanent* lower bound on how many messages must arrive
    uncorrupted at every process in every round.
    """

    def __init__(self, n: int, alpha: Number, threshold: Number, enough: Number) -> None:
        self.n = n
        self.alpha = alpha
        self.threshold = threshold
        self.enough = enough
        self.minimum = max(n + 2 * alpha - enough - 1, threshold, alpha)
        self.name = f"P^U,safe(min |SHO| > {self.minimum})"

    def holds(self, collection: HeardOfCollection) -> bool:
        return all(self.check_round(record) for record in collection)

    def violations(self, collection: HeardOfCollection) -> List[str]:
        result = []
        for record in collection:
            for pid, sho in zip(record.receivers, record.sho_masks):
                if sho.bit_count() <= self.minimum:
                    result.append(
                        f"round {record.round_num}: |SHO({pid})| = "
                        f"{sho.bit_count()} <= {self.minimum}"
                    )
        return result

    def check_round(self, record: RoundRecord) -> Optional[bool]:
        return all(sho.bit_count() > self.minimum for sho in record.sho_masks)


@dataclass(frozen=True)
class GoodPhaseWitness:
    """A witness for ``P^{U,live}``: the phase ``phi0`` whose three rounds are good."""

    phase: int
    pi0: FrozenSet[int]


class ULivePredicate(CommunicationPredicate):
    """``P^{U,live}`` — Figure 2, the liveness predicate of ``U_{T,E,α}``.

    For every phase there is a later phase ``φ0`` and a set ``Π0`` such
    that for all processes ``p``:

    * ``HO(p, 2φ0) = SHO(p, 2φ0) = Π0``  (a corruption-free second round
      of phase ``φ0`` in which everyone hears of exactly the same set),
    * ``|SHO(p, 2φ0 + 1)| > T``  (the first round of the next phase is
      safely live enough for everyone to cast a true vote), and
    * ``|SHO(p, 2φ0 + 2)| > max(E, α)``  (the second round of the next
      phase delivers enough uncorrupted votes for everyone to decide).

    Rounds are numbered from 1; phase ``φ`` consists of rounds ``2φ−1``
    and ``2φ``.
    """

    def __init__(self, n: int, alpha: Number, threshold: Number, enough: Number) -> None:
        self.n = n
        self.alpha = alpha
        self.threshold = threshold
        self.enough = enough
        self.name = f"P^U,live(T={threshold}, E={enough}, alpha={alpha})"

    def good_phase_witness(
        self, collection: HeardOfCollection, phase: int
    ) -> Optional[GoodPhaseWitness]:
        """Check whether ``phase`` satisfies the body of the predicate."""
        round_2phi = 2 * phase
        if round_2phi + 2 > collection.num_rounds or round_2phi < 1:
            return None
        record = collection[round_2phi]
        ho_masks = record.ho_masks
        if not ho_masks or record.sho_masks != ho_masks or len(set(ho_masks)) != 1:
            return None
        bound = max(self.enough, self.alpha)
        if any(sho.bit_count() <= self.threshold for sho in collection[round_2phi + 1].sho_masks):
            return None
        if any(sho.bit_count() <= bound for sho in collection[round_2phi + 2].sho_masks):
            return None
        return GoodPhaseWitness(phase=phase, pi0=ids_from_mask(ho_masks[0]))

    def good_phases(self, collection: HeardOfCollection) -> List[GoodPhaseWitness]:
        witnesses = []
        max_phase = collection.num_rounds // 2
        for phase in range(1, max_phase + 1):
            witness = self.good_phase_witness(collection, phase)
            if witness is not None:
                witnesses.append(witness)
        return witnesses

    def holds(self, collection: HeardOfCollection) -> bool:
        return bool(self.good_phases(collection))

    def violations(self, collection: HeardOfCollection) -> List[str]:
        if self.holds(collection):
            return []
        return [
            "no good phase: no phase φ0 with a common, corruption-free round 2φ0 "
            f"followed by |SHO| > T = {self.threshold} and "
            f"|SHO| > max(E, α) = {max(self.enough, self.alpha)} rounds"
        ]


# ----------------------------------------------------------------------
# Section 5.2: classical Byzantine assumptions as predicates
# ----------------------------------------------------------------------
class ByzantineSynchronousPredicate(CommunicationPredicate):
    """``|SK| >= n − f``: synchronous system, reliable links, ≤ f Byzantine processes.

    At least ``n − f`` processes are *safely heard by everyone in every
    round*, i.e. behave (from the transmission point of view) like
    correct processes of the classical model.
    """

    def __init__(self, n: int, f: int) -> None:
        if f < 0 or f > n:
            raise ValueError(f"f must be in [0, n], got {f}")
        self.n = n
        self.f = f
        self.name = f"|SK| >= n - f (n={n}, f={f})"

    def holds(self, collection: HeardOfCollection) -> bool:
        return len(collection.global_safe_kernel()) >= self.n - self.f

    def violations(self, collection: HeardOfCollection) -> List[str]:
        sk = collection.global_safe_kernel()
        if len(sk) >= self.n - self.f:
            return []
        return [f"|SK| = {len(sk)} < n - f = {self.n - self.f}"]


class ByzantineAsynchronousPredicate(CommunicationPredicate):
    """``∀p, r: |HO(p, r)| >= n − f  ∧  |AS| <= f``.

    Section 5.2's predicate for an asynchronous system with reliable
    links and at most ``f`` Byzantine processes.
    """

    def __init__(self, n: int, f: int) -> None:
        if f < 0 or f > n:
            raise ValueError(f"f must be in [0, n], got {f}")
        self.n = n
        self.f = f
        self.name = f"|HO| >= n-f ∧ |AS| <= f (n={n}, f={f})"

    def holds(self, collection: HeardOfCollection) -> bool:
        ho_ok = all(
            ho.bit_count() >= self.n - self.f
            for record in collection
            for ho in record.ho_masks
        )
        return ho_ok and len(collection.global_altered_span()) <= self.f

    def violations(self, collection: HeardOfCollection) -> List[str]:
        result = []
        for record in collection:
            for pid, ho in zip(record.receivers, record.ho_masks):
                if ho.bit_count() < self.n - self.f:
                    result.append(
                        f"round {record.round_num}: |HO({pid})| = {ho.bit_count()} "
                        f"< n - f = {self.n - self.f}"
                    )
        span = collection.global_altered_span()
        if len(span) > self.f:
            result.append(f"|AS| = {len(span)} > f = {self.f}")
        return result
