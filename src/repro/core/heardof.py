"""Heard-of sets, safe heard-of sets and derived quantities (Section 2.1).

For each process ``p`` and round ``r`` the paper defines

* the reception vector ``mu_p^r`` — the partial vector of messages that
  ``p`` receives at round ``r``;
* ``HO(p, r)``  — the support of ``mu_p^r`` (who was heard of);
* ``SHO(p, r)`` — the senders whose message arrived *uncorrupted*, i.e.
  equal to what their sending function prescribed;
* ``AHO(p, r) = HO(p, r) \\ SHO(p, r)`` — the altered heard-of set;
* the round kernel ``K(r)`` and safe kernel ``SK(r)`` (intersection over
  all receivers), their global counterparts ``K`` and ``SK``;
* the altered span ``AS(r)`` and ``AS`` (union of altered heard-of sets).

This module provides small, immutable data containers for a single
round (:class:`ReceptionVector`, :class:`RoundRecord`) and for an entire
run (:class:`HeardOfCollection`), plus the free functions computing the
derived sets.  Communication predicates (:mod:`repro.core.predicates`)
are evaluated over :class:`HeardOfCollection`.

Bitmask representation
----------------------
Process ids are the integers ``0 .. n-1``, so every subset of ``Pi`` is
an ``n``-bit integer: bit ``p`` is set iff process ``p`` is a member.
``HO``/``SHO``/``AHO`` sets and all the derived quantities (kernels,
spans, cardinalities) become single-word integer operations in this
representation, which is what the fast simulation backend
(:mod:`repro.simulation.fast_engine`) computes with.
:class:`MaskReception` and :class:`MaskRoundRecord` are the mask-level
counterparts of :class:`ReceptionVector` and :class:`RoundRecord`; the
round-trips are lossless, and :class:`MaskRoundRecord` exposes the same
read API as :class:`RoundRecord` so collections, predicates and metrics
work identically over either record type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

try:  # NumPy is optional everywhere in this package: the word-array
    import numpy as _np  # helpers below degrade to a clear error without it.
except ImportError:  # pragma: no cover - exercised by the numpy-less CI leg
    _np = None  # type: ignore[assignment]

from repro.core.process import Payload, ProcessId


# ----------------------------------------------------------------------
# Bitmask helpers
# ----------------------------------------------------------------------
def full_mask(n: int) -> int:
    """The mask of the whole process set ``Pi = {0, .., n-1}``."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return (1 << n) - 1


def mask_from_ids(ids: Iterable[ProcessId]) -> int:
    """Encode a set of process ids as a bitmask."""
    mask = 0
    for pid in ids:
        if pid < 0:
            raise ValueError(f"process ids must be non-negative, got {pid}")
        mask |= 1 << pid
    return mask


def ids_from_mask(mask: int) -> FrozenSet[ProcessId]:
    """Decode a bitmask back into the frozenset of process ids."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(ids)


def iter_mask(mask: int) -> Iterator[ProcessId]:
    """Iterate the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ----------------------------------------------------------------------
# Mask <-> packed-word helpers
# ----------------------------------------------------------------------
# The batch engine carries reception as arrays of 64-bit words instead
# of dense boolean matrices; these helpers define the one word layout
# shared by every producer and consumer: *little-endian*, so bit ``s``
# of a mask lives in word ``s >> 6`` at shift ``s & 63``, and a
# ``(words_per_mask(n) * 8)``-byte little-endian serialisation of the
# mask int views directly as the word row.
def words_per_mask(n: int) -> int:
    """Number of 64-bit words needed for an ``n``-bit mask (min 1)."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return max(1, (n + 63) // 64)


def mask_to_words(mask: int, n: int) -> Tuple[int, ...]:
    """Split an ``n``-bit mask into ``words_per_mask(n)`` little-endian words."""
    if mask < 0:
        raise ValueError(f"mask must be non-negative, got {mask}")
    width = words_per_mask(n)
    return tuple((mask >> (64 * k)) & 0xFFFFFFFFFFFFFFFF for k in range(width))


def words_to_mask(words: Iterable[int]) -> int:
    """Recombine little-endian 64-bit words into a single mask int."""
    mask = 0
    for k, word in enumerate(words):
        mask |= word << (64 * k)
    return mask


def pack_mask_rows(bits: "_np.ndarray") -> "_np.ndarray":
    """Pack a boolean array along its last axis into little-endian uint64 words.

    ``bits[..., s]`` becomes bit ``s & 63`` of ``out[..., s >> 6]`` —
    the same layout as :func:`mask_to_words`, so a packed row views
    back to the mask int via :func:`words_to_mask`.  Requires NumPy.
    """
    if _np is None:  # pragma: no cover - numpy-less environments never pack
        raise RuntimeError("pack_mask_rows requires numpy")
    packed = _np.packbits(bits, axis=-1, bitorder="little")
    nbytes = packed.shape[-1]
    width = words_per_mask(bits.shape[-1])
    if nbytes != width * 8:
        pad = _np.zeros(packed.shape[:-1] + (width * 8 - nbytes,), dtype=_np.uint8)
        packed = _np.concatenate([packed, pad], axis=-1)
    return _np.ascontiguousarray(packed).view("<u8")


def unpack_mask_rows(words: "_np.ndarray", n: int) -> "_np.ndarray":
    """Inverse of :func:`pack_mask_rows`: words back to an ``(..., n)`` bool array."""
    if _np is None:  # pragma: no cover - numpy-less environments never pack
        raise RuntimeError("unpack_mask_rows requires numpy")
    as_bytes = _np.ascontiguousarray(words).astype("<u8", copy=False).view(_np.uint8)
    bits = _np.unpackbits(as_bytes, axis=-1, count=n, bitorder="little")
    return bits.astype(bool)


# ----------------------------------------------------------------------
# Free functions on HO / SHO sets
# ----------------------------------------------------------------------
def altered_heard_of(ho: Iterable[ProcessId], sho: Iterable[ProcessId]) -> FrozenSet[ProcessId]:
    """Return ``AHO = HO \\ SHO``.

    Raises :class:`ValueError` if ``sho`` is not a subset of ``ho`` —
    by definition a message can only be "safely heard" if it was heard
    at all.
    """
    ho_set = frozenset(ho)
    sho_set = frozenset(sho)
    if not sho_set <= ho_set:
        raise ValueError(f"SHO {sorted(sho_set)} is not a subset of HO {sorted(ho_set)}")
    return ho_set - sho_set


def kernel(ho_sets: Mapping[ProcessId, Iterable[ProcessId]]) -> FrozenSet[ProcessId]:
    """Return the kernel of a round: processes heard by *all* receivers.

    ``ho_sets`` maps each receiver ``p`` to ``HO(p, r)``.  An empty
    mapping yields the empty kernel (there is no receiver to constrain,
    but also no process set to take an intersection over, so we return
    the empty set which is the conservative choice used by predicates).
    """
    sets = [frozenset(s) for s in ho_sets.values()]
    if not sets:
        return frozenset()
    result = sets[0]
    for s in sets[1:]:
        result &= s
    return result


def safe_kernel(sho_sets: Mapping[ProcessId, Iterable[ProcessId]]) -> FrozenSet[ProcessId]:
    """Return the safe kernel of a round: processes *safely* heard by all."""
    return kernel(sho_sets)


def altered_span(
    ho_sets: Mapping[ProcessId, Iterable[ProcessId]],
    sho_sets: Mapping[ProcessId, Iterable[ProcessId]],
) -> FrozenSet[ProcessId]:
    """Return ``AS(r)``: processes from which *some* receiver got a corrupted message."""
    span: Set[ProcessId] = set()
    for receiver, ho in ho_sets.items():
        sho = sho_sets.get(receiver, frozenset())
        span |= altered_heard_of(ho, sho)
    return frozenset(span)


# ----------------------------------------------------------------------
# Per-round containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReceptionVector:
    """The partial reception vector ``mu_p^r`` of one receiver at one round.

    Attributes
    ----------
    receiver:
        The process this vector belongs to.
    received:
        Mapping from sender to the payload actually received (possibly
        corrupted).  Senders not heard of are absent.
    intended:
        Mapping from sender to the payload the sender's sending function
        prescribed for this receiver.  Present for *every* sender (all
        processes send at every round in this model); used to compute
        ``SHO``.
    """

    receiver: ProcessId
    received: Mapping[ProcessId, Payload]
    intended: Mapping[ProcessId, Payload]

    @property
    def heard_of(self) -> FrozenSet[ProcessId]:
        """``HO(p, r)``: the support of the reception vector."""
        return frozenset(self.received)

    @property
    def safe_heard_of(self) -> FrozenSet[ProcessId]:
        """``SHO(p, r)``: senders whose message arrived uncorrupted."""
        return frozenset(
            sender
            for sender, payload in self.received.items()
            if sender in self.intended and payload == self.intended[sender]
        )

    @property
    def altered_heard_of(self) -> FrozenSet[ProcessId]:
        """``AHO(p, r) = HO(p, r) \\ SHO(p, r)``."""
        return self.heard_of - self.safe_heard_of

    def values_received(self) -> Tuple[Payload, ...]:
        """All payloads received, in sender order (useful in tests)."""
        return tuple(self.received[s] for s in sorted(self.received))

    def count_of(self, value: Payload) -> int:
        """Number of received messages equal to ``value`` (the set ``R_p^r(v)``)."""
        return sum(1 for payload in self.received.values() if payload == value)

    def senders_of(self, value: Payload) -> FrozenSet[ProcessId]:
        """The set ``R_p^r(v)`` of senders from which ``value`` was received."""
        return frozenset(s for s, payload in self.received.items() if payload == value)


class _MaskRoundView:
    """The per-round reductions both record types derive from their masks.

    Subclasses provide :attr:`receivers` and, aligned with it, the
    ``ho_masks``/``sho_masks`` tuples (bit ``s`` set iff sender ``s``
    is in ``HO``/``SHO`` of that receiver).  Kernels, spans and fault
    counts are then single-word integer operations; the communication
    predicates read the same three tuples.
    """

    __slots__ = ()

    receivers: Sequence[ProcessId]
    ho_masks: Tuple[int, ...]
    sho_masks: Tuple[int, ...]

    def kernel_mask(self) -> int:
        return reduce(int.__and__, self.ho_masks) if self.ho_masks else 0

    def safe_kernel_mask(self) -> int:
        return reduce(int.__and__, self.sho_masks) if self.sho_masks else 0

    def altered_span_mask(self) -> int:
        # Perfect rounds share one tuple object for HO and SHO (both
        # engines' fast paths) — nothing was altered, skip the walk.
        if self.sho_masks is self.ho_masks:
            return 0
        span = 0
        for ho, sho in zip(self.ho_masks, self.sho_masks):
            span |= ho & ~sho
        return span

    def kernel(self) -> FrozenSet[ProcessId]:
        """``K(r)``: processes heard of by every receiver at this round."""
        return ids_from_mask(self.kernel_mask())

    def safe_kernel(self) -> FrozenSet[ProcessId]:
        """``SK(r)``: processes safely heard of by every receiver."""
        return ids_from_mask(self.safe_kernel_mask())

    def altered_span(self) -> FrozenSet[ProcessId]:
        """``AS(r)``: processes from which someone received a corrupted message."""
        return ids_from_mask(self.altered_span_mask())

    def total_corruptions(self) -> int:
        """Total number of corrupted receptions at this round (summed over receivers)."""
        if self.sho_masks is self.ho_masks:  # shared perfect-round tuple
            return 0
        return sum((ho & ~sho).bit_count() for ho, sho in zip(self.ho_masks, self.sho_masks))

    def max_aho(self) -> int:
        """``max_p |AHO(p, r)|`` — the per-receiver corruption peak of this round."""
        if not self.ho_masks or self.sho_masks is self.ho_masks:
            return 0
        return max((ho & ~sho).bit_count() for ho, sho in zip(self.ho_masks, self.sho_masks))


@dataclass(frozen=True)
class RoundRecord(_MaskRoundView):
    """Everything observable about a single round of a run.

    Attributes
    ----------
    round_num:
        The 1-based round number.
    receptions:
        Mapping from receiver to its :class:`ReceptionVector`.
    states_before:
        Optional per-process state snapshots taken before the round's
        transitions (used by invariant monitors); may be empty.
    states_after:
        Optional per-process state snapshots after the transitions.
    """

    round_num: int
    receptions: Mapping[ProcessId, ReceptionVector]
    states_before: Mapping[ProcessId, Mapping[str, object]] = field(default_factory=dict)
    states_after: Mapping[ProcessId, Mapping[str, object]] = field(default_factory=dict)

    @property
    def processes(self) -> FrozenSet[ProcessId]:
        return frozenset(self.receptions)

    @cached_property
    def receivers(self) -> Tuple[ProcessId, ...]:
        """The receivers in ``receptions`` order; the mask tuples align with it."""
        return tuple(self.receptions)

    @cached_property
    def ho_masks(self) -> Tuple[int, ...]:
        """``HO`` of each of :attr:`receivers` as a bitmask, computed once."""
        return tuple(mask_from_ids(rv.received) for rv in self.receptions.values())

    @cached_property
    def sho_masks(self) -> Tuple[int, ...]:
        """``SHO`` of each of :attr:`receivers` as a bitmask, computed once."""
        return tuple(mask_from_ids(rv.safe_heard_of) for rv in self.receptions.values())

    def ho(self, receiver: ProcessId) -> FrozenSet[ProcessId]:
        """``HO(receiver, round_num)``."""
        return self.receptions[receiver].heard_of

    def sho(self, receiver: ProcessId) -> FrozenSet[ProcessId]:
        """``SHO(receiver, round_num)``."""
        return self.receptions[receiver].safe_heard_of

    def aho(self, receiver: ProcessId) -> FrozenSet[ProcessId]:
        """``AHO(receiver, round_num)``."""
        return self.receptions[receiver].altered_heard_of

    def ho_sets(self) -> Dict[ProcessId, FrozenSet[ProcessId]]:
        return {p: rv.heard_of for p, rv in self.receptions.items()}

    def sho_sets(self) -> Dict[ProcessId, FrozenSet[ProcessId]]:
        return {p: rv.safe_heard_of for p, rv in self.receptions.items()}

    def total_omissions(self) -> int:
        """Total number of messages not received at this round."""
        return sum(
            len(rv.intended) - len(rv.received) for rv in self.receptions.values()
        )


# ----------------------------------------------------------------------
# Bitmask counterparts of ReceptionVector / RoundRecord
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MaskReception:
    """Bitmask encoding of one :class:`ReceptionVector`.

    Attributes
    ----------
    receiver:
        The process this reception belongs to.
    n:
        System size (masks are ``n``-bit integers).
    ho_mask:
        ``HO(p, r)`` as a bitmask.
    sho_mask:
        ``SHO(p, r)`` as a bitmask (subset of ``ho_mask``).
    received:
        The payloads actually received, one per set bit of ``ho_mask``
        in ascending sender order.
    intended:
        The payload each sender's sending function prescribed for this
        receiver, for *every* sender ``0 .. n-1``.
    """

    receiver: ProcessId
    n: int
    ho_mask: int
    sho_mask: int
    received: Tuple[Payload, ...]
    intended: Tuple[Payload, ...]

    def __post_init__(self) -> None:
        full = full_mask(self.n)
        if not 0 <= self.ho_mask <= full:
            raise ValueError(f"ho_mask {self.ho_mask:#x} out of range for n={self.n}")
        if self.sho_mask & ~self.ho_mask:
            raise ValueError(
                f"SHO mask {self.sho_mask:#x} is not a subset of HO mask {self.ho_mask:#x}"
            )
        if len(self.received) != self.ho_mask.bit_count():
            raise ValueError(
                f"expected {self.ho_mask.bit_count()} received payloads, got {len(self.received)}"
            )
        if len(self.intended) != self.n:
            raise ValueError(f"expected {self.n} intended payloads, got {len(self.intended)}")

    @classmethod
    def from_vector(cls, vector: ReceptionVector, n: int) -> "MaskReception":
        """Lossless encoding of a :class:`ReceptionVector` (ids must be ``0..n-1``)."""
        ho_mask = mask_from_ids(vector.received)
        if ho_mask >= (1 << n):
            raise ValueError(f"sender ids exceed n={n}")
        return cls(
            receiver=vector.receiver,
            n=n,
            ho_mask=ho_mask,
            sho_mask=mask_from_ids(vector.safe_heard_of),
            received=tuple(vector.received[s] for s in iter_mask(ho_mask)),
            intended=tuple(vector.intended[s] for s in range(n)),
        )

    def to_vector(self) -> ReceptionVector:
        """Materialise the equivalent :class:`ReceptionVector`."""
        received = dict(zip(iter_mask(self.ho_mask), self.received))
        return ReceptionVector(
            receiver=self.receiver,
            received=received,
            intended={s: self.intended[s] for s in range(self.n)},
        )

    @property
    def heard_of(self) -> FrozenSet[ProcessId]:
        return ids_from_mask(self.ho_mask)

    @property
    def safe_heard_of(self) -> FrozenSet[ProcessId]:
        return ids_from_mask(self.sho_mask)

    @property
    def altered_heard_of(self) -> FrozenSet[ProcessId]:
        return ids_from_mask(self.ho_mask & ~self.sho_mask)


class MaskRoundRecord(_MaskRoundView):
    """Bitmask counterpart of :class:`RoundRecord` for broadcast rounds.

    The fast backend executes algorithms whose sending function
    broadcasts one payload per sender and round, so a whole round is
    captured by the per-sender broadcast payloads plus, per receiver,
    the ``HO``/``SHO`` masks and the corrupted payloads (senders in
    ``AHO`` only).  The class exposes the same read API as
    :class:`RoundRecord` — every set accessor, kernel/span computation
    and fault count — so :class:`HeardOfCollection`, the communication
    predicates and the metrics work identically over either record
    type; :attr:`receptions` materialises full
    :class:`ReceptionVector` objects lazily (and caches them) for
    consumers that need actual payload maps.

    State snapshots are never recorded by the fast backend, so
    ``states_before``/``states_after`` are always empty.
    """

    __slots__ = ("round_num", "n", "sent", "ho_masks", "sho_masks", "corrupt", "_receptions")

    def __init__(
        self,
        round_num: int,
        n: int,
        sent: Tuple[Payload, ...],
        ho_masks: Tuple[int, ...],
        sho_masks: Tuple[int, ...],
        corrupt: Tuple[Optional[Mapping[ProcessId, Payload]], ...],
    ) -> None:
        if not (len(sent) == len(ho_masks) == len(sho_masks) == len(corrupt) == n):
            raise ValueError(f"per-sender/per-receiver tuples must all have length n={n}")
        self.round_num = round_num
        self.n = n
        self.sent = sent
        self.ho_masks = ho_masks
        self.sho_masks = sho_masks
        self.corrupt = corrupt
        self._receptions: Optional[Dict[ProcessId, ReceptionVector]] = None

    # -- conversions ---------------------------------------------------------
    @classmethod
    def from_round_record(cls, record: RoundRecord, n: int) -> "MaskRoundRecord":
        """Encode a broadcast :class:`RoundRecord` (receivers ``0..n-1``).

        Raises :class:`ValueError` when the record is not a broadcast
        round (some sender prescribed different payloads for different
        receivers) — such rounds have no single per-sender payload and
        must stay in matrix form.
        """
        if set(record.receptions) != set(range(n)):
            raise ValueError(f"receivers must be exactly 0..{n - 1}")
        sent: List[Payload] = [None] * n
        seen = [False] * n
        for rv in record.receptions.values():
            for sender in range(n):
                payload = rv.intended[sender]
                if not seen[sender]:
                    sent[sender] = payload
                    seen[sender] = True
                elif payload != sent[sender]:
                    raise ValueError(
                        f"sender {sender} is not broadcasting at round {record.round_num}; "
                        f"cannot encode as MaskRoundRecord"
                    )
        ho_masks: List[int] = []
        sho_masks: List[int] = []
        corrupt: List[Optional[Dict[ProcessId, Payload]]] = []
        for receiver in range(n):
            rv = record.receptions[receiver]
            ho = mask_from_ids(rv.received)
            sho = mask_from_ids(rv.safe_heard_of)
            altered = ho & ~sho
            ho_masks.append(ho)
            sho_masks.append(sho)
            corrupt.append(
                {s: rv.received[s] for s in iter_mask(altered)} if altered else None
            )
        return cls(
            round_num=record.round_num,
            n=n,
            sent=tuple(sent),
            ho_masks=tuple(ho_masks),
            sho_masks=tuple(sho_masks),
            corrupt=tuple(corrupt),
        )

    def to_round_record(self) -> RoundRecord:
        """Materialise the equivalent frozen :class:`RoundRecord`."""
        return RoundRecord(round_num=self.round_num, receptions=dict(self.receptions))

    def received_payload(self, receiver: ProcessId, sender: ProcessId) -> Payload:
        """The payload ``receiver`` got from ``sender`` (must be in ``HO``)."""
        corrupted = self.corrupt[receiver]
        if corrupted is not None and sender in corrupted:
            return corrupted[sender]
        return self.sent[sender]

    # -- RoundRecord read API -------------------------------------------------
    @property
    def receptions(self) -> Mapping[ProcessId, ReceptionVector]:
        if self._receptions is None:
            intended = {s: self.sent[s] for s in range(self.n)}
            vectors: Dict[ProcessId, ReceptionVector] = {}
            for receiver in range(self.n):
                corrupted = self.corrupt[receiver] or {}
                received = {
                    s: corrupted.get(s, self.sent[s]) for s in iter_mask(self.ho_masks[receiver])
                }
                vectors[receiver] = ReceptionVector(
                    receiver=receiver, received=received, intended=intended
                )
            self._receptions = vectors
        return self._receptions

    @property
    def states_before(self) -> Mapping[ProcessId, Mapping[str, object]]:
        return {}

    @property
    def states_after(self) -> Mapping[ProcessId, Mapping[str, object]]:
        return {}

    @property
    def processes(self) -> FrozenSet[ProcessId]:
        return frozenset(range(self.n))

    @property
    def receivers(self) -> range:
        return range(self.n)

    def ho(self, receiver: ProcessId) -> FrozenSet[ProcessId]:
        return ids_from_mask(self.ho_masks[receiver])

    def sho(self, receiver: ProcessId) -> FrozenSet[ProcessId]:
        return ids_from_mask(self.sho_masks[receiver])

    def aho(self, receiver: ProcessId) -> FrozenSet[ProcessId]:
        return ids_from_mask(self.ho_masks[receiver] & ~self.sho_masks[receiver])

    def ho_sets(self) -> Dict[ProcessId, FrozenSet[ProcessId]]:
        return {p: self.ho(p) for p in range(self.n)}

    def sho_sets(self) -> Dict[ProcessId, FrozenSet[ProcessId]]:
        return {p: self.sho(p) for p in range(self.n)}

    def total_omissions(self) -> int:
        # sum(n - popcount(ho)) with the popcounts folded in one C-level
        # map pass — these totals run once per record per metrics call,
        # the hottest scalar loop of a large fault-free sweep.
        return self.n * self.n - sum(map(int.bit_count, self.ho_masks))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MaskRoundRecord r={self.round_num} n={self.n}>"


# ----------------------------------------------------------------------
# Whole-run container
# ----------------------------------------------------------------------
class HeardOfCollection:
    """The collection of HO/SHO sets of a (finite prefix of a) run.

    The paper's communication predicates are defined over the infinite
    collection ``(HO(p, r); SHO(p, r))`` for all ``p`` and ``r``; a
    simulation produces a finite prefix, which this class stores as a
    list of :class:`RoundRecord`.  Predicates evaluated on a finite
    prefix interpret "eventually" clauses as "within the recorded
    horizon".
    """

    def __init__(self, n: int, rounds: Optional[Iterable[RoundRecord]] = None) -> None:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        self.n = n
        self._rounds: List[RoundRecord] = list(rounds) if rounds is not None else []
        for expected, record in enumerate(self._rounds, start=1):
            if record.round_num != expected:
                raise ValueError(
                    f"round records must be consecutive starting at 1; "
                    f"expected {expected}, got {record.round_num}"
                )

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._rounds)

    def __iter__(self) -> Iterator[RoundRecord]:
        return iter(self._rounds)

    def __getitem__(self, round_num: int) -> RoundRecord:
        """Return the record of 1-based ``round_num``."""
        if round_num < 1 or round_num > len(self._rounds):
            raise KeyError(f"no record for round {round_num}")
        return self._rounds[round_num - 1]

    @property
    def num_rounds(self) -> int:
        return len(self._rounds)

    @property
    def processes(self) -> FrozenSet[ProcessId]:
        return frozenset(range(self.n))

    def append(self, record: RoundRecord) -> None:
        """Append the next round's record (round numbers must be consecutive)."""
        expected = len(self._rounds) + 1
        if record.round_num != expected:
            raise ValueError(
                f"expected round {expected}, got record for round {record.round_num}"
            )
        self._rounds.append(record)

    # -- per-round accessors --------------------------------------------------
    def ho(self, p: ProcessId, r: int) -> FrozenSet[ProcessId]:
        return self[r].ho(p)

    def sho(self, p: ProcessId, r: int) -> FrozenSet[ProcessId]:
        return self[r].sho(p)

    def aho(self, p: ProcessId, r: int) -> FrozenSet[ProcessId]:
        return self[r].aho(p)

    # -- global derived sets ---------------------------------------------------
    # Every record type exposes its per-round reductions as bitmask
    # ints; folding those and converting once avoids materialising a
    # frozenset per round.
    def global_kernel(self) -> FrozenSet[ProcessId]:
        """``K``: processes heard by everyone at every recorded round."""
        result = full_mask(self.n)
        for record in self._rounds:
            result &= record.kernel_mask()
        return ids_from_mask(result)

    def global_safe_kernel(self) -> FrozenSet[ProcessId]:
        """``SK``: processes safely heard by everyone at every recorded round."""
        result = full_mask(self.n)
        for record in self._rounds:
            result &= record.safe_kernel_mask()
        return ids_from_mask(result)

    def global_altered_span(self) -> FrozenSet[ProcessId]:
        """``AS``: processes that emitted at least one corrupted message, ever."""
        span = 0
        for record in self._rounds:
            span |= record.altered_span_mask()
        return ids_from_mask(span)

    # -- aggregate statistics --------------------------------------------------
    def max_aho(self) -> int:
        """``max_{p,r} |AHO(p, r)|`` over the recorded prefix."""
        if not self._rounds:
            return 0
        return max(record.max_aho() for record in self._rounds)

    def total_corruptions(self) -> int:
        return sum(record.total_corruptions() for record in self._rounds)

    def total_omissions(self) -> int:
        return sum(record.total_omissions() for record in self._rounds)

    def corruption_profile(self) -> List[int]:
        """Per-round total corruptions, useful for plots and reports."""
        return [record.total_corruptions() for record in self._rounds]

    def is_benign(self) -> bool:
        """True iff ``SHO(p, r) = HO(p, r)`` everywhere (the benign special case).

        Evaluated via ``max_aho`` so mask-backed records (fast backend)
        never have to materialise full reception vectors.
        """
        return all(record.max_aho() == 0 for record in self._rounds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<HeardOfCollection n={self.n} rounds={len(self._rounds)} "
            f"corruptions={self.total_corruptions()}>"
        )
