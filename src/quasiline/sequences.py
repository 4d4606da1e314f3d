"""Sequences of permutations generated by window reversals.

A sequence starts from the identity on {1..n}; each move reverses a
consecutive window of the current permutation.  A sequence is *allowable*
when every pair of elements is jointly reversed exactly once, and
*generalized allowable* when the final permutation is the full reversal,
which happens exactly when every pair is jointly reversed an odd number
of times.  Moves are stored positionally as (start, length) with 1-based
starts; one replay per sequence derives the window contents and the
final permutation.  A permutation part way along, and so the track a
wire holds there, is the cached windows of the prefix written back
reversed, with no move replayed.  Every table of n entries starts from
one identity permutation, which first bounds the wire count: a sequence
may be built with any n, but no table is built for more than
``MAX_WIRES`` wires.  The replay reverses an adjacent swap, the most
common move of a realization's bridging and of an equivalence walk, by
two index assignments instead of a slice, and validation reads each
move's bounds and label in one loop.

A move that carries a point label is *designated*: it is the reversal at
a point of an incidence structure.  Labels travel with their moves under
elementary interchanges, which trade adjacent moves with disjoint
windows; :func:`are_swap_equivalent` decides exactly whether a chain of
them leads from one sequence to another.  A generalized wiring diagram
(:mod:`quasiline.wiring.diagram`) is a generalized allowable sequence
whose designated moves carry their labels: the same type, with one more
condition.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from math import comb
from typing import Hashable, Iterable, Optional

from .errors import (
    DuplicateId,
    IndexOutOfRange,
    NotDisjoint,
    ValidationError,
)
from .jsonshape import as_int, read

Label = Hashable

# Every n-sized table starts from the identity permutation, so the wire
# count is bounded there, before any table is built.
MAX_WIRES = 100_000


@dataclass(frozen=True)
class Move:
    """Reversal of ``length`` consecutive entries starting at 1-based
    ``start``; a designated move carries its ``point`` label."""

    start: int
    length: int
    point: Optional[Label] = None

    def __post_init__(self):
        if self.start < 1:
            raise ValidationError(f"move start {self.start} must be >= 1")
        if self.length < 2:
            raise ValidationError(
                f"move length {self.length} must be >= 2 (a 1-window reversal is a no-op)"
            )

    @property
    def stop(self) -> int:
        """Last 1-based position covered by the window."""
        return self.start + self.length - 1

    def disjoint_from(self, other: "Move") -> bool:
        return self.stop < other.start or other.stop < self.start


class SequenceClass(Enum):
    PARTIAL = "partial"
    ALLOWABLE = "allowable"
    GENERALIZED_ALLOWABLE = "generalized-allowable"


@dataclass(frozen=True)
class PermSequence:
    """A partial sequence of window reversals on {1..n}.

    The designated moves are those carrying a point label; labels are
    distinct.  Each fact has one accessor, indexed by 0-based move
    ("event") and read from one cached replay: ``event_count``,
    ``designated_events()``, ``window_wires_table``, ``wire_events(w)``
    and ``permutation_before(i)``.  Move indices are 1-based only where a
    format or a report prints them: :func:`make_sequence`'s
    ``designated``, the sequence JSON, :func:`elementary_swap` and
    ``Realization.point_of_move``.
    """

    n: int
    moves: tuple[Move, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        # one loop: every bound is checked before any label is compared
        end = self.n + 1
        labels = []
        for i, move in enumerate(self.moves, start=1):
            if move.start + move.length > end:
                raise ValidationError(
                    f"move {i} window [{move.start},{move.stop}] exceeds n={self.n}"
                )
            if move.point is not None:
                labels.append(move.point)
        if len(labels) != len(set(labels)):
            raise DuplicateId("designated point labels must be distinct")

    def _identity(self) -> list[int]:
        """The identity on {1..n}, the start of every n-sized table."""
        if self.n > MAX_WIRES:
            raise ValidationError(f"a sequence has at most {MAX_WIRES} wires, got {self.n}")
        return list(range(1, self.n + 1))

    @property
    def event_count(self) -> int:
        return len(self.moves)

    def designated_events(self) -> tuple[int, ...]:
        """0-based indices of the designated moves, in order."""
        return tuple(i for i, m in enumerate(self.moves) if m.point is not None)

    @cached_property
    def _replay(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """One pass over the moves: per move, the elements in its window
        read top to bottom just before the reversal, and the final
        permutation.  An adjacent swap, most moves of a realization or a
        walk, is two index assignments and no slice."""
        perm = self._identity()
        windows = []
        for move in self.moves:
            a = move.start - 1
            if move.length == 2:
                x, y = perm[a], perm[a + 1]
                windows.append((x, y))
                perm[a], perm[a + 1] = y, x
            else:
                b = a + move.length
                window = tuple(perm[a:b])
                windows.append(window)
                perm[a:b] = window[::-1]
        return tuple(windows), tuple(perm)

    def permutation_before(self, i: int) -> tuple[int, ...]:
        """The permutation before move i (0-based), the final one at i = m:
        the cached windows of the first i moves written back reversed, in
        O(Σ their lengths + n).  A wire's track is its index here."""
        if not 0 <= i <= len(self.moves):
            raise IndexOutOfRange(f"event {i} not in [0, {len(self.moves)}]")
        perm = self._identity()
        for move, window in zip(self.moves[:i], self._replay[0]):
            a = move.start - 1
            perm[a:a + len(window)] = window[::-1]
        return tuple(perm)

    @property
    def window_wires_table(self) -> tuple[tuple[int, ...], ...]:
        """Per move, the elements in its window read top to bottom just
        before the reversal."""
        return self._replay[0]

    @cached_property
    def _wire_event_table(self) -> dict[int, tuple[int, ...]]:
        table: dict[int, list[int]] = {w: [] for w in self._identity()}
        for i, wires in enumerate(self.window_wires_table):
            for w in wires:
                table[w].append(i)
        return {w: tuple(evs) for w, evs in table.items()}

    def wire_events(self, wire: int) -> tuple[int, ...]:
        """Indices of the moves reversing ``wire``, left to right."""
        if not 1 <= wire <= self.n:
            raise IndexOutOfRange(f"wire {wire} not in [1, {self.n}]")
        return self._wire_event_table[wire]


def make_sequence(
    n: int,
    moves: Iterable[tuple[int, int] | Move],
    designated: Iterable[int] = (),
) -> PermSequence:
    """Convenience constructor accepting (start, length) pairs.  The moves
    at the 1-based indices in ``designated`` are labelled p1, p2, ... in
    move order."""
    return PermSequence(*_fields(n, moves, designated))


def _fields(n: int, moves, designated: Iterable[int] = ()) -> tuple[int, tuple[Move, ...]]:
    """The fields of :func:`make_sequence`'s sequence, unchecked: any
    sequence type can be built from them, and checks them once."""
    ms = tuple(m if isinstance(m, Move) else Move(*m) for m in moves)
    marked = sorted(set(designated))
    bad = [i for i in marked if not 1 <= i <= len(ms)]
    if bad:
        raise ValidationError(f"designated indices out of range: {bad}")
    label = {i: f"p{k}" for k, i in enumerate(marked, start=1)}
    return n, tuple(replace(m, point=label[i]) if i in label else m for i, m in enumerate(ms, start=1))


def classify(seq: PermSequence) -> SequenceClass:
    """Classify as allowable, generalized allowable, or merely partial.

    Generalized allowable: every pair jointly reversed an odd number of
    times, which is equivalent to the final permutation being the reverse
    permutation.  Allowable: every pair jointly reversed exactly once,
    which for a generalized sequence means the moves reverse C(n, 2)
    pairs in all.
    """
    if seq._replay[1] != tuple(reversed(seq._identity())):
        return SequenceClass.PARTIAL
    if sum(comb(m.length, 2) for m in seq.moves) == comb(seq.n, 2):
        return SequenceClass.ALLOWABLE
    return SequenceClass.GENERALIZED_ALLOWABLE


def elementary_swap(seq: PermSequence, i: int) -> PermSequence:
    """Interchange moves ``i`` and ``i+1`` (1-based), which must have
    disjoint position windows.  Point labels follow their moves, and the
    result has the type of ``seq``: the swap keeps every pair of wires'
    crossing count, so a generalized wiring diagram stays one."""
    if not 1 <= i <= len(seq.moves) - 1:
        raise IndexOutOfRange(f"swap index {i} not in [1, {len(seq.moves) - 1}]")
    a, b = seq.moves[i - 1], seq.moves[i]
    if not a.disjoint_from(b):
        raise NotDisjoint(
            f"moves {i} and {i + 1} overlap positionally "
            f"([{a.start},{a.stop}] vs [{b.start},{b.stop}])"
        )
    moves = list(seq.moves)
    moves[i - 1], moves[i] = b, a
    return type(seq)(seq.n, tuple(moves))


def are_swap_equivalent(seq1: PermSequence, seq2: PermSequence) -> Optional[list[int]]:
    """A shortest chain of elementary swaps from seq1 to seq2, or None
    when there is none.

    A move is compared as its letter (start, length, designated?), and
    two moves may trade places exactly when their windows are disjoint,
    a property of the letters alone.  So equivalence is equality in a
    trace monoid (Cartier & Foata, 1969), decided by one greedy scan: for
    each position i of seq2, the first remaining move of seq1 with that
    letter must be disjoint from every move it passes on its way to i.
    Moves with equal letters never trade places, so no other occurrence
    can serve; each swap removes one inversion, so the chain is shortest.
    O(moves²) time.
    """
    if seq1.n != seq2.n or len(seq1.moves) != len(seq2.moves):
        return None

    def letter(m: Move):
        # designation flags, not labels, distinguish the moves
        return (m.start, m.length, m.point is not None)

    moves = list(seq1.moves)
    chain: list[int] = []
    for i, target in enumerate(seq2.moves):
        j = next((j for j in range(i, len(moves)) if letter(moves[j]) == letter(target)), None)
        if j is None or not all(moves[j].disjoint_from(m) for m in moves[i:j]):
            return None
        moves.insert(i, moves.pop(j))
        chain.extend(range(j, i, -1))
    return chain


def sequence_to_json_dict(seq: PermSequence) -> dict:
    return {
        "n": seq.n,
        "moves": [[m.start, m.length] for m in seq.moves],
        "designated": [i + 1 for i in seq.designated_events()],
    }


def sequence_from_json_dict(data: dict) -> PermSequence:
    return PermSequence(*sequence_json_fields(data))


def sequence_json_fields(data: dict) -> tuple[int, tuple[Move, ...]]:
    """The wire count and the labelled moves of a sequence JSON object,
    read but not yet checked as a sequence."""
    shape = {"n": as_int, "moves": [(as_int, as_int)], "designated?": [as_int]}
    return _fields(**read(data, shape))
