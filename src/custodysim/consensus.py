"""Three-phase proof-of-authority consensus state machine.

One proposer per (height, round); pre-prepare carries the full block,
prepare and commit carry only its digest. The digest is computed once per
block object (``blocks.block_digest``) and checked by every replica when
it accepts the pre-prepare; the replica keeps it as ``locked_digest``,
and votes are then matched against it by digest, with no rehashing. A
validator commits once it has seen 2f+1 commit votes, where
f = floor((n-1)/3). Liveness under a faulty proposer comes from a
timeout-driven round change; round r's timer is ``round_timeout * 2**r``,
so some round of a height outlasts any finite round trip.

The message sizes are constants: a pre-prepare costs
``PREPREPARE_OVERHEAD`` plus its block, a vote ``PREPARE_SIZE`` or
``COMMIT_SIZE`` bytes.

Functions read enum members from module constants (``PREPARE``, not
``MsgType.PREPARE``): on Python 3.11.7 each ``Enum.X`` read goes through
``EnumType.__getattr__``, about 200 ns against 17 ns for a global, and
a vote delivery made three such reads.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .blocks import Block, block_digest, block_gas, block_size


class NotProposer(Exception):
    pass


def max_faulty(n: int) -> int:
    if n < 1:
        raise ValueError("need at least one validator")
    return (n - 1) // 3


def quorum_size(n: int) -> int:
    """Votes needed to advance a phase: 2f+1 out of n = 3f+1."""
    return 2 * max_faulty(n) + 1


def select_proposer(height: int, round_: int, n: int) -> int:
    """Deterministic round-robin proposer election."""
    if n < 1:
        raise ValueError("need at least one validator")
    return (height + round_) % n


class MsgType(enum.Enum):
    PRE_PREPARE = "pre-prepare"
    PREPARE = "prepare"
    COMMIT = "commit"


PRE_PREPARE, PREPARE, COMMIT = \
    MsgType.PRE_PREPARE, MsgType.PREPARE, MsgType.COMMIT


@dataclass(frozen=True)
class ConsensusMessage:
    type: MsgType
    height: int
    round: int
    digest: bytes
    sender: int
    block: Optional[Block] = None


PREPREPARE_OVERHEAD = 256   # bytes of a pre-prepare besides its block
PREPARE_SIZE = 128
COMMIT_SIZE = 128


def wire_size(msg: ConsensusMessage) -> int:
    """Bytes a message occupies on a link."""
    if msg.type is PRE_PREPARE:
        return PREPREPARE_OVERHEAD + block_size(msg.block)
    if msg.type is PREPARE:
        return PREPARE_SIZE
    return COMMIT_SIZE


class Phase(enum.Enum):
    AWAITING = "awaiting-proposal"
    PRE_PREPARED = "pre-prepared"
    PREPARED = "prepared"


AWAITING, PRE_PREPARED, PREPARED = \
    Phase.AWAITING, Phase.PRE_PREPARED, Phase.PREPARED


class Validator:
    """One validator's consensus state.

    The environment supplies broadcasting, timers, block construction and
    a commit hook; the state machine itself is driven purely by
    start_height(), handle() and timer callbacks. A timer acts only in the
    height and round it was set in, so each ``set_timer`` call makes the
    earlier timers no-ops, and the environment may drop them unfired.
    """

    def __init__(self, index: int, n: int, gas_limit: int,
                 round_timeout: float,
                 broadcast: Callable[[ConsensusMessage], None],
                 set_timer: Callable[[float, Callable[[], None]], None],
                 build_block: Callable[[int, int, float], Block],
                 on_commit: Callable[[Block], None],
                 genesis: bytes):
        self.index = index
        self.n = n
        self.gas_limit = gas_limit
        self.round_timeout = round_timeout
        self.quorum = quorum_size(n)
        self._broadcast = broadcast
        self._set_timer = set_timer
        self._build_block = build_block
        self._on_commit = on_commit

        self.chain: list[Block] = []
        self.head_digest = genesis   # digest of chain[-1], genesis if empty
        self.height = 0
        self.round = 0
        self.phase = AWAITING
        self.active = False
        self.period_start = 0.0
        self.locked_block: Optional[Block] = None
        self.locked_digest: Optional[bytes] = None  # digest of locked_block
        self.locked = False  # True once this height reached Prepared
        self.prepare_votes: dict[bytes, set[int]] = {}
        self.commit_votes: dict[bytes, set[int]] = {}
        self._future: dict[tuple[int, int], list[ConsensusMessage]] = {}

    # -- driving --------------------------------------------------------

    def is_proposer(self) -> bool:
        return select_proposer(self.height, self.round, self.n) == self.index

    def start_height(self, period_start: float) -> None:
        """Begin consensus for the next height; called at a period boundary."""
        self.active = True
        self.period_start = period_start
        self.locked = False
        self._reset_round(0)
        self._arm_timer()
        if self.is_proposer():
            block = self._build_block(self.height, self.round, period_start)
            self.propose(block)
        self._replay_buffered()

    def propose(self, block: Block) -> None:
        if not self.is_proposer():
            raise NotProposer(
                f"validator {self.index} is not the proposer for "
                f"(height={self.height}, round={self.round})")
        msg = ConsensusMessage(PRE_PREPARE, self.height, self.round,
                               block_digest(block), self.index, block)
        self._broadcast(msg)

    # -- message handling ----------------------------------------------

    def handle(self, msg: ConsensusMessage) -> None:
        if msg.height != self.height or msg.round != self.round \
                or not self.active:
            if msg.height < self.height:
                return  # stale
            if msg.height > self.height or not self.active:
                self._buffer(msg)
                return
            if msg.round < self.round:
                return  # stale round
            if not self._try_fast_forward(msg):
                self._buffer(msg)
                return
        if msg.type is PRE_PREPARE:
            self._on_pre_prepare(msg)
        else:
            self._on_vote(msg)

    def _try_fast_forward(self, msg: ConsensusMessage) -> bool:
        """Catch up to a later round on a valid proposal for that round."""
        if msg.type is not PRE_PREPARE:
            return False
        if msg.sender != select_proposer(self.height, msg.round, self.n):
            return False
        if self.locked and msg.digest != self.locked_digest:
            return False
        self._enter_round(msg.round)
        return True

    def _enter_round(self, round_: int) -> None:
        self._reset_round(round_)
        self._arm_timer()
        self._replay_buffered()

    def _reset_round(self, round_: int) -> None:
        """Start ``round_`` awaiting its proposal, with no votes counted.
        The locked block carries over only once this height is locked."""
        self.round = round_
        self.phase = AWAITING
        self.prepare_votes = {}
        self.commit_votes = {}
        if not self.locked:
            self.locked_block = None
            self.locked_digest = None

    def _on_pre_prepare(self, msg: ConsensusMessage) -> None:
        if self.phase is not AWAITING:
            return
        if msg.sender != select_proposer(self.height, self.round, self.n):
            return  # wrong proposer
        block = msg.block
        if block is None:
            return
        if block.parent_digest != self.head_digest:
            return  # does not extend our chain
        if block_gas(block) > self.gas_limit:
            return  # violates the block gas limit
        if self.locked and msg.digest != self.locked_digest:
            return  # locked on a different block
        if msg.digest != block_digest(block):
            return  # digest does not match the block it came with
        self.locked_block = block
        self.locked_digest = msg.digest
        self.phase = PRE_PREPARED
        self._vote(PREPARE, msg.digest)
        self._check_quorums()

    def _on_vote(self, msg: ConsensusMessage) -> None:
        if msg.type is PREPARE:
            tally, phase = self.prepare_votes, PRE_PREPARED
        else:
            tally, phase = self.commit_votes, PREPARED
        votes = tally.get(msg.digest)
        if votes is None:
            votes = tally[msg.digest] = {msg.sender}
        else:
            votes.add(msg.sender)
        # After every _check_quorums call, a PRE_PREPARED replica lacks a
        # prepare quorum and a PREPARED one a commit quorum on
        # locked_digest. So a single vote can only advance the phase it is
        # counted for, and only when it is for locked_digest; any other
        # vote is just recorded.
        if self.phase is phase and msg.digest == self.locked_digest \
                and len(votes) >= self.quorum:
            self._check_quorums()

    def _check_quorums(self) -> None:
        if self.locked_block is None:
            return
        digest = self.locked_digest
        if self.phase is PRE_PREPARED \
                and len(self.prepare_votes.get(digest, ())) >= self.quorum:
            self.phase = PREPARED
            self.locked = True
            self._vote(COMMIT, digest)
        if self.phase is PREPARED \
                and len(self.commit_votes.get(digest, ())) >= self.quorum:
            self._commit()

    def _vote(self, type_: MsgType, digest: bytes) -> None:
        self._broadcast(ConsensusMessage(type_, self.height, self.round,
                                         digest, self.index))

    def _commit(self) -> None:
        block = self.locked_block
        self.chain.append(block)
        self.head_digest = self.locked_digest
        self.height += 1
        self.active = False
        self.locked = False
        self._reset_round(0)
        self._on_commit(block)

    # -- round change ---------------------------------------------------

    def _arm_timer(self) -> None:
        height, round_ = self.height, self.round
        self._set_timer(math.ldexp(self.round_timeout, round_),
                        lambda: self._on_round_timeout(height, round_))

    def _on_round_timeout(self, height: int, round_: int) -> None:
        if not self.active or self.height != height or self.round != round_:
            return  # stale timer
        self._enter_round(round_ + 1)
        if self.is_proposer():
            block = self.locked_block if self.locked else \
                self._build_block(self.height, self.round, self.period_start)
            self.propose(block)

    # -- buffering ------------------------------------------------------

    def _buffer(self, msg: ConsensusMessage) -> None:
        self._future.setdefault((msg.height, msg.round), []).append(msg)

    def _replay_buffered(self) -> None:
        key = (self.height, self.round)
        for msg in self._future.pop(key, []):
            self.handle(msg)
        # drop buffers for heights already behind us
        for key in [k for k in self._future if k[0] < self.height]:
            del self._future[key]
