from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from custodysim.blocks import Block, block_digest, genesis_digest
from custodysim.consensus import (ConsensusMessage, MsgType, NotProposer,
                                  Phase, Validator, max_faulty, quorum_size,
                                  select_proposer)
from custodysim.ledger import (Address, EvidenceId, TxKind, create_tx,
                               transfer_tx)


class TestQuorum:
    @pytest.mark.parametrize("n,q", [(4, 3), (1, 1), (10, 7)])
    def test_known_values(self, n, q):
        assert quorum_size(n) == q

    def test_matches_3f_plus_1_relation(self):
        for f in range(10):
            n = 3 * f + 1
            assert max_faulty(n) == f
            assert quorum_size(n) == 2 * f + 1
        for n in range(1, 31):
            assert max_faulty(n) == (n - 1) // 3
            assert quorum_size(n) == 2 * ((n - 1) // 3) + 1


class TestProposerSelection:
    @pytest.mark.parametrize("height,round_,n,expected", [
        (0, 0, 4, 0),
        (5, 0, 4, 1),
        (5, 2, 4, 3),
    ])
    def test_round_robin(self, height, round_, n, expected):
        assert select_proposer(height, round_, n) == expected

    def test_rotates_over_heights(self):
        seen = {select_proposer(h, 0, 4) for h in range(4)}
        assert seen == {0, 1, 2, 3}


class StubEnv:
    """Records a validator's outbound traffic and timers."""

    def __init__(self):
        self.broadcasts = []
        self.timers = []
        self.commits = []

    def make(self, index, n=4, gas_limit=10 ** 9, timeout=2.0):
        genesis = genesis_digest()
        v = Validator(
            index=index, n=n, gas_limit=gas_limit, round_timeout=timeout,
            broadcast=self.broadcasts.append,
            set_timer=lambda d, cb: self.timers.append((d, cb)),
            build_block=lambda h, r, ts: Block(h, v.head_digest, index, ts),
            on_commit=self.commits.append,
            genesis=genesis)
        return v

    def fire_last_timer(self):
        _, cb = self.timers[-1]
        cb()


def _proposal(proposer_env, proposer_idx=0, ts=0.0):
    v = proposer_env.make(proposer_idx)
    v.start_height(ts)
    return v, proposer_env.broadcasts[-1]


def _prepare(sender, digest, height=0, round_=0):
    return ConsensusMessage(MsgType.PREPARE, height, round_, digest, sender)


def _commit_msg(sender, digest, height=0, round_=0):
    return ConsensusMessage(MsgType.COMMIT, height, round_, digest, sender)


class TestProposal:
    def test_proposer_broadcasts_pre_prepare_on_start(self):
        env = StubEnv()
        _, msg = _proposal(env)
        assert msg.type is MsgType.PRE_PREPARE
        assert msg.block is not None

    def test_non_proposer_cannot_propose(self):
        env = StubEnv()
        v = env.make(2)
        v.start_height(0.0)
        with pytest.raises(NotProposer):
            v.propose(Block(0, v.head_digest, 2, 0.0))


class TestPrePrepare:
    def test_valid_proposal_triggers_prepare(self):
        env, venv = StubEnv(), StubEnv()
        _, proposal = _proposal(env)
        v = venv.make(1)
        v.start_height(0.0)
        v.handle(proposal)
        assert v.phase is Phase.PRE_PREPARED
        assert venv.broadcasts[-1].type is MsgType.PREPARE

    def test_gas_overflow_dropped(self):
        env = StubEnv()
        v = env.make(1, gas_limit=100_000)
        v.start_height(0.0)
        tx = transfer_tx(1, Address.from_int(1), EvidenceId.from_int(1),
                         Address.from_int(2), 0.0)
        block = Block(0, v.head_digest, 0, 0.0, (tx, tx))  # 161004 gas
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0,
                                  block_digest(block), 0, block))
        assert v.phase is Phase.AWAITING

    def test_wrong_proposer_dropped(self):
        env = StubEnv()
        v = env.make(1)
        v.start_height(0.0)
        block = Block(0, v.head_digest, 3, 0.0)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0,
                                  block_digest(block), 3, block))
        assert v.phase is Phase.AWAITING

    def test_bad_parent_dropped(self):
        env = StubEnv()
        v = env.make(1)
        v.start_height(0.0)
        block = Block(0, b"\x00" * 32, 0, 0.0)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0,
                                  block_digest(block), 0, block))
        assert v.phase is Phase.AWAITING

    def test_digest_not_matching_block_dropped(self):
        env = StubEnv()
        v = env.make(1)
        v.start_height(0.0)
        block = Block(0, v.head_digest, 0, 0.0)
        other = Block(0, v.head_digest, 0, 0.0, salt=1)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0,
                                  block_digest(other), 0, block))
        assert v.phase is Phase.AWAITING
        assert v.locked_block is None
        assert not any(m.type is MsgType.PREPARE for m in env.broadcasts)

    @pytest.mark.parametrize("change", [
        dict(salt=1),
        dict(timestamp=1.0),
        dict(transactions=()),
        dict(transactions=(transfer_tx(1, Address.from_int(1),
                                       EvidenceId.from_int(1),
                                       Address.from_int(99), 0.0),)),
    ])
    def test_altered_copy_under_cached_digest_dropped(self, change):
        # the original's digest is computed, and kept on it, before an
        # altered copy is sent under that digest
        env = StubEnv()
        v = env.make(1)
        v.start_height(0.0)
        tx = transfer_tx(1, Address.from_int(1), EvidenceId.from_int(1),
                         Address.from_int(2), 0.0)
        block = Block(0, v.head_digest, 0, 0.0, (tx,))
        digest = block_digest(block)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0, digest, 0,
                                  replace(block, **change)))
        assert v.phase is Phase.AWAITING and v.locked_block is None
        assert not any(m.type is MsgType.PREPARE for m in env.broadcasts)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0, digest, 0, block))
        assert v.phase is Phase.PRE_PREPARED and v.locked_block is block


class TestVoting:
    def _pre_prepared(self):
        env = StubEnv()
        v = env.make(1)
        v.start_height(0.0)
        block = Block(0, v.head_digest, 0, 0.0)
        digest = block_digest(block)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0, digest, 0, block))
        return env, v, digest

    def test_quorum_of_prepares_triggers_commit_vote(self):
        env, v, digest = self._pre_prepared()
        v.handle(_prepare(0, digest))
        v.handle(_prepare(2, digest))
        assert v.phase is Phase.PRE_PREPARED  # own prepare not yet counted
        v.handle(_prepare(1, digest))         # self vote via delivery
        assert v.phase is Phase.PREPARED
        assert env.broadcasts[-1].type is MsgType.COMMIT

    def test_duplicate_prepare_not_double_counted(self):
        env, v, digest = self._pre_prepared()
        for _ in range(5):
            v.handle(_prepare(0, digest))
        assert v.phase is Phase.PRE_PREPARED

    def test_commit_quorum_appends_block(self):
        env, v, digest = self._pre_prepared()
        for s in (0, 1, 2):
            v.handle(_prepare(s, digest))
        for s in (0, 1, 2):
            v.handle(_commit_msg(s, digest))
        assert len(env.commits) == 1
        assert v.height == 1
        assert v.round == 0
        assert v.head_digest == digest

    def test_stale_commit_for_done_height_ignored(self):
        env, v, digest = self._pre_prepared()
        for s in (0, 1, 2):
            v.handle(_prepare(s, digest))
            v.handle(_commit_msg(s, digest))
        v.handle(_commit_msg(3, digest))  # height 0 already committed
        assert len(env.commits) == 1

    def test_votes_arriving_before_pre_prepare_still_count(self):
        env = StubEnv()
        v = env.make(1)
        v.start_height(0.0)
        block = Block(0, v.head_digest, 0, 0.0)
        digest = block_digest(block)
        for s in (0, 2, 3):
            v.handle(_prepare(s, digest))
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0, digest, 0, block))
        assert v.phase is Phase.PREPARED


class TestRoundChange:
    def test_timeout_advances_round(self):
        env = StubEnv()
        v = env.make(2)
        v.start_height(0.0)
        env.fire_last_timer()
        assert v.round == 1
        assert v.phase is Phase.AWAITING

    def test_timer_doubles_with_each_round_of_a_height(self):
        env = StubEnv()
        v = env.make(2, timeout=1.5)
        v.start_height(0.0)
        for _ in range(3):
            env.fire_last_timer()
        # a round entered on its proposal waits as long as one timed into
        block = Block(0, v.head_digest, 1, 0.0)
        digest = block_digest(block)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 5, digest, 1, block))
        assert [d for d, _ in env.timers] == [1.5, 3.0, 6.0, 12.0, 48.0]
        for s in (0, 1, 3):
            v.handle(_prepare(s, digest, round_=5))
            v.handle(_commit_msg(s, digest, round_=5))
        assert v.height == 1
        v.start_height(1.0)
        assert env.timers[-1][0] == 1.5

    def test_next_round_proposer_reproposes(self):
        env = StubEnv()
        v = env.make(1)  # proposer for (height 0, round 1)
        v.start_height(0.0)
        assert not env.broadcasts
        env.fire_last_timer()
        assert env.broadcasts[-1].type is MsgType.PRE_PREPARE
        assert env.broadcasts[-1].round == 1

    def test_stale_timer_ignored_after_commit(self):
        env = StubEnv()
        v = env.make(1)
        v.start_height(0.0)
        first_timer = env.timers[-1]
        block = Block(0, v.head_digest, 0, 0.0)
        digest = block_digest(block)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0, digest, 0, block))
        for s in (0, 1, 2):
            v.handle(_prepare(s, digest))
            v.handle(_commit_msg(s, digest))
        assert v.height == 1
        first_timer[1]()  # late timer fire must not bump the round
        assert v.round == 0

    def test_lock_retained_after_prepared(self):
        env = StubEnv()
        v = env.make(3)
        v.start_height(0.0)
        block = Block(0, v.head_digest, 0, 0.0)
        digest = block_digest(block)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0, digest, 0, block))
        for s in (0, 1, 2):
            v.handle(_prepare(s, digest))
        assert v.phase is Phase.PREPARED
        env.fire_last_timer()
        assert v.round == 1
        assert v.locked and v.locked_block is block

    @pytest.mark.parametrize("change", [
        dict(new_owner=Address.from_int(99)),
        dict(kind=TxKind.REMOVE),
        dict(description="abd"),
    ])
    def test_locked_validator_refuses_block_differing_in_one_field(
            self, change):
        env = StubEnv()
        v = env.make(3)
        v.start_height(0.0)
        tx = create_tx(1, Address.from_int(1), EvidenceId.from_int(1),
                       "abc", 0.0) if "description" in change else \
            transfer_tx(1, Address.from_int(1), EvidenceId.from_int(1),
                        Address.from_int(2), 0.0)
        block = Block(0, v.head_digest, 0, 0.0, (tx,))
        digest = block_digest(block)
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 0, digest, 0, block))
        for s in (0, 1, 2):
            v.handle(_prepare(s, digest))
        assert v.locked
        env.fire_last_timer()
        # round 1's proposer re-proposes the locked block with one field
        # of its transaction changed
        other = replace(block, transactions=(replace(tx, **change),))
        v.handle(ConsensusMessage(MsgType.PRE_PREPARE, 0, 1,
                                  block_digest(other), 1, other))
        assert v.phase is Phase.AWAITING
        assert v.locked_block is block
        assert env.broadcasts[-1].type is MsgType.COMMIT


class RecountEveryVote(Validator):
    """The vote handler without its guard: every vote runs the full
    quorum recount."""

    def _on_vote(self, msg):
        tally = self.prepare_votes if msg.type is MsgType.PREPARE \
            else self.commit_votes
        tally.setdefault(msg.digest, set()).add(msg.sender)
        self._check_quorums()


_N = 4


def _candidate(height, parent, k):
    """Block k of the two (k = 0, 1) that the random steps vote over."""
    return Block(height, parent, select_proposer(height, 0, _N), 0.0, salt=k)


def _chained(v, height, k):
    """Candidate k at ``height``, on top of candidate k for each height
    between the validator's head and it."""
    parent = v.head_digest
    for h in range(v.height, height):
        parent = block_digest(_candidate(h, parent, k))
    return _candidate(height, parent, k)


def _driven(cls, index):
    env = StubEnv()
    v = cls(index=index, n=_N, gas_limit=10 ** 9, round_timeout=1.0,
            broadcast=env.broadcasts.append,
            set_timer=lambda d, cb: env.timers.append((d, cb)),
            build_block=lambda h, r, ts: _candidate(h, v.head_digest, 0),
            on_commit=env.commits.append, genesis=genesis_digest())
    v.start_height(0.0)
    return env, v


def _observed(env, v):
    return (env.broadcasts, env.commits, len(env.timers), v.phase,
            v.locked_block, v.locked_digest, v.locked, v.height, v.round,
            v.active)


# A step is five bytes, read through these tables: the step's kind, a bit
# mask of senders (one message from each, so that quorums form often; for a
# timer step it picks the timer), a round offset, a candidate and a height
# offset. The offsets are from the validator's round and height when the
# step runs, so most steps count. One byte string per example keeps
# hypothesis's drawing cost low.
_KINDS = (MsgType.PRE_PREPARE, MsgType.PREPARE, MsgType.PREPARE,
          MsgType.COMMIT, MsgType.COMMIT) * 2 + ("timer", "start")
_ROUND_OFFSETS = (0, 0, 0, 0, 1, 2, -1)
_HEIGHT_OFFSETS = (0, 0, 0, 0, 0, 1, -1)


def _pick(table, byte):
    return table[byte % len(table)]


@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, _N - 1),
       steps=st.binary(min_size=5 * 30, max_size=5 * 80))
def test_vote_guards_match_full_recount(index, steps):
    """Random pre-prepares, votes over two digests, timer fires and height
    starts: the guarded vote handlers broadcast, commit and move phase,
    lock, height and round exactly as a recount after every vote does."""
    env, v = _driven(Validator, index)
    ref_env, ref = _driven(RecountEveryVote, index)
    for at in range(0, len(steps) - 4, 5):
        kind, mask, round_offset, k, height_offset = steps[at:at + 5]
        kind = _pick(_KINDS, kind)
        mask = mask % (2 ** _N - 1) + 1
        if kind == "timer":
            i = mask % len(env.timers)
            env.timers[i][1]()
            ref_env.timers[i][1]()
        elif kind == "start":
            if not v.active:
                v.start_height(0.0)
                ref.start_height(0.0)
        else:
            height = v.height + _pick(_HEIGHT_OFFSETS, height_offset)
            block = _chained(v, max(height, 0), k % 2)
            round_ = max(v.round + _pick(_ROUND_OFFSETS, round_offset), 0)
            for sender in range(_N):
                if mask >> sender & 1:
                    msg = ConsensusMessage(
                        kind, block.height, round_, block_digest(block),
                        sender, block if kind is MsgType.PRE_PREPARE else None)
                    v.handle(msg)
                    ref.handle(msg)
                    assert _observed(env, v) == _observed(ref_env, ref)
        assert _observed(env, v) == _observed(ref_env, ref)
