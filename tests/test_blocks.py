import hashlib
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from custodysim.blocks import (HEADER_SIZE, Block, Mempool, block_digest,
                               block_gas, block_size, build_block,
                               genesis_digest)
from custodysim.ledger import (Address, EvidenceId, Transaction, TxKind,
                               create_tx, remove_tx, transfer_tx)


def _transfer(uid):
    return transfer_tx(uid, Address.from_int(uid), EvidenceId.from_int(uid),
                       Address.from_int(uid + 1), float(uid))


@pytest.fixture
def mempool():
    return Mempool()


class TestMempool:
    def test_fifo_order(self, mempool):
        txs = [_transfer(i) for i in range(1, 11)]
        for tx in txs:
            mempool.submit(tx)
        assert [t.uid for t in mempool] == list(range(1, 11))

    def test_duplicate_submit_ignored(self, mempool):
        tx = _transfer(1)
        mempool.submit(tx)
        mempool.submit(tx)
        assert len(mempool) == 1

    def test_removal_only_for_committed(self, mempool):
        for i in range(1, 4):
            mempool.submit(_transfer(i))
        mempool.remove_committed([2])
        assert [t.uid for t in mempool] == [1, 3]


_UIDS = st.integers(1, 12)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("submit"), _UIDS, st.integers(0, 300_000)),
    st.tuples(st.just("remove"), st.lists(_UIDS, max_size=5))),
    max_size=40)


@given(ops=_OPS, gas_limit=st.integers(0, 600_000))
def test_mempool_matches_list_model(ops, gas_limit):
    """Mempool against a plain FIFO list: submits (duplicates keep the
    first copy) and removals of known, unknown and partly known uids."""
    pool, model = Mempool(), []
    for op in ops:
        if op[0] == "submit":
            tx = replace(_transfer(op[1]), gas=op[2])
            pool.submit(tx)
            if all(t.uid != tx.uid for t in model):
                model.append(tx)
        else:
            pool.remove_committed(iter(op[1]))
            model = [t for t in model if t.uid not in op[1]]
        assert tuple(pool) == tuple(model)
        assert len(pool) == len(model)
        chosen, gas = [], 0
        for t in model:
            if gas + t.gas > gas_limit:
                break
            chosen.append(t)
            gas += t.gas
        block = build_block(pool, gas_limit, 0, genesis_digest(), 0, 0.0)
        assert block.transactions == tuple(chosen)


class TestBuildBlock:
    def test_gas_limit_cuts_fifo(self, mempool):
        for i in range(1, 4):
            mempool.submit(_transfer(i))
        # 2 * 80502 = 161004 <= 170207 < 3 * 80502
        block = build_block(mempool, 170207, 0, genesis_digest(), 0, 0.0)
        assert [t.uid for t in block.transactions] == [1, 2]
        assert block_gas(block) <= 170207
        assert len(mempool) == 3  # building does not consume

    def test_empty_mempool_gives_header_only_block(self, mempool):
        block = build_block(mempool, 10 ** 6, 0, genesis_digest(), 0, 0.0)
        assert block.transactions == ()
        assert block_size(block) == 1909

    def test_oversized_head_blocks_queue(self, mempool):
        big = create_tx(1, Address.from_int(1), EvidenceId.from_int(1),
                        "x" * 1024, 0.0)
        assert big.gas == 897367
        mempool.submit(big)
        mempool.submit(_transfer(2))
        block = build_block(mempool, 170207, 0, genesis_digest(), 0, 0.0)
        assert block.transactions == ()  # strict FIFO: no gap filling

    def test_timestamp_is_period_start(self, mempool):
        block = build_block(mempool, 0, 5, genesis_digest(), 2, 1500.0)
        assert block.timestamp == 1500.0


class TestBlockSize:
    def test_two_transfers(self):
        block = Block(0, genesis_digest(), 0, 0.0,
                      (_transfer(1), _transfer(2)))
        assert block_size(block) == 1909 + 348 == 2257

    def test_one_full_create(self):
        tx = create_tx(1, Address.from_int(1), EvidenceId.from_int(1),
                       "x" * 1024, 0.0)
        assert block_size(Block(0, genesis_digest(), 0, 0.0, (tx,))) == 3142


class TestDigest:
    def test_deterministic(self):
        a = Block(1, genesis_digest(), 0, 5.0, (_transfer(1),))
        b = Block(1, genesis_digest(), 0, 5.0, (_transfer(1),))
        assert block_digest(a) == block_digest(b)

    def test_salt_changes_digest(self):
        a = Block(1, genesis_digest(), 0, 5.0)
        b = Block(1, genesis_digest(), 0, 5.0, salt=1)
        assert block_digest(a) != block_digest(b)

    def test_contents_change_digest(self):
        a = Block(1, genesis_digest(), 0, 5.0)
        b = Block(1, genesis_digest(), 0, 5.0, (_transfer(1),))
        c = Block(2, genesis_digest(), 0, 5.0)
        assert len({block_digest(x) for x in (a, b, c)}) == 3

    @pytest.mark.parametrize("field,other", [
        ("new_owner", Address.from_int(99)),
        ("kind", TxKind.REMOVE),
        ("description", "abd"),
    ])
    def test_every_ledger_field_changes_digest(self, field, other):
        tx = create_tx(1, Address.from_int(1), EvidenceId.from_int(1),
                       "abc", 0.0) if field == "description" else _transfer(1)
        alt = replace(tx, **{field: other})
        assert (alt.gas, alt.size) == (tx.gas, tx.size)
        a = Block(1, genesis_digest(), 0, 5.0, (tx,))
        b = Block(1, genesis_digest(), 0, 5.0, (alt,))
        assert block_digest(a) != block_digest(b)

    @pytest.mark.parametrize("digested", [(), (0,), (1,), (0, 1)])
    def test_cached_digest_invisible_to_eq_hash_repr(self, digested):
        a = Block(1, genesis_digest(), 0, 5.0, (_transfer(1),))
        b = Block(1, genesis_digest(), 0, 5.0, (_transfer(1),))
        for i in digested:
            block_digest((a, b)[i])
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert block_digest(a) == block_digest(b)

    def test_replaced_copy_gets_its_own_digest(self):
        a = Block(1, genesis_digest(), 0, 5.0, (_transfer(1),))
        digest = block_digest(a)
        b = replace(a, salt=1)
        assert block_digest(b) != digest
        assert block_digest(b) == block_digest(
            Block(1, genesis_digest(), 0, 5.0, (_transfer(1),), salt=1))
        assert block_digest(a) == digest


def _streamed_digest(block: Block) -> bytes:
    """The canonical serialization fed to SHA-256 one field at a time: an
    oracle for ``block_digest``, which hashes it from one buffer."""
    h = hashlib.sha256()
    h.update(struct.pack(">Q", block.height))
    h.update(block.parent_digest)
    h.update(struct.pack(">Qd", block.proposer, block.timestamp))
    h.update(struct.pack(">Q", block.salt))
    for tx in block.transactions:
        h.update(struct.pack(">QQQ", tx.uid, tx.gas, tx.size))
        h.update(tx.evidence_id.value)
        h.update(tx.issuer.value)
        kind = tx.kind.value.encode()
        h.update(struct.pack(">B", len(kind)) + kind)
        h.update(b"\x00" if tx.new_owner is None
                 else b"\x01" + tx.new_owner.value)
        if tx.description is None:
            h.update(b"\x00")
        else:
            text = tx.description.encode("utf-8", "surrogatepass")
            h.update(b"\x01" + struct.pack(">I", len(text)) + text)
    return h.digest()


_U64 = st.integers(0, 2**64 - 1)
_DESCRIPTIONS = st.one_of(
    st.none(), st.just(""), st.text(max_size=40),
    st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=40),
    st.characters().map(lambda c: c * 1024))
_TXS = st.builds(
    Transaction, uid=_U64, kind=st.sampled_from(TxKind),
    issuer=st.binary(min_size=20, max_size=20).map(Address),
    evidence_id=st.binary(min_size=32, max_size=32).map(EvidenceId),
    issue_time=st.floats(allow_nan=False), gas=_U64, size=_U64,
    description=_DESCRIPTIONS,
    new_owner=st.none() | st.binary(min_size=20, max_size=20).map(Address))
_BLOCKS = st.builds(
    Block, height=_U64, parent_digest=st.binary(min_size=32, max_size=32),
    proposer=st.integers(0, 64), timestamp=st.floats(allow_nan=False),
    transactions=st.lists(_TXS, max_size=30).map(tuple),
    salt=st.one_of(st.just(0), _U64))


def _pinned_block() -> Block:
    txs = (create_tx(1, Address.from_int(1), EvidenceId.from_int(11),
                     "Bildbeweis: Tür 3 — ✓", 0.5),
           transfer_tx(2, Address.from_int(1), EvidenceId.from_int(11),
                       Address.from_int(2), 1.0),
           create_tx(3, Address.from_int(2), EvidenceId.from_int(12), "", 1.5),
           remove_tx(4, Address.from_int(2), EvidenceId.from_int(11), 2.0))
    return Block(7, genesis_digest(), 3, 12.5, txs, salt=2)


class TestDigestOracle:
    @settings(max_examples=200, deadline=None)
    @given(block=_BLOCKS)
    def test_matches_streamed_serialization(self, block):
        assert block_digest(block) == _streamed_digest(block)

    def test_pinned_digests(self):
        """Hex digests recorded before the digest was built from one
        buffer; they move only if the canonical serialization does."""
        assert block_digest(_pinned_block()).hex() == (
            "922c34ddb5601146536f6bb609d8fc2b7e27b6fa00c6f286c0eec27bfcfd30f4")
        assert block_digest(Block(0, genesis_digest(), 0, 0.0)).hex() == (
            "efb753d54361e3d0aa58bee10d27d559ec0309ff74dfb452cb65ca9c3bf08690")

    def test_description_with_a_lone_surrogate_has_a_digest(self):
        # an undecodable argument reaches Python as lone surrogates; a
        # surrogate pair stays apart from the character it would spell
        def block(description):
            tx = create_tx(1, Address.from_int(1), EvidenceId.from_int(11),
                           description, 0.5)
            return Block(1, genesis_digest(), 0, 1.0, (tx,))
        digests = {block_digest(block(d)) for d in
                   ("\ud800", "\udcff", "\ud83d\ude00", "\U0001f600", "")}
        assert len(digests) == 5


class TestCachedGasAndSize:
    @given(block=_BLOCKS)
    def test_equal_the_sums(self, block):
        assert block_gas(block) == sum(tx.gas for tx in block.transactions)
        assert block_size(block) == HEADER_SIZE + sum(
            tx.size for tx in block.transactions)

    def test_replaced_copy_gets_its_own_values(self):
        a = _pinned_block()
        gas, size = block_gas(a), block_size(a)
        b = replace(a, transactions=a.transactions[1:2])
        assert (block_gas(b), block_size(b)) == (
            a.transactions[1].gas, HEADER_SIZE + a.transactions[1].size)
        assert (block_gas(a), block_size(a)) == (gas, size)
        assert block_gas(replace(b, transactions=())) == 0

    def test_cached_values_invisible_to_eq_hash_repr(self):
        a, b = _pinned_block(), _pinned_block()
        before = (hash(a), repr(a))
        block_gas(a), block_size(a), block_digest(a)
        assert set(vars(a)) - set(vars(b)) == {"_gas", "_size", "_digest"}
        assert a == b and (hash(a), repr(a)) == before == (hash(b), repr(b))
