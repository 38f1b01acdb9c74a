"""Blocks, the mempool and the greedy FIFO block builder."""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .ledger import Transaction

HEADER_SIZE = 1909    # bytes of every block header
GENESIS_SIZE = 4096   # bytes of the genesis block, counted in the chain size


@dataclass(frozen=True)
class Block:
    height: int
    parent_digest: bytes
    proposer: int
    timestamp: float
    transactions: tuple = ()
    # Extra byte folded into the digest; lets tests (and the equivocating
    # fault model) mint two distinct blocks from the same contents.
    salt: int = 0

    @cached_property
    def _digest(self) -> bytes:
        """SHA-256 over the block's canonical serialization.

        Each transaction contributes every field a replica's ledger reads:
        uid, gas, size, evidence id, issuer, kind, new owner and
        description. Variable or optional fields carry a length prefix or
        a presence byte, so blocks that differ in any of these fields
        never serialize to the same bytes. ``issue_time`` is left out: no
        ledger reads it. The block and its transactions are frozen, so
        the result is kept in the instance ``__dict__``; that is not a
        dataclass field, so equality, hashing and ``repr`` ignore it.
        """
        h = hashlib.sha256()
        h.update(struct.pack(">Q", self.height))
        h.update(self.parent_digest)
        h.update(struct.pack(">Qd", self.proposer, self.timestamp))
        h.update(struct.pack(">Q", self.salt))
        for tx in self.transactions:
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
                text = tx.description.encode("utf-8")
                h.update(b"\x01" + struct.pack(">I", len(text)) + text)
        return h.digest()


def block_size(block: Block) -> int:
    """Header plus the serialized size of every included transaction."""
    return HEADER_SIZE + sum(tx.size for tx in block.transactions)


def block_gas(block: Block) -> int:
    return sum(tx.gas for tx in block.transactions)


def block_digest(block: Block) -> bytes:
    """256-bit digest over the canonical serialization of the block.

    Hashed once per ``Block`` object, on first use, so the proposer and
    every replica that checks the block share one hash. A block with
    other content, such as a ``dataclasses.replace`` copy, is a new
    object with its own digest.
    """
    return block._digest


def genesis_digest() -> bytes:
    return hashlib.sha256(b"genesis").digest()


class Mempool:
    """FIFO queue of pending transactions.

    An insertion-ordered ``dict`` from uid to transaction: submit and
    removal cost O(1) per transaction, and iteration yields the queue in
    arrival order without copying it. Transactions leave the pool only
    when seen in a committed block; building a block does not consume
    them.
    """

    def __init__(self):
        self._pending: dict[int, Transaction] = {}

    def submit(self, tx: Transaction) -> None:
        self._pending.setdefault(tx.uid, tx)

    def remove_committed(self, uids: Iterable[int]) -> None:
        for uid in uids:
            self._pending.pop(uid, None)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._pending.values())

    def __len__(self):
        return len(self._pending)


def build_block(mempool: Mempool, gas_limit: int, height: int,
                parent_digest: bytes, proposer: int,
                period_start: float) -> Block:
    """Fill a block from the mempool in strict FIFO order.

    Filling stops at the first transaction that does not fit under the
    gas limit: no reordering, no gap-filling. A head transaction whose
    gas alone exceeds the limit blocks the queue for good.
    """
    chosen = []
    gas = 0
    for tx in mempool:
        if gas + tx.gas > gas_limit:
            break
        chosen.append(tx)
        gas += tx.gas
    return Block(height=height, parent_digest=parent_digest, proposer=proposer,
                 timestamp=period_start, transactions=tuple(chosen))
