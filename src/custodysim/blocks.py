"""Blocks, the mempool and the greedy FIFO block builder."""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

from .ledger import Transaction, TxKind

HEADER_SIZE = 1909    # bytes of every block header
GENESIS_SIZE = 4096   # bytes of the genesis block, counted in the chain size


class _cached:
    """A property computed on first read and kept in the instance
    ``__dict__``, where it then shadows this descriptor. It is
    ``functools.cached_property`` without the lock that it takes on every
    first read before Python 3.12, which costs more than summing a block."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


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

    @_cached
    def _digest(self) -> bytes:
        """SHA-256 over the block's canonical serialization.

        Each transaction contributes every field a replica's ledger reads:
        uid, gas, size, evidence id, issuer, kind, new owner and
        description. Variable or optional fields carry a length prefix or
        a presence byte, so blocks that differ in any of these fields
        never serialize to the same bytes. A description is UTF-8, with
        any lone surrogate passed through as its own three bytes.
        ``issue_time`` is left out: no ledger reads it. The bytes are
        joined and hashed in one call. The block and its transactions are
        frozen, so the result is kept in the instance ``__dict__``, like
        ``_gas`` and ``_size``; that is not a dataclass field, so
        equality, hashing and ``repr`` ignore it.
        """
        parts = [_U64.pack(self.height), self.parent_digest,
                 _HEAD.pack(self.proposer, self.timestamp, self.salt)]
        for tx in self.transactions:
            owner, desc = tx.new_owner, tx.description
            if desc is not None:
                data = desc.encode("utf-8", "surrogatepass")
                desc = b"\x01" + _U32.pack(len(data)) + data
            parts += (_TX.pack(tx.uid, tx.gas, tx.size), tx.evidence_id.value,
                      tx.issuer.value, _KIND[tx.kind],
                      b"\x00" if owner is None else b"\x01" + owner.value,
                      b"\x00" if desc is None else desc)
        return hashlib.sha256(b"".join(parts)).digest()

    @_cached
    def _gas(self) -> int:
        return sum(tx.gas for tx in self.transactions)

    @_cached
    def _size(self) -> int:
        return HEADER_SIZE + sum(tx.size for tx in self.transactions)


# fixed-width fields of the canonical serialization, big-endian
_U64, _U32 = struct.Struct(">Q"), struct.Struct(">I")
_HEAD = struct.Struct(">QdQ")   # proposer, timestamp, salt
_TX = struct.Struct(">QQQ")     # uid, gas, size
# a transaction kind's length-prefixed name
_KIND = {kind: bytes([len(kind.value)]) + kind.value.encode()
         for kind in TxKind}


def block_size(block: Block) -> int:
    """Header plus the serialized size of every included transaction;
    summed once per ``Block`` object."""
    return block._size


def block_gas(block: Block) -> int:
    """Gas of every included transaction; summed once per ``Block``."""
    return block._gas


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
