"""Content-addressed evidence storage and the user-facing workflow.

Blobs live as id-named files next to a tab-separated index. Ids are the
hash of blob plus nonce, so every acquisition can re-verify that the
bytes on disk still match what was registered on the ledger.

The index is an append-only journal, one line per operation:
``<hex id>\t<nonce>\t<size>`` records a put and ``-\t<hex id>`` a
delete. Opening the store replays it in file order. A last line without
its trailing newline is a torn append and is dropped. If the replay met
a delete or a torn line, the live entries are written to a temporary
file that is renamed over the index; that compaction on open is the only
time the whole index is written.
"""
from __future__ import annotations

import hashlib
import os
import random
from pathlib import Path
from typing import Callable, Optional, Protocol

from .ledger import (_REASON_BY_ERROR, Address, EvidenceEntry, EvidenceId,
                     EvidenceNotFound, LedgerError, LedgerState, NotOwner,
                     Receipt, Transaction, create_tx, remove_tx, transfer_tx)


class StoreError(Exception):
    pass


class EmptyEvidence(StoreError):
    pass


class IntegrityViolation(StoreError):
    pass


class IdCollision(StoreError):
    pass


def generate_id(blob: bytes, nonce: int,
                hash_func: Callable[[bytes], bytes] = None) -> EvidenceId:
    """Evidence id: 256-bit hash of the blob with the nonce appended.

    The nonce is encoded as 8 big-endian bytes; it exists to make ids
    unique even for byte-identical evidence.
    """
    if not blob:
        raise EmptyEvidence("evidence blob is empty")
    digest = (hash_func or _sha256)(blob + nonce.to_bytes(8, "big"))
    return EvidenceId(digest)


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


class EvidenceStore:
    """Flat-file store: <root>/<hex id>.bin plus <root>/index.tsv.

    ``put`` and ``delete`` each append one line to the index journal (see
    the module docstring) and rewrite nothing. The index line is what
    commits an operation: ``put`` writes the blob before its line and
    ``delete`` removes the blob after its line, so a crash between the
    two leaves at worst a blob file the index does not name, never an
    index entry without its blob. Opening a store compacts the journal
    when it holds a delete or a torn last line.
    """

    INDEX = "index.tsv"

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._index: dict[EvidenceId, tuple[int, int]] = {}  # id -> (nonce, size)
        self._load_index()

    def _index_path(self) -> Path:
        return self.root / self.INDEX

    def _load_index(self) -> None:
        path = self._index_path()
        if not path.exists():
            return
        lines = path.read_bytes().split(b"\n")
        # empty when the file ends with a newline, else a torn append
        compact = lines.pop() != b""
        for number, line in enumerate(lines, 1):
            try:
                fields = line.decode("ascii").split("\t")
                if len(fields) == 2 and fields[0] == "-":
                    del self._index[EvidenceId.from_hex(fields[1])]
                    compact = True
                elif len(fields) == 3:
                    self._index[EvidenceId.from_hex(fields[0])] = (
                        int(fields[1]), int(fields[2]))
                else:
                    raise ValueError("expected 3 fields, or 2 after '-'")
            except (ValueError, KeyError) as err:  # UnicodeDecodeError too
                raise StoreError(
                    f"{path}: line {number} is malformed: {line!r}") from err
        if compact:
            self._compact()

    def _compact(self) -> None:
        """Atomically replace the journal with one put line per live entry."""
        tmp = self.root / (self.INDEX + ".tmp")
        tmp.write_text("".join(f"{eid.hex}\t{nonce}\t{size}\n"
                               for eid, (nonce, size) in self._index.items()))
        os.replace(tmp, self._index_path())

    def _append(self, line: str) -> None:
        with open(self._index_path(), "a") as index:
            index.write(line + "\n")

    def put(self, evidence_id: EvidenceId, nonce: int, blob: bytes) -> None:
        if evidence_id in self._index:
            raise IdCollision(evidence_id.hex)
        (self.root / f"{evidence_id.hex}.bin").write_bytes(blob)
        self._append(f"{evidence_id.hex}\t{nonce}\t{len(blob)}")
        self._index[evidence_id] = (nonce, len(blob))

    def get(self, evidence_id: EvidenceId) -> tuple[bytes, int]:
        """Return (blob, nonce) for a stored id."""
        if evidence_id not in self._index:
            raise EvidenceNotFound(evidence_id.hex)
        nonce, _ = self._index[evidence_id]
        blob = (self.root / f"{evidence_id.hex}.bin").read_bytes()
        return blob, nonce

    def delete(self, evidence_id: EvidenceId) -> None:
        if evidence_id not in self._index:
            raise EvidenceNotFound(evidence_id.hex)
        self._append(f"-\t{evidence_id.hex}")
        del self._index[evidence_id]
        (self.root / f"{evidence_id.hex}.bin").unlink(missing_ok=True)

    def __contains__(self, evidence_id: EvidenceId) -> bool:
        return evidence_id in self._index

    def ids(self):
        return sorted(self._index)


class LedgerClient(Protocol):
    """Gateway to the custody ledger; submit blocks until commitment."""

    def submit(self, tx: Transaction) -> Receipt: ...

    def get_entry(self, evidence_id: EvidenceId) -> EvidenceEntry: ...

    def evidence_ids(self) -> list[EvidenceId]: ...

    def next_uid(self) -> int: ...

    def now(self) -> float: ...


class LocalLedgerClient:
    """Synchronous single-node client: every submit commits immediately."""

    def __init__(self, state: Optional[LedgerState] = None, start_time: float = 0.0):
        self.state = state if state is not None else LedgerState()
        self._time = start_time
        self._uid = 0

    def submit(self, tx: Transaction) -> Receipt:
        self._time += 1.0
        return self.state.apply(tx, self._time)

    def get_entry(self, evidence_id: EvidenceId) -> EvidenceEntry:
        return self.state.get_evidence(evidence_id)

    def evidence_ids(self) -> list[EvidenceId]:
        return list(self.state.evidences)

    def next_uid(self) -> int:
        self._uid += 1
        return self._uid

    def now(self) -> float:
        return self._time


_ERROR_BY_REASON = {reason: error for error, reason in _REASON_BY_ERROR.items()}


def _revert_error(receipt: Receipt) -> LedgerError:
    """The typed ledger error for a reverted transaction's receipt."""
    return _ERROR_BY_REASON[receipt.reason](receipt.reason.value)


class Frontend:
    """User workflow over the store and the ledger.

    Creation registers blob and ledger entry together; acquisition is
    owner-gated and integrity-checked; discarding is creator-gated and
    deletes the blob only after the ledger removal has committed.
    """

    MAX_NONCE_RETRIES = 8

    def __init__(self, store: EvidenceStore, client: LedgerClient,
                 seed: int = 0, hash_func: Callable[[bytes], bytes] = None):
        self.store = store
        self.client = client
        self.rng = random.Random(seed)
        self.hash_func = hash_func or _sha256

    def submit_evidence(self, creator: Address, blob: bytes,
                        description: str) -> EvidenceId:
        if not blob:
            raise EmptyEvidence("evidence blob is empty")
        for _ in range(self.MAX_NONCE_RETRIES):
            nonce = self.rng.getrandbits(64)
            evidence_id = generate_id(blob, nonce, self.hash_func)
            if evidence_id not in self.store:
                break
        else:
            raise IdCollision("could not find a collision-free nonce")
        tx = create_tx(self.client.next_uid(), creator, evidence_id,
                       description, self.client.now())
        self.store.put(evidence_id, nonce, blob)
        receipt = self.client.submit(tx)
        if not receipt.succeeded:
            self.store.delete(evidence_id)
            raise _revert_error(receipt)
        return evidence_id

    def acquire_evidence(self, requester: Address,
                         evidence_id: EvidenceId) -> bytes:
        entry = self.client.get_entry(evidence_id)  # raises EvidenceNotFound
        if requester != entry.owner:
            raise NotOwner(f"{requester.hex} is not the current owner")
        blob, nonce = self.store.get(evidence_id)
        if generate_id(blob, nonce, self.hash_func) != evidence_id:
            raise IntegrityViolation(
                f"stored bytes for {evidence_id.hex} no longer match their id")
        return blob

    def transfer_evidence(self, owner: Address, evidence_id: EvidenceId,
                          new_owner: Address) -> None:
        tx = transfer_tx(self.client.next_uid(), owner, evidence_id,
                         new_owner, self.client.now())
        receipt = self.client.submit(tx)
        if not receipt.succeeded:
            raise _revert_error(receipt)

    def discard_evidence(self, requester: Address,
                         evidence_id: EvidenceId) -> None:
        tx = remove_tx(self.client.next_uid(), requester, evidence_id,
                       self.client.now())
        receipt = self.client.submit(tx)
        if not receipt.succeeded:
            raise _revert_error(receipt)
        # only after the removal committed may the blob go
        if evidence_id in self.store:
            self.store.delete(evidence_id)

    def check_referential_integrity(self) -> bool:
        """Every stored id has a ledger entry and vice versa."""
        return set(self.store.ids()) == set(self.client.evidence_ids())
