"""Content-addressed evidence storage and the user-facing workflow.

Blobs live as id-named files next to a tab-separated index. Ids are the
hash of blob plus nonce, so every acquisition can re-verify that the
bytes on disk still match what was registered on the ledger.

The index and the ledger are append-only journals, one line per
operation, and both are read by ``_replay``. In ``index.tsv``,
``<hex id>\t<nonce>\t<size>`` records a put and ``-\t<hex id>`` a
delete; after a delete, opening the store compacts the index through a
temporary file and a rename, the only time the whole index is written.
``ledger.jsonl`` holds one JSON object per committed transaction, and
opening the ledger applies them again through ``LedgerState.apply``. A
last line without its trailing newline is a torn append: it is dropped
and cut off the file, so the next append starts a line of its own. Any
other line that does not parse, or a transaction that reverts on
replay, is a ``StoreError`` naming the file and the line.

``open_custody`` opens a store directory for one command and holds an
exclusive ``flock`` on ``<root>/lock`` (POSIX only) until it ends. A
create writes its blob, then its index line, then its ledger line; a
discard writes its ledger line first. So a store entry, or a blob file
named ``<hex id>.bin``, that the ledger does not name is a create or
discard cut short, and a command that changes the ledger deletes it
first; ``verify`` reports it. No other file in the directory is touched.
A store whose index names entries but that has no ledger journal is a
``StoreError``; that includes every store written before the journal.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
from pathlib import Path
from typing import Callable, Iterator, Optional

from .ledger import (REVERT_ERRORS, Address, EvidenceEntry, EvidenceId,
                     EvidenceNotFound, LedgerError, LedgerState, NotOwner,
                     Transaction, TxKind, create_tx, remove_tx, transfer_tx)

LEDGER = "ledger.jsonl"
_BLOB_FILE = re.compile(r"[0-9a-f]{64}\.bin")


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


def _replay(path: Path, apply: Callable[[str], None]) -> int:
    """Pass each whole line of the journal at path to apply; count them.

    A line that apply rejects is a StoreError naming the path and line.
    """
    if not path.exists():
        return 0
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    if end < len(data):
        os.truncate(path, end)
    lines = data[:end].split(b"\n")[:-1]
    for number, line in enumerate(lines, 1):
        try:
            apply(line.decode("ascii"))
        except (ValueError, KeyError, TypeError, LedgerError) as err:
            # ValueError covers UnicodeDecodeError and bad JSON too
            raise StoreError(f"{path}: line {number} is malformed "
                             f"({type(err).__name__}: {err}): {line!r}") from err
    return len(lines)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, not {value!r}")
    return value


def _append_line(path: Path, line: str) -> None:
    with open(path, "a") as journal:
        journal.write(line + "\n")


class EvidenceStore:
    """Flat-file store: <root>/<hex id>.bin plus <root>/index.tsv.

    ``put`` and ``delete`` each append one line to the index journal (see
    the module docstring) and rewrite nothing. The index line is what
    commits an operation: ``put`` writes the blob before its line and
    ``delete`` removes the blob after its line, so a crash between the
    two leaves at worst a blob file the index does not name, never an
    index entry without its blob. Opening a store compacts the journal
    when it holds a delete.
    """

    INDEX = "index.tsv"

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / self.INDEX
        self._index: dict[EvidenceId, tuple[int, int]] = {}  # id -> (nonce, size)
        self._load_index()

    def _load_index(self) -> None:
        lines = _replay(self.index_path, self._replay_line)
        # each put adds a line and an entry, each delete a line and no entry
        if lines != len(self._index):
            self._compact()

    def _replay_line(self, line: str) -> None:
        fields = line.split("\t")
        if len(fields) == 2 and fields[0] == "-":
            del self._index[EvidenceId.from_hex(fields[1])]
        elif len(fields) == 3:
            self._index[EvidenceId.from_hex(fields[0])] = (
                int(fields[1]), int(fields[2]))
        else:
            raise ValueError("expected 3 fields, or 2 after '-'")

    def _compact(self) -> None:
        """Atomically replace the journal with one put line per live entry."""
        tmp = self.root / (self.INDEX + ".tmp")
        tmp.write_text("".join(f"{eid.hex}\t{nonce}\t{size}\n"
                               for eid, (nonce, size) in self._index.items()))
        os.replace(tmp, self.index_path)

    def put(self, evidence_id: EvidenceId, nonce: int, blob: bytes) -> None:
        if evidence_id in self._index:
            raise IdCollision(evidence_id.hex)
        (self.root / f"{evidence_id.hex}.bin").write_bytes(blob)
        _append_line(self.index_path, f"{evidence_id.hex}\t{nonce}\t{len(blob)}")
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
        _append_line(self.index_path, f"-\t{evidence_id.hex}")
        del self._index[evidence_id]
        (self.root / f"{evidence_id.hex}.bin").unlink(missing_ok=True)

    def __contains__(self, evidence_id: EvidenceId) -> bool:
        return evidence_id in self._index

    def ids(self):
        return sorted(self._index)

    def stray_files(self) -> list[Path]:
        """Blob files, by their ``<hex id>.bin`` name, the index does not name."""
        named = {f"{evidence_id.hex}.bin" for evidence_id in self._index}
        return sorted(path for path in self.root.iterdir()
                      if _BLOB_FILE.fullmatch(path.name)
                      and path.name not in named)


class LocalLedgerClient:
    """Synchronous single-node client: every submit commits immediately.

    A transaction that reverts raises its typed ``LedgerError`` (see
    ``ledger.REVERT_ERRORS``), on submit and on replay alike. Given a
    journal path, the client first replays the journal and then appends
    one line per transaction that commits.
    """

    def __init__(self, journal: Optional[Path] = None):
        self.journal = journal
        self._load()

    def _load(self) -> None:
        self.state = LedgerState()
        self._time = 0.0
        self._uid = 0
        if self.journal is not None:
            _replay(self.journal, self._replay_line)

    def _replay_line(self, line: str) -> None:
        record = json.loads(line)
        kind, time = TxKind(record["kind"]), float(record["time"])
        head = (int(record["uid"]), Address.from_hex(record["issuer"]),
                EvidenceId.from_hex(record["id"]))
        if kind is TxKind.CREATE:
            tx = create_tx(*head, _text(record["description"]), time)
        elif kind is TxKind.TRANSFER:
            tx = transfer_tx(*head, Address.from_hex(record["new_owner"]), time)
        else:
            tx = remove_tx(*head, time)
        self._apply(tx, time)
        self._uid = tx.uid

    def submit(self, tx: Transaction) -> None:
        """Commit tx one past the last ledger time and journal it. A
        revert journals nothing and raises, but still moves the clock on."""
        time = self._time + 1.0
        self._apply(tx, time)
        if self.journal is not None:
            record = {"uid": tx.uid, "time": time, "kind": tx.kind.value,
                      "issuer": tx.issuer.hex, "id": tx.evidence_id.hex}
            if tx.kind is TxKind.CREATE:
                record["description"] = tx.description
            elif tx.kind is TxKind.TRANSFER:
                record["new_owner"] = tx.new_owner.hex
            try:
                _append_line(self.journal, json.dumps(record))
            except BaseException:
                self._load()  # memory must hold what the journal holds
                raise

    def _apply(self, tx: Transaction, time: float) -> None:
        self._time = time
        reason = self.state.apply(tx, time).reason
        if reason is not None:
            raise REVERT_ERRORS[reason](reason.value)

    def get_entry(self, evidence_id: EvidenceId) -> EvidenceEntry:
        return self.state.get_evidence(evidence_id)

    def evidence_ids(self) -> list[EvidenceId]:
        return list(self.state.evidences)

    def next_uid(self) -> int:
        self._uid += 1
        return self._uid

    def now(self) -> float:
        return self._time


class Frontend:
    """User workflow over the store and the ledger.

    Creation registers blob and ledger entry together; acquisition is
    owner-gated and integrity-checked; discarding is creator-gated and
    deletes the blob only after the ledger removal has committed.
    """

    MAX_NONCE_RETRIES = 8

    def __init__(self, store: EvidenceStore, client: LocalLedgerClient,
                 seed: int = 0, hash_func: Callable[[bytes], bytes] = None):
        self.store = store
        self.client = client
        self.rng = random.Random(seed)
        self.hash_func = hash_func or _sha256

    def submit_evidence(self, creator: Address, blob: bytes,
                        description: str) -> EvidenceId:
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
        try:
            self.client.submit(tx)
        except (LedgerError, OSError):
            # a revert or a failed ledger append; after any other error
            # the blob is left for the next reconciling open to delete
            self.store.delete(evidence_id)
            raise
        return evidence_id

    def acquire_evidence(self, requester: Address,
                         evidence_id: EvidenceId) -> bytes:
        entry = self.client.get_entry(evidence_id)  # raises EvidenceNotFound
        if requester != entry.owner:
            raise NotOwner(f"{requester.hex} is not the current owner")
        return self._verified_blob(evidence_id)

    def _verified_blob(self, evidence_id: EvidenceId) -> bytes:
        blob, nonce = self.store.get(evidence_id)
        if generate_id(blob, nonce, self.hash_func) != evidence_id:
            raise IntegrityViolation(
                f"stored bytes for {evidence_id.hex} no longer match their id")
        return blob

    def transfer_evidence(self, owner: Address, evidence_id: EvidenceId,
                          new_owner: Address) -> None:
        self.client.submit(transfer_tx(self.client.next_uid(), owner,
                                       evidence_id, new_owner,
                                       self.client.now()))

    def discard_evidence(self, requester: Address,
                         evidence_id: EvidenceId) -> None:
        self.client.submit(remove_tx(self.client.next_uid(), requester,
                                     evidence_id, self.client.now()))
        # only after the removal committed may the blob go
        if evidence_id in self.store:
            self.store.delete(evidence_id)

    def check_referential_integrity(self) -> bool:
        """Every stored id has a ledger entry and vice versa."""
        return set(self.store.ids()) == set(self.client.evidence_ids())

    def verify(self) -> list[str]:
        """One line per problem: a blob that cannot be read or no longer
        hashes to its id, or an id that only one of store and ledger holds."""
        problems = []
        for evidence_id in self.store.ids():
            try:
                self._verified_blob(evidence_id)
            except (IntegrityViolation, OSError) as err:
                problems.append(str(err))
        stored, listed = set(self.store.ids()), set(self.client.evidence_ids())
        problems += [f"{eid.hex} is in the store but not on the ledger"
                     for eid in sorted(stored - listed)]
        problems += [f"{eid.hex} is on the ledger but not in the store"
                     for eid in sorted(listed - stored)]
        problems += [f"{path.name} is a blob file the store index does not name"
                     for path in self.store.stray_files()]
        return problems


@contextlib.contextmanager
def open_custody(root: Path, reconcile: bool = True) -> Iterator[Frontend]:
    """Yield a Frontend over the store at root and its journaled ledger.

    The lock, the refusal of a store without its ledger journal and the
    clean-up that reconcile asks for are described in the module
    docstring. Commands that only read pass reconcile=False, so
    ``verify`` sees what a command cut short left behind.
    """
    import fcntl  # POSIX only; nothing else in the package needs it
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        store = EvidenceStore(root)
        journal = root / LEDGER
        if not journal.exists():
            if store.ids():
                raise StoreError(f"{journal} is missing but {store.index_path} "
                                 f"names {len(store.ids())} entries")
            journal.touch()
        client = LocalLedgerClient(journal)
        if reconcile:
            _reconcile(store, client)
        yield Frontend(store, client, seed=random.SystemRandom().getrandbits(32))


def _reconcile(store: EvidenceStore, client: LocalLedgerClient) -> None:
    """Delete every store entry and blob file that the ledger does not name."""
    for evidence_id in set(store.ids()) - set(client.evidence_ids()):
        store.delete(evidence_id)
    for path in store.stray_files():
        path.unlink()
