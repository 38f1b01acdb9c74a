"""Content-addressed evidence storage and the user-facing workflow.

Each blob lives in ``<root>/<hex id>.bin`` with its 8-byte nonce
appended: exactly the bytes whose hash is the id, and the directory
listing is the store's whole index. So every acquisition, and ``verify``
for each file, reads the file once and hashes exactly the bytes it read:
the file still matches what was registered on the ledger when that hash
is the id.

``ledger.jsonl`` is the one journal: one JSON object per committed
transaction, appended and never rewritten, and opening the ledger
applies them again through ``LedgerState.apply``. A last line without
its trailing newline is a torn append, and it is never applied. A
command that changes the ledger cuts it off the file when it opens the
store, so the next append starts a line of its own; a command that only
reads leaves the file as it is, and ``verify`` reports the torn line.
Any other line that does not parse, or a transaction that reverts on
replay, is a ``StoreError`` naming the file and the line.

``open_custody`` opens a store directory for one command and holds a
``flock`` on ``<root>/lock`` (POSIX only) until it ends: exclusive for a
command that changes the store, shared for one that only reads, so
readers run side by side. A command that only reads creates nothing: a
store without its ledger journal is a ``StoreError`` for it. The
ledger line is what commits an operation: a create writes its blob file,
then its ledger line; a discard writes its ledger line, then deletes the
blob file. So a blob file that the ledger does not name is a create or
discard cut short, and a command that changes the ledger deletes it
first; ``verify`` reports it. No file other than a ``<64 hex>.bin`` is
ever deleted. A store that holds blob files but no ledger journal is a
``StoreError``, and so is a store with an ``index.tsv``, the index of an
older format whose blob files carry no nonce.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import operator
import os
import random
import re
from pathlib import Path
from typing import Callable, Iterator, Optional

from .ledger import (CREATE, REVERT_ERRORS, TRANSFER, Address, EvidenceEntry,
                     EvidenceId, EvidenceNotFound, LedgerError, LedgerState,
                     NotOwner, Transaction, TxKind, create_tx, remove_tx,
                     transfer_tx)

LEDGER = "ledger.jsonl"
_BLOB_FILE = re.compile(r"[0-9a-f]{64}\.bin")
_OLD_INDEX = "index.tsv"


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


# EvidenceId's own order, without a Python-level __lt__ per comparison
_id_bytes = operator.attrgetter("value")


def _replay(path: Path, apply: Callable[[str], None]) -> bytes:
    """Pass each whole line of the journal at path to apply, and return
    the torn append after them (empty if there is none).

    A line that apply rejects is a StoreError naming the path and line.
    """
    if not path.exists():
        return b""
    data = path.read_bytes()
    end = data.rfind(b"\n") + 1
    lines = data[:end].split(b"\n")[:-1]
    for number, line in enumerate(lines, 1):
        try:
            apply(line.decode("ascii"))
        except (ValueError, KeyError, TypeError, LedgerError) as err:
            # ValueError covers UnicodeDecodeError and bad JSON too
            raise StoreError(f"{path}: line {number} is malformed "
                             f"({type(err).__name__}: {err}): {line!r}") from err
    return data[end:]


def _read_file(path: Path) -> bytes:
    """All of the file at path, read with no buffered reader in between."""
    fd = os.open(path, os.O_RDONLY)
    try:
        size = os.fstat(fd).st_size
        data = os.read(fd, size)
        # one read returns at most about 2 GiB
        while len(data) < size and (more := os.read(fd, size - len(data))):
            data += more
        return data
    finally:
        os.close(fd)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, not {value!r}")
    return value


def is_utf8(text: str) -> bool:
    """False for text with lone surrogates: Python's stand-ins for the
    bytes of an argument that were not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _append_line(path: Path, line: str) -> None:
    with open(path, "a") as journal:
        journal.write(line + "\n")


class EvidenceStore:
    """Flat-file store: <root>/<hex id>.bin holds blob ‖ nonce.

    The ids and their files come from one directory listing when the
    store opens; ``put`` writes one file and ``delete`` unlinks it.
    Opening a directory that holds an older format's ``index.tsv`` is a
    StoreError.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        names = os.listdir(self.root)
        if _OLD_INDEX in names:
            raise StoreError(f"{self.root / _OLD_INDEX} is the index of an "
                             "older store format, whose blob files carry no "
                             "nonce; this version cannot open the store")
        self._files = {EvidenceId.from_hex(name[:64]): self.root / name
                       for name in names if _BLOB_FILE.fullmatch(name)}

    def _file(self, evidence_id: EvidenceId) -> Path:
        path = self._files.get(evidence_id)
        if path is None:
            raise EvidenceNotFound(evidence_id.hex)
        return path

    def put(self, evidence_id: EvidenceId, nonce: int, blob: bytes) -> None:
        if evidence_id in self._files:
            raise IdCollision(evidence_id.hex)
        path = self.root / f"{evidence_id.hex}.bin"
        path.write_bytes(blob + nonce.to_bytes(8, "big"))
        self._files[evidence_id] = path

    def read(self, evidence_id: EvidenceId) -> bytes:
        """The stored file of an id as it is: blob ‖ nonce, if intact."""
        return _read_file(self._file(evidence_id))

    def delete(self, evidence_id: EvidenceId) -> None:
        self._file(evidence_id).unlink(missing_ok=True)
        del self._files[evidence_id]

    def __contains__(self, evidence_id: EvidenceId) -> bool:
        return evidence_id in self._files

    def __iter__(self) -> Iterator[EvidenceId]:
        """The stored ids in no set order; ``ids`` sorts them."""
        return iter(self._files)

    def ids(self) -> list[EvidenceId]:
        return sorted(self._files, key=_id_bytes)


class LocalLedgerClient:
    """Synchronous single-node client: every submit commits immediately.

    A transaction that reverts raises its typed ``LedgerError`` (see
    ``ledger.REVERT_ERRORS``), on submit and on replay alike. Given a
    journal path, the client first replays the journal and then appends
    one line per transaction that commits. A torn last line is kept in
    ``torn`` and left in the file until ``cut_torn`` or the next append
    cuts it.
    """

    def __init__(self, journal: Optional[Path] = None):
        self.journal = journal
        self._load()

    def _load(self) -> None:
        self.state = LedgerState()
        self._time = 0.0
        self._uid = 0
        self.torn = b""
        if self.journal is not None:
            self.torn = _replay(self.journal, self._replay_line)

    def cut_torn(self) -> None:
        """Cut a torn last line off the journal."""
        if self.torn:
            os.truncate(self.journal,
                        self.journal.stat().st_size - len(self.torn))
            self.torn = b""

    def _replay_line(self, line: str) -> None:
        record = json.loads(line)
        kind, time = TxKind(record["kind"]), float(record["time"])
        head = (int(record["uid"]), Address.from_hex(record["issuer"]),
                EvidenceId.from_hex(record["id"]))
        if kind is CREATE:
            tx = create_tx(*head, _text(record["description"]), time)
        elif kind is TRANSFER:
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
            if tx.kind is CREATE:
                record["description"] = tx.description
            elif tx.kind is TRANSFER:
                record["new_owner"] = tx.new_owner.hex
            try:
                self.cut_torn()
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

    def owner(self, evidence_id: EvidenceId) -> Address:
        """The current owner, read in place: no copy of the entry."""
        entry = self.state.evidences.get(evidence_id)
        if entry is None:
            raise EvidenceNotFound(evidence_id.hex)
        return entry.owner

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
        """The blob, for its current owner only, once its file is checked.

        The file is read once, and exactly the bytes read are hashed: an
        intact file holds blob ‖ nonce, whose hash is the id.
        """
        # an unknown id raises EvidenceNotFound
        if requester != self.client.owner(evidence_id):
            raise NotOwner(f"{requester.hex} is not the current owner")
        return self._checked_file(evidence_id)[:-8]

    def _checked_file(self, evidence_id: EvidenceId) -> bytes:
        """The id's file, blob ‖ nonce, once its bytes hash to the id."""
        data = self.store.read(evidence_id)
        # a file of 8 bytes or fewer holds no blob, so no id hashes to it
        if len(data) <= 8 or self.hash_func(data) != evidence_id.value:
            raise IntegrityViolation(
                f"stored bytes for {evidence_id.hex} no longer match their id")
        return data

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
        return set(self.store) == set(self.client.evidence_ids())

    def verify(self) -> list[str]:
        """One line per problem: a blob that cannot be read or no longer
        hashes to its id, an id that only one of store and ledger holds,
        a ledger entry whose description is not UTF-8 text (an older
        version journaled one from an undecodable argument), or a torn
        last line of the ledger journal.

        Each stored file is read once, and exactly the bytes read are
        hashed, as on acquisition. The lines come in that order of kinds,
        and by id within each kind.
        """
        stored, listed = set(self.store), set(self.client.evidence_ids())
        damaged, unlisted, missing = [], [], []
        for eid in sorted(stored | listed, key=_id_bytes):
            if eid not in stored:
                missing.append(
                    f"{eid.hex} is on the ledger but not in the store")
                continue
            try:
                self._checked_file(eid)
            except (IntegrityViolation, OSError) as err:
                damaged.append(str(err))
            if eid not in listed:
                unlisted.append(
                    f"{eid.hex} is in the store but not on the ledger")
        problems = damaged + unlisted + missing
        problems += [f"{eid.hex} has a description that is not UTF-8 text"
                     for eid in sorted(listed, key=_id_bytes)
                     if not is_utf8(self.client.get_entry(eid).description)]
        if self.client.torn:
            problems.append(f"{self.client.journal} ends in a torn line of "
                            f"{len(self.client.torn)} bytes, not applied")
        return problems


@contextlib.contextmanager
def open_custody(root: Path, reconcile: bool = True) -> Iterator[Frontend]:
    """Yield a Frontend over the store at root and its journaled ledger.

    The lock, the refusal of an older store format or of a store without
    its ledger journal, and the clean-up that reconcile asks for (a torn
    last ledger line cut off, unnamed blob files deleted) are described
    in the module docstring. Commands that only read pass
    reconcile=False: they share the lock, create no store, and leave the
    journal and the blob files as they are, so ``verify`` sees what a
    command cut short left behind.
    """
    import fcntl  # POSIX only; nothing else in the package needs it
    root = Path(root)
    journal = root / LEDGER
    if not reconcile and not journal.exists():
        raise StoreError(f"{journal} is missing: {root} holds no custody "
                         "store to read")
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "lock", "a") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX if reconcile else fcntl.LOCK_SH)
        store = EvidenceStore(root)
        if not journal.exists():
            if store.ids():
                raise StoreError(f"{journal} is missing but {root} holds "
                                 f"{len(store.ids())} blob files")
            journal.touch()
        client = LocalLedgerClient(journal)
        if reconcile:
            client.cut_torn()
            _reconcile(store, client)
        yield Frontend(store, client, seed=random.SystemRandom().getrandbits(32))


def _reconcile(store: EvidenceStore, client: LocalLedgerClient) -> None:
    """Delete every blob file that the ledger does not name."""
    for evidence_id in set(store) - set(client.evidence_ids()):
        store.delete(evidence_id)
