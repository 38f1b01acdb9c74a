"""Evidence-log state machine and the per-transaction cost model.

The ledger tracks custody entries: who collected a piece of evidence
(the creator), who currently holds it (the owner) and the full handover
history. Mutations go through three transaction kinds (create, transfer,
remove); every transaction has a fixed gas and byte cost used by the
block builder and the analytics.

The rules of the ledger (a nonzero id, no duplicate create, transfer by
the owner only, remove by the creator only, a description within the
limit) are written once. ``LedgerState.validate`` holds them all and
copies nothing; ``LedgerState.apply`` asks the same rules and writes
only after they let the transaction commit. A transaction that breaks a
rule reverts: its receipt names the ``RevertReason``, it still pays its
gas, and ``REVERT_ERRORS`` maps the reason to the ``LedgerError`` a
caller raises for it.

Functions read enum members from module constants (``TRANSFER``, not
``TxKind.TRANSFER``): on Python 3.11.7 each ``Enum.X`` read goes
through ``EnumType.__getattr__``, about ten times the cost of a global,
on the per-transaction path of every block built and applied.
"""
from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

MAX_DESCRIPTION_LEN = 1024

# Measured per-transaction costs (gas units, wire bytes).
TRANSFER_GAS = 80502
TRANSFER_SIZE = 174
REMOVE_GAS = 236478
REMOVE_SIZE = 142
CREATE_GAS_EMPTY = 170207
CREATE_GAS_FULL = 897367
CREATE_SIZE_EMPTY = 207
CREATE_SIZE_FULL = 1233


class LedgerError(Exception):
    """Base class for custody-ledger failures."""


class InvalidId(LedgerError):
    pass


class EvidenceAlreadyExists(LedgerError):
    pass


class EvidenceNotFound(LedgerError):
    pass


class NotOwner(LedgerError):
    pass


class NotCreator(LedgerError):
    pass


class DescriptionTooLong(LedgerError):
    pass


class InvalidDescriptionLength(LedgerError):
    pass


@dataclass(frozen=True, order=True)
class _FixedBytes:
    """A byte string of the width a subclass names, with its error word.
    Two subclasses never compare equal; ``<`` between them raises."""

    value: bytes

    def __post_init__(self):
        """Defined so that ``__init__`` calls the subclass's width check."""

    def __init_subclass__(cls, size: int, what: str):
        # size is a closure cell: reading a class attribute here costs
        # 7-15% of each construction, on every id a workload draws
        def __post_init__(self):
            if len(self.value) != size:
                raise ValueError(f"{what} must be exactly {size} bytes")

        def from_int(cls, n: int):
            return cls(n.to_bytes(size, "big"))

        cls.__post_init__, cls.from_int = __post_init__, classmethod(from_int)

    @classmethod
    def from_hex(cls, s: str):
        return cls(bytes.fromhex(s))

    @property
    def hex(self) -> str:
        return self.value.hex()


class Address(_FixedBytes, size=20, what="address"):
    """20-byte entity identity. The zero address is never a valid entity."""

    @classmethod
    def from_label(cls, label: str) -> "Address":
        return cls(hashlib.sha256(label.encode("utf-8")).digest()[:20])


class EvidenceId(_FixedBytes, size=32, what="evidence id"):
    """32-byte evidence identifier; the all-zero id means "nonexistent"."""

    def is_zero(self) -> bool:
        return self.value == b"\x00" * 32


ZERO_ID = EvidenceId(b"\x00" * 32)


@dataclass
class EvidenceEntry:
    """One custody record.

    taddr/ttime hold the handover history in chronological order:
    taddr[0] is the creator, taddr[-1] the current owner.
    """

    id: EvidenceId
    creator: Address
    owner: Address
    description: str
    taddr: list = field(default_factory=list)
    ttime: list = field(default_factory=list)


class TxKind(enum.Enum):
    CREATE = "create"
    TRANSFER = "transfer"
    REMOVE = "remove"


CREATE, TRANSFER, REMOVE = TxKind.CREATE, TxKind.TRANSFER, TxKind.REMOVE


def create_gas(length: int) -> int:
    """Gas for a create with a description of the given length.

    Exact at the measured endpoints (0 and 1024 characters); linear
    interpolation with round-half-up in between. Monotone in length.
    """
    return _interpolate(length, CREATE_GAS_EMPTY, CREATE_GAS_FULL)


def create_size(length: int) -> int:
    """Wire size of a create with a description of the given length."""
    return _interpolate(length, CREATE_SIZE_EMPTY, CREATE_SIZE_FULL)


def _interpolate(length: int, empty: int, full: int) -> int:
    if not 0 <= length <= MAX_DESCRIPTION_LEN:
        raise InvalidDescriptionLength(f"description length {length} "
                                       f"outside [0, {MAX_DESCRIPTION_LEN}]")
    return empty + (length * (full - empty) + MAX_DESCRIPTION_LEN // 2) \
        // MAX_DESCRIPTION_LEN


def tx_gas(kind: TxKind, description_length: int = 0) -> int:
    if kind is TRANSFER:
        return TRANSFER_GAS
    if kind is REMOVE:
        return REMOVE_GAS
    return create_gas(description_length)


def tx_size(kind: TxKind, description_length: int = 0) -> int:
    if kind is TRANSFER:
        return TRANSFER_SIZE
    if kind is REMOVE:
        return REMOVE_SIZE
    return create_size(description_length)


@dataclass(frozen=True)
class Transaction:
    """A typed ledger command with its modeled gas and byte cost."""

    uid: int
    kind: TxKind
    issuer: Address
    evidence_id: EvidenceId
    issue_time: float
    gas: int
    size: int
    description: Optional[str] = None
    new_owner: Optional[Address] = None


def create_tx(uid: int, issuer: Address, evidence_id: EvidenceId,
              description: str, issue_time: float) -> Transaction:
    if len(description) > MAX_DESCRIPTION_LEN:
        raise DescriptionTooLong(
            f"description is {len(description)} characters, max {MAX_DESCRIPTION_LEN}"
        )
    length = len(description)
    return Transaction(uid, CREATE, issuer, evidence_id, issue_time,
                       gas=create_gas(length), size=create_size(length),
                       description=description)


def transfer_tx(uid: int, issuer: Address, evidence_id: EvidenceId,
                new_owner: Address, issue_time: float) -> Transaction:
    return Transaction(uid, TRANSFER, issuer, evidence_id, issue_time,
                       gas=TRANSFER_GAS, size=TRANSFER_SIZE, new_owner=new_owner)


def remove_tx(uid: int, issuer: Address, evidence_id: EvidenceId,
              issue_time: float) -> Transaction:
    return Transaction(uid, REMOVE, issuer, evidence_id, issue_time,
                       gas=REMOVE_GAS, size=REMOVE_SIZE)


class RevertReason(enum.Enum):
    INVALID_ID = "invalid-id"
    EVIDENCE_EXISTS = "evidence-exists"
    EVIDENCE_NOT_FOUND = "evidence-not-found"
    NOT_OWNER = "not-owner"
    NOT_CREATOR = "not-creator"
    DESCRIPTION_TOO_LONG = "description-too-long"


INVALID_ID = RevertReason.INVALID_ID
EVIDENCE_EXISTS = RevertReason.EVIDENCE_EXISTS
EVIDENCE_NOT_FOUND = RevertReason.EVIDENCE_NOT_FOUND
NOT_OWNER = RevertReason.NOT_OWNER
NOT_CREATOR = RevertReason.NOT_CREATOR
DESCRIPTION_TOO_LONG = RevertReason.DESCRIPTION_TOO_LONG


REVERT_ERRORS = {
    RevertReason.INVALID_ID: InvalidId,
    RevertReason.EVIDENCE_EXISTS: EvidenceAlreadyExists,
    RevertReason.EVIDENCE_NOT_FOUND: EvidenceNotFound,
    RevertReason.NOT_OWNER: NotOwner,
    RevertReason.NOT_CREATOR: NotCreator,
    RevertReason.DESCRIPTION_TOO_LONG: DescriptionTooLong,
}


def _revert_reason(tx: Transaction,
                   entry: Optional[EvidenceEntry]) -> Optional[RevertReason]:
    """Every precondition of the ledger, as a pure function.

    entry is what tx's evidence id names on the ledger, None if nothing.
    Returns why tx would revert, or None if it would commit.
    """
    kind = tx.kind
    if kind is not CREATE:
        if entry is None:
            return EVIDENCE_NOT_FOUND
        if kind is TRANSFER:
            return None if tx.issuer == entry.owner else NOT_OWNER
        return None if tx.issuer == entry.creator else NOT_CREATOR
    if tx.evidence_id.is_zero():
        return INVALID_ID
    if entry is not None:
        return EVIDENCE_EXISTS
    if len(tx.description or "") > MAX_DESCRIPTION_LEN:
        return DESCRIPTION_TOO_LONG
    return None


@dataclass(frozen=True)
class Receipt:
    """Outcome of applying one transaction; gas is charged either way."""

    tx_uid: int
    reason: Optional[RevertReason]
    gas_charged: int

    @property
    def succeeded(self) -> bool:
        return self.reason is None


class LedgerState:
    """In-memory evidence log.

    ``validate`` holds every rule: it tells why a transaction would
    revert against the current state and changes nothing. ``apply`` asks
    the same rules and writes only when they let the transaction commit,
    so a revert leaves the state untouched and raises nothing.
    """

    def __init__(self):
        self.evidences: dict[EvidenceId, EvidenceEntry] = {}

    def get_evidence(self, evidence_id: EvidenceId) -> EvidenceEntry:
        """Read-only lookup; returns a defensive copy of the entry.

        Only the history lists are copied: ids and addresses are frozen.
        """
        entry = self.evidences.get(evidence_id)
        if entry is None:
            raise EvidenceNotFound(evidence_id.hex)
        return replace(entry, taddr=list(entry.taddr), ttime=list(entry.ttime))

    def validate(self, tx: Transaction) -> Optional[RevertReason]:
        """Why tx would revert against the current state, or None."""
        return _revert_reason(tx, self.evidences.get(tx.evidence_id))

    def apply(self, tx: Transaction, ledger_time: float) -> Receipt:
        """Apply one transaction at the given ledger (block) timestamp.

        Precondition failures are reported in the receipt, never raised;
        gas is charged regardless of the outcome.
        """
        entry = self.evidences.get(tx.evidence_id)
        reason = _revert_reason(tx, entry)
        if reason is None:
            kind = tx.kind
            if kind is TRANSFER:  # the most frequent kind first
                entry.owner = tx.new_owner
                entry.taddr.append(tx.new_owner)
                entry.ttime.append(ledger_time)
            elif kind is CREATE:
                self.evidences[tx.evidence_id] = EvidenceEntry(
                    id=tx.evidence_id, creator=tx.issuer, owner=tx.issuer,
                    description=tx.description or "", taddr=[tx.issuer],
                    ttime=[ledger_time])
            else:
                del self.evidences[tx.evidence_id]
        return Receipt(tx.uid, reason, tx.gas)

    def __len__(self):
        return len(self.evidences)
