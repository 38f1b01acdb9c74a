"""Evidence-log state machine and the per-transaction cost model.

The ledger tracks custody entries: who collected a piece of evidence
(the creator), who currently holds it (the owner) and the full handover
history. Mutations go through three transaction kinds (create, transfer,
remove); every transaction has a fixed gas and byte cost used by the
block builder and the analytics.
"""
from __future__ import annotations

import copy
import enum
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
class Address:
    """20-byte entity identity. The zero address is never a valid entity."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != 20:
            raise ValueError("address must be exactly 20 bytes")

    @classmethod
    def from_int(cls, n: int) -> "Address":
        return cls(n.to_bytes(20, "big"))

    @classmethod
    def from_label(cls, label: str) -> "Address":
        import hashlib

        return cls(hashlib.sha256(label.encode("utf-8")).digest()[:20])

    @classmethod
    def from_hex(cls, s: str) -> "Address":
        return cls(bytes.fromhex(s))

    @property
    def hex(self) -> str:
        return self.value.hex()

    def is_zero(self) -> bool:
        return self.value == b"\x00" * 20


ZERO_ADDRESS = Address(b"\x00" * 20)


@dataclass(frozen=True, order=True)
class EvidenceId:
    """32-byte evidence identifier; the all-zero id means "nonexistent"."""

    value: bytes

    def __post_init__(self):
        if len(self.value) != 32:
            raise ValueError("evidence id must be exactly 32 bytes")

    @classmethod
    def from_int(cls, n: int) -> "EvidenceId":
        return cls(n.to_bytes(32, "big"))

    @classmethod
    def from_hex(cls, s: str) -> "EvidenceId":
        return cls(bytes.fromhex(s))

    @property
    def hex(self) -> str:
        return self.value.hex()

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


def create_gas(length: int) -> int:
    """Gas for a create with a description of the given length.

    Exact at the measured endpoints (0 and 1024 characters); linear
    interpolation with round-half-up in between. Monotone in length.
    """
    _check_length(length)
    span = CREATE_GAS_FULL - CREATE_GAS_EMPTY
    return CREATE_GAS_EMPTY + (length * span + MAX_DESCRIPTION_LEN // 2) // MAX_DESCRIPTION_LEN


def create_size(length: int) -> int:
    """Wire size of a create with a description of the given length."""
    _check_length(length)
    span = CREATE_SIZE_FULL - CREATE_SIZE_EMPTY
    return CREATE_SIZE_EMPTY + (length * span + MAX_DESCRIPTION_LEN // 2) // MAX_DESCRIPTION_LEN


def _check_length(length: int) -> None:
    if not 0 <= length <= MAX_DESCRIPTION_LEN:
        raise InvalidDescriptionLength(
            f"description length {length} outside [0, {MAX_DESCRIPTION_LEN}]"
        )


def tx_gas(kind: TxKind, description_length: int = 0) -> int:
    if kind is TxKind.TRANSFER:
        return TRANSFER_GAS
    if kind is TxKind.REMOVE:
        return REMOVE_GAS
    return create_gas(description_length)


def tx_size(kind: TxKind, description_length: int = 0) -> int:
    if kind is TxKind.TRANSFER:
        return TRANSFER_SIZE
    if kind is TxKind.REMOVE:
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
    return Transaction(uid, TxKind.CREATE, issuer, evidence_id, issue_time,
                       gas=create_gas(length), size=create_size(length),
                       description=description)


def transfer_tx(uid: int, issuer: Address, evidence_id: EvidenceId,
                new_owner: Address, issue_time: float) -> Transaction:
    return Transaction(uid, TxKind.TRANSFER, issuer, evidence_id, issue_time,
                       gas=TRANSFER_GAS, size=TRANSFER_SIZE, new_owner=new_owner)


def remove_tx(uid: int, issuer: Address, evidence_id: EvidenceId,
              issue_time: float) -> Transaction:
    return Transaction(uid, TxKind.REMOVE, issuer, evidence_id, issue_time,
                       gas=REMOVE_GAS, size=REMOVE_SIZE)


class RevertReason(enum.Enum):
    INVALID_ID = "invalid-id"
    EVIDENCE_EXISTS = "evidence-exists"
    EVIDENCE_NOT_FOUND = "evidence-not-found"
    NOT_OWNER = "not-owner"
    NOT_CREATOR = "not-creator"
    DESCRIPTION_TOO_LONG = "description-too-long"


_REASON_BY_ERROR = {
    InvalidId: RevertReason.INVALID_ID,
    EvidenceAlreadyExists: RevertReason.EVIDENCE_EXISTS,
    EvidenceNotFound: RevertReason.EVIDENCE_NOT_FOUND,
    NotOwner: RevertReason.NOT_OWNER,
    NotCreator: RevertReason.NOT_CREATOR,
    DescriptionTooLong: RevertReason.DESCRIPTION_TOO_LONG,
}


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

    Every mutating operation validates all preconditions before touching
    state, so a raised error always leaves the state untouched.
    """

    def __init__(self):
        self.evidences: dict[EvidenceId, EvidenceEntry] = {}

    def create_evidence(self, sender: Address, evidence_id: EvidenceId,
                        description: str, time: float) -> None:
        if evidence_id.is_zero():
            raise InvalidId("the zero id is reserved")
        if evidence_id in self.evidences:
            raise EvidenceAlreadyExists(evidence_id.hex)
        if len(description) > MAX_DESCRIPTION_LEN:
            raise DescriptionTooLong(
                f"{len(description)} characters, max {MAX_DESCRIPTION_LEN}")
        self.evidences[evidence_id] = EvidenceEntry(
            id=evidence_id, creator=sender, owner=sender,
            description=description, taddr=[sender], ttime=[time])

    def transfer(self, sender: Address, evidence_id: EvidenceId,
                 new_owner: Address, time: float) -> None:
        entry = self._existing(evidence_id)
        if sender != entry.owner:
            raise NotOwner(f"{sender.hex} does not own {evidence_id.hex}")
        entry.owner = new_owner
        entry.taddr.append(new_owner)
        entry.ttime.append(time)

    def remove_evidence(self, sender: Address, evidence_id: EvidenceId) -> None:
        entry = self._existing(evidence_id)
        if sender != entry.creator:
            raise NotCreator(f"{sender.hex} did not create {evidence_id.hex}")
        del self.evidences[evidence_id]

    def get_evidence(self, evidence_id: EvidenceId) -> EvidenceEntry:
        """Read-only lookup; returns a defensive copy of the entry.

        Only the history lists are copied: ids and addresses are frozen.
        """
        entry = self._existing(evidence_id)
        return replace(entry, taddr=list(entry.taddr), ttime=list(entry.ttime))

    def apply(self, tx: Transaction, ledger_time: float) -> Receipt:
        """Apply one transaction at the given ledger (block) timestamp.

        Precondition failures are reported in the receipt, never raised;
        gas is charged regardless of the outcome.
        """
        try:
            if tx.kind is TxKind.CREATE:
                self.create_evidence(tx.issuer, tx.evidence_id,
                                     tx.description or "", ledger_time)
            elif tx.kind is TxKind.TRANSFER:
                assert tx.new_owner is not None
                self.transfer(tx.issuer, tx.evidence_id, tx.new_owner, ledger_time)
            else:
                self.remove_evidence(tx.issuer, tx.evidence_id)
        except LedgerError as err:
            return Receipt(tx.uid, _REASON_BY_ERROR[type(err)], tx.gas)
        return Receipt(tx.uid, None, tx.gas)

    def validate(self, tx: Transaction) -> Optional[RevertReason]:
        """Dry-run a transaction against the current state."""
        scratch = self.copy()
        return scratch.apply(tx, 0.0).reason

    def copy(self) -> "LedgerState":
        other = LedgerState()
        other.evidences = copy.deepcopy(self.evidences)
        return other

    def _existing(self, evidence_id: EvidenceId) -> EvidenceEntry:
        entry = self.evidences.get(evidence_id)
        if entry is None:
            raise EvidenceNotFound(evidence_id.hex)
        return entry

    def __len__(self):
        return len(self.evidences)
