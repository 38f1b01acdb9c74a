import pickle
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from custodysim import ledger
from custodysim.ledger import (Address, DescriptionTooLong, EvidenceNotFound,
                               EvidenceId, InvalidDescriptionLength,
                               LedgerError, LedgerState,
                               MAX_DESCRIPTION_LEN, REVERT_ERRORS,
                               RevertReason, TxKind, ZERO_ID,
                               create_tx, remove_tx, transfer_tx, tx_gas,
                               tx_size)

from conftest import random_ops
from naive_ledger import NaiveLedger, state_snapshot


def _create(state, issuer, evidence_id, time, description=""):
    """Apply a create; return its revert reason, None if it committed."""
    return state.apply(create_tx(0, issuer, evidence_id, description, time),
                       time).reason


def _transfer(state, issuer, evidence_id, new_owner, time):
    return state.apply(transfer_tx(0, issuer, evidence_id, new_owner, time),
                       time).reason


def _remove(state, issuer, evidence_id, time):
    return state.apply(remove_tx(0, issuer, evidence_id, time), time).reason


class TestCreate:
    def test_first_create(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0, "laptop disk image") is None
        entry = state.get_evidence(ids[0])
        assert entry.creator == addrs[0]
        assert entry.owner == addrs[0]
        assert entry.taddr == [addrs[0]]
        assert entry.ttime == [1.0]

    def test_duplicate_create_rejected(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        assert _create(state, addrs[1], ids[0], 2.0) is \
            RevertReason.EVIDENCE_EXISTS
        assert state.get_evidence(ids[0]).creator == addrs[0]

    def test_zero_id_rejected(self, addrs):
        state = LedgerState()
        assert _create(state, addrs[0], ZERO_ID, 1.0) is RevertReason.INVALID_ID
        assert len(state) == 0

    def test_description_too_long(self, addrs, ids):
        state = LedgerState()
        # create_tx refuses such a description, so build the tx around it
        tx = replace(create_tx(1, addrs[0], ids[0], "", 1.0),
                     description="x" * 1025)
        assert state.apply(tx, 1.0).reason is RevertReason.DESCRIPTION_TOO_LONG
        assert len(state) == 0
        assert _create(state, addrs[0], ids[0], 1.0, "x" * 1024) is None


class TestTransfer:
    def test_single_handover(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        assert _transfer(state, addrs[0], ids[0], addrs[1], 2.0) is None
        entry = state.get_evidence(ids[0])
        assert entry.owner == addrs[1]
        assert entry.taddr == [addrs[0], addrs[1]]

    def test_non_owner_rejected(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        assert _transfer(state, addrs[1], ids[0], addrs[2], 2.0) is \
            RevertReason.NOT_OWNER
        assert state.get_evidence(ids[0]).taddr == [addrs[0]]

    def test_unknown_id(self, addrs, ids):
        assert _transfer(LedgerState(), addrs[0], ids[0], addrs[1], 1.0) is \
            RevertReason.EVIDENCE_NOT_FOUND


class TestRemove:
    def test_creator_removes_after_transfer(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        assert _transfer(state, addrs[0], ids[0], addrs[1], 2.0) is None
        assert _remove(state, addrs[0], ids[0], 3.0) is None
        with pytest.raises(EvidenceNotFound):
            state.get_evidence(ids[0])

    def test_owner_but_not_creator_rejected(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        assert _transfer(state, addrs[0], ids[0], addrs[1], 2.0) is None
        assert _remove(state, addrs[1], ids[0], 3.0) is RevertReason.NOT_CREATOR
        assert state.get_evidence(ids[0]).owner == addrs[1]

    def test_recreate_after_removal(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        assert _remove(state, addrs[0], ids[0], 2.0) is None
        assert _create(state, addrs[1], ids[0], 3.0, "second life") is None
        assert state.get_evidence(ids[0]).creator == addrs[1]


class TestGetEvidence:
    def test_three_op_history(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        assert _transfer(state, addrs[0], ids[0], addrs[1], 2.0) is None
        assert _transfer(state, addrs[1], ids[0], addrs[2], 3.0) is None
        entry = state.get_evidence(ids[0])
        assert entry.taddr == [addrs[0], addrs[1], addrs[2]]
        assert entry.ttime == sorted(entry.ttime)
        assert len(entry.ttime) == 3

    def test_returns_copy(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        state.get_evidence(ids[0]).taddr.append(addrs[3])
        assert state.get_evidence(ids[0]).taddr == [addrs[0]]

    def test_returned_history_and_owner_are_isolated(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        copy = state.get_evidence(ids[0])
        copy.ttime.append(9.0)
        copy.owner = addrs[3]
        entry = state.get_evidence(ids[0])
        assert entry.ttime == [1.0]
        assert entry.owner == addrs[0]


class TestCostModel:
    @pytest.mark.parametrize("kind,length,gas,size", [
        (TxKind.TRANSFER, 0, 80502, 174),
        (TxKind.REMOVE, 0, 236478, 142),
        (TxKind.CREATE, 0, 170207, 207),
        (TxKind.CREATE, 1024, 897367, 1233),
    ])
    def test_anchor_values(self, kind, length, gas, size):
        assert tx_gas(kind, length) == gas
        assert tx_size(kind, length) == size

    def test_midpoint_interpolation(self):
        # recomputed from the interpolation formula with exact rationals
        gas = Fraction(170207) + Fraction(512) * Fraction(897367 - 170207, 1024)
        size = Fraction(207) + Fraction(512) * Fraction(1233 - 207, 1024)
        assert gas == 533787 and size == 720
        assert ledger.create_gas(512) == 533787
        assert ledger.create_size(512) == 720

    @given(st.integers(min_value=0, max_value=1023))
    def test_monotone_in_length(self, l):
        assert ledger.create_gas(l + 1) >= ledger.create_gas(l)
        assert ledger.create_size(l + 1) >= ledger.create_size(l)

    @pytest.mark.parametrize("length", [-1, 1025])
    def test_invalid_length(self, length):
        with pytest.raises(InvalidDescriptionLength):
            ledger.create_gas(length)
        with pytest.raises(InvalidDescriptionLength):
            ledger.create_size(length)

    def test_tx_construction_checks_length(self, addrs, ids):
        with pytest.raises(DescriptionTooLong):
            create_tx(1, addrs[0], ids[0], "x" * 1025, 0.0)

    def test_create_cost_matches_the_closed_form_at_every_length(self):
        for length in range(MAX_DESCRIPTION_LEN + 1):
            assert ledger.create_gas(length) == 170207 + (
                length * (897367 - 170207) + 512) // 1024
            assert ledger.create_size(length) == 207 + (
                length * (1233 - 207) + 512) // 1024


class TestIds:
    """Address and EvidenceId share one definition but stay two types."""

    @pytest.mark.parametrize("cls,size,word", [
        (Address, 20, "address"), (EvidenceId, 32, "evidence id")])
    def test_width_is_checked_on_every_construction(self, cls, size, word):
        for value in (b"", b"\x01" * (size - 1), b"\x01" * (size + 1)):
            with pytest.raises(ValueError) as raised:
                cls(value)
            assert str(raised.value) == f"{word} must be exactly {size} bytes"
        with pytest.raises(ValueError):
            cls.from_hex("ab" * (size + 1))
        assert cls.from_int(1).value == b"\x00" * (size - 1) + b"\x01"
        assert cls.from_hex("ab" * size).hex == "ab" * size

    def test_reprs_name_the_class_and_its_bytes(self):
        assert repr(Address.from_int(1)) == \
            "Address(value=b'" + "\\x00" * 19 + "\\x01')"
        assert repr(EvidenceId.from_int(1)) == \
            "EvidenceId(value=b'" + "\\x00" * 31 + "\\x01')"

    def test_the_two_types_never_mix(self):
        address, evidence_id = Address(b"\x01" * 20), EvidenceId(b"\x01" * 32)
        assert address != evidence_id and evidence_id != address
        assert Address.from_int(7) != EvidenceId.from_int(7)
        with pytest.raises(TypeError):
            address < evidence_id
        with pytest.raises(TypeError):
            evidence_id <= address

    def test_order_hash_and_pickle_follow_the_bytes(self):
        assert Address.from_int(1) < Address.from_int(2)
        assert sorted([EvidenceId.from_int(3), EvidenceId.from_int(1)]) == \
            [EvidenceId.from_int(1), EvidenceId.from_int(3)]
        for value in (Address.from_int(5), EvidenceId.from_int(5)):
            assert hash(value) == hash(type(value)(value.value))
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value and type(copy) is type(value)

    def test_ids_are_frozen(self):
        with pytest.raises(FrozenInstanceError):
            Address.from_int(1).value = b"\x02" * 20
        with pytest.raises(FrozenInstanceError):
            EvidenceId.from_int(1).value = b"\x02" * 32


class TestApplyTransaction:
    def test_valid_transfer(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        receipt = state.apply(transfer_tx(1, addrs[0], ids[0], addrs[1], 1.5), 2.0)
        assert receipt.succeeded
        assert state.get_evidence(ids[0]).owner == addrs[1]
        # ttime records the ledger (block) time, not the issue time
        assert state.get_evidence(ids[0]).ttime[-1] == 2.0

    def test_revert_leaves_state_unchanged(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        before = state_snapshot(state)
        receipt = state.apply(transfer_tx(1, addrs[1], ids[0], addrs[2], 1.5), 2.0)
        assert receipt.reason is RevertReason.NOT_OWNER
        assert state_snapshot(state) == before

    def test_gas_charged_on_revert(self, addrs, ids):
        state = LedgerState()
        assert _create(state, addrs[0], ids[0], 1.0) is None
        tx = create_tx(1, addrs[1], ids[0], "dup", 1.5)
        receipt = state.apply(tx, 2.0)
        assert receipt.reason is RevertReason.EVIDENCE_EXISTS
        assert receipt.gas_charged == tx.gas

    def test_every_reason_has_one_error(self):
        assert set(REVERT_ERRORS) == set(RevertReason)
        errors = list(REVERT_ERRORS.values())
        assert len(set(errors)) == len(errors)
        assert all(issubclass(error, LedgerError) for error in errors)


def _entry_invariants(state):
    for entry in state.evidences.values():
        assert not entry.id.is_zero()
        assert len(entry.taddr) == len(entry.ttime) >= 1
        assert entry.taddr[0] == entry.creator
        assert entry.taddr[-1] == entry.owner
        assert entry.ttime == sorted(entry.ttime)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_sequences_match_reference(self, seed):
        rng = random.Random(seed)
        txs = random_ops(rng, rng.randrange(20, 200))
        state, reference = LedgerState(), NaiveLedger()
        for tx in txs:
            receipt = state.apply(tx, tx.issue_time)
            expected = reference.apply(tx, tx.issue_time)
            got = None if receipt.succeeded else receipt.reason.value
            assert got == expected
            assert state_snapshot(state) == reference.snapshot()
        _entry_invariants(state)

    @given(st.integers(0, 2 ** 32), st.integers(10, 120))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_under_random_workloads(self, seed, n_ops):
        rng = random.Random(seed)
        state = LedgerState()
        for tx in random_ops(rng, n_ops):
            state.apply(tx, tx.issue_time)
            _entry_invariants(state)


_ADDRS = st.sampled_from([Address.from_int(i) for i in range(1, 4)])
_IDS = st.sampled_from([ZERO_ID] + [EvidenceId.from_int(i) for i in range(1, 4)])


class LedgerMachine(RuleBasedStateMachine):
    """LedgerState alone against NaiveLedger, one transaction per step.

    Before each apply, validate must give the reference's verdict and
    change nothing; apply must then give that verdict too.
    """

    def __init__(self):
        super().__init__()
        self.state, self.model = LedgerState(), NaiveLedger()
        self.time = 0.0

    def _check_and_apply(self, tx):
        self.time += 1.0
        before = state_snapshot(self.state)
        reason = self.state.validate(tx)
        assert state_snapshot(self.state) == before
        expected = self.model.apply(tx, self.time)
        assert (reason and reason.value) == expected
        receipt = self.state.apply(tx, self.time)
        assert receipt.reason is reason
        assert receipt.gas_charged == tx.gas

    @rule(issuer=_ADDRS, evidence_id=_IDS,
          description=st.sampled_from(["", "d", "x" * 1024, "x" * 1025]))
    def create(self, issuer, evidence_id, description):
        # create_tx refuses an over-long description; the ledger must too
        tx = create_tx(0, issuer, evidence_id, description[:1024], self.time)
        self._check_and_apply(replace(tx, description=description))

    @rule(issuer=_ADDRS, evidence_id=_IDS, new_owner=_ADDRS)
    def transfer(self, issuer, evidence_id, new_owner):
        self._check_and_apply(
            transfer_tx(0, issuer, evidence_id, new_owner, self.time))

    @rule(issuer=_ADDRS, evidence_id=_IDS)
    def remove(self, issuer, evidence_id):
        self._check_and_apply(remove_tx(0, issuer, evidence_id, self.time))

    @invariant()
    def matches_the_naive_ledger(self):
        assert state_snapshot(self.state) == self.model.snapshot()
        _entry_invariants(self.state)


LedgerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
TestLedgerMachine = LedgerMachine.TestCase
