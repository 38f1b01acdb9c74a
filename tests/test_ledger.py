import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from custodysim import ledger
from custodysim.ledger import (Address, DescriptionTooLong,
                               EvidenceAlreadyExists, EvidenceNotFound,
                               EvidenceId, InvalidDescriptionLength, InvalidId,
                               LedgerState, NotCreator, NotOwner, RevertReason,
                               TxKind, ZERO_ID, create_tx, remove_tx,
                               transfer_tx, tx_gas, tx_size)

from conftest import random_ops
from naive_ledger import NaiveLedger


class TestCreate:
    def test_first_create(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "laptop disk image", 1.0)
        entry = state.get_evidence(ids[0])
        assert entry.creator == addrs[0]
        assert entry.owner == addrs[0]
        assert entry.taddr == [addrs[0]]
        assert entry.ttime == [1.0]

    def test_duplicate_create_rejected(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        with pytest.raises(EvidenceAlreadyExists):
            state.create_evidence(addrs[1], ids[0], "", 2.0)

    def test_zero_id_rejected(self, addrs):
        state = LedgerState()
        with pytest.raises(InvalidId):
            state.create_evidence(addrs[0], ZERO_ID, "", 1.0)

    def test_description_too_long(self, addrs, ids):
        state = LedgerState()
        with pytest.raises(DescriptionTooLong):
            state.create_evidence(addrs[0], ids[0], "x" * 1025, 1.0)
        state.create_evidence(addrs[0], ids[0], "x" * 1024, 1.0)


class TestTransfer:
    def test_single_handover(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        state.transfer(addrs[0], ids[0], addrs[1], 2.0)
        entry = state.get_evidence(ids[0])
        assert entry.owner == addrs[1]
        assert entry.taddr == [addrs[0], addrs[1]]

    def test_non_owner_rejected(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        with pytest.raises(NotOwner):
            state.transfer(addrs[1], ids[0], addrs[2], 2.0)

    def test_unknown_id(self, addrs, ids):
        with pytest.raises(EvidenceNotFound):
            LedgerState().transfer(addrs[0], ids[0], addrs[1], 1.0)


class TestRemove:
    def test_creator_removes_after_transfer(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        state.transfer(addrs[0], ids[0], addrs[1], 2.0)
        state.remove_evidence(addrs[0], ids[0])
        with pytest.raises(EvidenceNotFound):
            state.get_evidence(ids[0])

    def test_owner_but_not_creator_rejected(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        state.transfer(addrs[0], ids[0], addrs[1], 2.0)
        with pytest.raises(NotCreator):
            state.remove_evidence(addrs[1], ids[0])

    def test_recreate_after_removal(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        state.remove_evidence(addrs[0], ids[0])
        state.create_evidence(addrs[1], ids[0], "second life", 3.0)
        assert state.get_evidence(ids[0]).creator == addrs[1]


class TestGetEvidence:
    def test_three_op_history(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        state.transfer(addrs[0], ids[0], addrs[1], 2.0)
        state.transfer(addrs[1], ids[0], addrs[2], 3.0)
        entry = state.get_evidence(ids[0])
        assert entry.taddr == [addrs[0], addrs[1], addrs[2]]
        assert entry.ttime == sorted(entry.ttime)
        assert len(entry.ttime) == 3

    def test_returns_copy(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        state.get_evidence(ids[0]).taddr.append(addrs[3])
        assert state.get_evidence(ids[0]).taddr == [addrs[0]]

    def test_returned_history_and_owner_are_isolated(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
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


class TestApplyTransaction:
    def test_valid_transfer(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        receipt = state.apply(transfer_tx(1, addrs[0], ids[0], addrs[1], 1.5), 2.0)
        assert receipt.succeeded
        assert state.get_evidence(ids[0]).owner == addrs[1]
        # ttime records the ledger (block) time, not the issue time
        assert state.get_evidence(ids[0]).ttime[-1] == 2.0

    def test_revert_leaves_state_unchanged(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        before = state.copy()
        receipt = state.apply(transfer_tx(1, addrs[1], ids[0], addrs[2], 1.5), 2.0)
        assert receipt.reason is RevertReason.NOT_OWNER
        assert state.evidences.keys() == before.evidences.keys()
        assert state.get_evidence(ids[0]).owner == before.get_evidence(ids[0]).owner

    def test_gas_charged_on_revert(self, addrs, ids):
        state = LedgerState()
        state.create_evidence(addrs[0], ids[0], "", 1.0)
        tx = create_tx(1, addrs[1], ids[0], "dup", 1.5)
        receipt = state.apply(tx, 2.0)
        assert receipt.reason is RevertReason.EVIDENCE_EXISTS
        assert receipt.gas_charged == tx.gas


def _entry_invariants(state):
    for entry in state.evidences.values():
        assert not entry.id.is_zero()
        assert len(entry.taddr) == len(entry.ttime) >= 1
        assert entry.taddr[0] == entry.creator
        assert entry.taddr[-1] == entry.owner
        assert entry.ttime == sorted(entry.ttime)


def _state_snapshot(state):
    return sorted(
        (e.id.value, e.creator.value, e.owner.value, e.description,
         tuple(a.value for a in e.taddr), tuple(e.ttime))
        for e in state.evidences.values())


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
            assert _state_snapshot(state) == reference.snapshot()
        _entry_invariants(state)

    @given(st.integers(0, 2 ** 32), st.integers(10, 120))
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_under_random_workloads(self, seed, n_ops):
        rng = random.Random(seed)
        state = LedgerState()
        for tx in random_ops(rng, n_ops):
            state.apply(tx, tx.issue_time)
            _entry_invariants(state)
