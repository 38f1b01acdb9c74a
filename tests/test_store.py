import contextlib
import errno
import hashlib
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 multiple, rule)

from custodysim import store as store_module
from custodysim.ledger import (REVERT_ERRORS, Address, EvidenceAlreadyExists,
                               EvidenceId, EvidenceNotFound, LedgerError,
                               NotCreator, NotOwner, RevertReason, create_tx,
                               remove_tx, transfer_tx)
from custodysim.store import (EmptyEvidence, EvidenceStore, Frontend,
                              IdCollision, IntegrityViolation,
                              LocalLedgerClient, generate_id, open_custody)
from crashes import Crash, crash_at
from naive_ledger import NaiveLedger, state_snapshot

ALICE = Address.from_label("alice")
BOB = Address.from_label("bob")
CAROL = Address.from_label("carol")


def _stored(blob: bytes, nonce: int) -> bytes:
    """What a blob file holds: blob ‖ nonce."""
    return blob + nonce.to_bytes(8, "big")


@pytest.fixture
def store(tmp_path):
    return EvidenceStore(tmp_path / "store")


@pytest.fixture
def frontend(store):
    return Frontend(store, LocalLedgerClient(), seed=7)


class TestGenerateId:
    def test_deterministic(self):
        assert generate_id(b"abc", 5) == generate_id(b"abc", 5)

    def test_nonce_disambiguates_identical_blobs(self):
        assert generate_id(b"abc", 1) != generate_id(b"abc", 2)

    def test_matches_manual_hash(self):
        expected = hashlib.sha256(b"blob" + (9).to_bytes(8, "big")).digest()
        assert generate_id(b"blob", 9).value == expected

    def test_empty_blob_rejected(self):
        with pytest.raises(EmptyEvidence):
            generate_id(b"", 0)


class TestEvidenceStore:
    def test_put_get_roundtrip(self, store):
        eid = generate_id(b"payload", 3)
        store.put(eid, 3, b"payload")
        assert store.read(eid) == _stored(b"payload", 3)
        assert eid in store

    def test_duplicate_put_rejected(self, store):
        eid = generate_id(b"x", 1)
        store.put(eid, 1, b"x")
        with pytest.raises(IdCollision):
            store.put(eid, 1, b"x")

    def test_missing_id(self, store):
        with pytest.raises(EvidenceNotFound):
            store.read(generate_id(b"nope", 0))

    def test_delete(self, store):
        eid = generate_id(b"x", 1)
        store.put(eid, 1, b"x")
        store.delete(eid)
        assert eid not in store
        assert not (store.root / f"{eid.hex}.bin").exists()

    def test_ids_survive_reopen(self, tmp_path):
        root = tmp_path / "s"
        first = EvidenceStore(root)
        eid = generate_id(b"persist me", 42)
        first.put(eid, 42, b"persist me")
        second = EvidenceStore(root)
        assert second.read(eid) == _stored(b"persist me", 42)
        assert second.ids() == [eid]

    def test_a_short_read_is_continued(self, store, monkeypatch):
        # a single read returns at most about 2 GiB; here at most 3 bytes
        eid = generate_id(b"payload", 3)
        store.put(eid, 3, b"payload")
        real_read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: real_read(fd, min(n, 3)))
        assert store.read(eid) == _stored(b"payload", 3)


_KEYS = st.integers(0, 5)
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("put"), _KEYS, st.integers(0, 2 ** 64 - 1)),
    st.tuples(st.just("delete"), _KEYS),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("litter"), _KEYS, st.sampled_from(
        ["{}.bin.tmp", "{}.BIN", "x{}.bin", "{:.63}.bin", "notes.bin"]))),
    max_size=30)


@given(steps=_STEPS)
@settings(deadline=None)
def test_store_matches_dict_model(steps):
    """Puts, deletes, reopens and files that are not blob files, against
    a plain dict; the directory holds exactly the model's blob files."""
    eids = [EvidenceId.from_int(k + 1) for k in range(6)]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        store, model = EvidenceStore(root), {}
        for step in steps:
            if step[0] == "put":
                eid, blob = eids[step[1]], b"blob-%d" % step[1]
                if eid in model:
                    with pytest.raises(IdCollision):
                        store.put(eid, step[2], blob)
                else:
                    store.put(eid, step[2], blob)
                    model[eid] = (blob, step[2])
            elif step[0] == "delete":
                eid = eids[step[1]]
                if eid in model:
                    store.delete(eid)
                    del model[eid]
                else:
                    with pytest.raises(EvidenceNotFound):
                        store.delete(eid)
            else:
                if step[0] == "litter":
                    name = step[2].format(eids[step[1]].hex)
                    (root / name).write_bytes(b"x")
                store = EvidenceStore(root)
            assert store.ids() == sorted(model)
            assert set(store) == set(model)
            assert {path.name: path.read_bytes()
                    for path in root.glob("*.bin")
                    if re.fullmatch(r"[0-9a-f]{64}\.bin", path.name)} == {
                f"{eid.hex}.bin": _stored(blob, nonce)
                for eid, (blob, nonce) in model.items()}
            for eid in eids:
                assert (eid in store) == (eid in model)
                if eid in model:
                    assert store.read(eid) == _stored(*model[eid])
                else:
                    with pytest.raises(EvidenceNotFound):
                        store.read(eid)


class TestSubmitEvidence:
    def test_creates_ledger_entry_and_blob(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"disk image", "laptop")
        entry = frontend.client.get_entry(eid)
        assert entry.creator == ALICE and entry.owner == ALICE
        assert frontend.store.read(eid)[:-8] == b"disk image"

    def test_identical_blobs_get_distinct_ids(self, frontend):
        a = frontend.submit_evidence(ALICE, b"same bytes", "one")
        b = frontend.submit_evidence(ALICE, b"same bytes", "two")
        assert a != b

    def test_empty_blob_rejected(self, frontend):
        with pytest.raises(EmptyEvidence):
            frontend.submit_evidence(ALICE, b"", "nothing")

    def test_collision_retry_with_degenerate_hash(self, store):
        # constant hash: first submit wins, retries exhaust, second fails
        frontend = Frontend(store, LocalLedgerClient(), seed=1,
                            hash_func=lambda data: b"\x07" * 32)
        frontend.submit_evidence(ALICE, b"first", "a")
        with pytest.raises(IdCollision):
            frontend.submit_evidence(ALICE, b"second", "b")

    def test_id_taken_on_ledger_only_raises_typed_error(self, store):
        # the id is already registered on the ledger, but no blob for it
        # is in this store: the create reverts and its blob is removed
        taken = EvidenceId(b"\x07" * 32)
        frontend = Frontend(store, LocalLedgerClient(), seed=1,
                            hash_func=lambda data: taken.value)
        assert frontend.client.state.apply(
            create_tx(0, BOB, taken, "elsewhere", 0.0), 0.0).succeeded
        with pytest.raises(EvidenceAlreadyExists):
            frontend.submit_evidence(ALICE, b"blob", "a")
        assert taken not in store
        assert not list(store.root.glob("*.bin"))

    def test_retry_skips_taken_nonce(self, store):
        # hash ignores the blob, so ids depend on the nonce alone; a
        # second submit must retry past any nonce already in the store
        calls = []

        def nonce_hash(data):
            calls.append(data)
            return hashlib.sha256(data[-8:]).digest()

        frontend = Frontend(store, LocalLedgerClient(), seed=5,
                            hash_func=nonce_hash)
        a = frontend.submit_evidence(ALICE, b"blob-a", "a")
        b = frontend.submit_evidence(ALICE, b"blob-b", "b")
        assert a != b


class TestAcquire:
    def test_owner_gets_bytes_back(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"original", "d")
        assert frontend.acquire_evidence(ALICE, eid) == b"original"

    def test_non_owner_rejected(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"original", "d")
        with pytest.raises(NotOwner):
            frontend.acquire_evidence(BOB, eid)

    def test_new_owner_after_transfer(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"original", "d")
        frontend.transfer_evidence(ALICE, eid, BOB)
        assert frontend.acquire_evidence(BOB, eid) == b"original"
        with pytest.raises(NotOwner):
            frontend.acquire_evidence(ALICE, eid)

    def test_tampered_blob_detected(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"original", "d")
        (frontend.store.root / f"{eid.hex}.bin").write_bytes(b"doctored")
        with pytest.raises(IntegrityViolation):
            frontend.acquire_evidence(ALICE, eid)

    @pytest.mark.parametrize("size", [0, 8])
    def test_file_too_short_for_a_blob_is_tampered(self, frontend, size):
        # the nonce takes the last 8 bytes, which leaves no blob to hash
        eid = frontend.submit_evidence(ALICE, b"original", "d")
        path = frontend.store.root / f"{eid.hex}.bin"
        path.write_bytes(b"doctored"[:size])
        with pytest.raises(IntegrityViolation, match="no longer match"):
            frontend.acquire_evidence(ALICE, eid)
        assert frontend.verify() == [
            f"stored bytes for {eid.hex} no longer match their id"]

    def test_unknown_id(self, frontend):
        with pytest.raises(EvidenceNotFound):
            frontend.acquire_evidence(ALICE, generate_id(b"ghost", 0))

    @given(blob=st.binary(min_size=1, max_size=64),
           nonce=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_one_hash_of_exactly_the_stored_bytes(self, blob, nonce):
        calls, digests = [], []

        def recording(data):
            calls.append(data)
            digests.append(hashlib.sha256(data).digest())
            return digests[-1]

        eid = generate_id(blob, nonce)
        client = LocalLedgerClient()
        client.submit(create_tx(1, ALICE, eid, "d", 0.0))
        with tempfile.TemporaryDirectory() as tmp:
            store = EvidenceStore(Path(tmp))
            store.put(eid, nonce, blob)
            frontend = Frontend(store, client, hash_func=recording)
            assert frontend.acquire_evidence(ALICE, eid) == blob
            assert store.read(eid) == _stored(blob, nonce)
        assert calls == [_stored(blob, nonce)]
        assert type(calls[0]) is bytes
        assert digests == [eid.value]

    def test_refusals_do_not_read_the_file(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"original", "d")
        orphan = generate_id(b"orphan", 0)
        frontend.store.put(orphan, 0, b"orphan")
        for evidence_id in (eid, orphan):
            (frontend.store.root / f"{evidence_id.hex}.bin").unlink()
        with pytest.raises(NotOwner):
            frontend.acquire_evidence(BOB, eid)
        for unknown in (orphan, generate_id(b"ghost", 0)):
            with pytest.raises(EvidenceNotFound):
                frontend.acquire_evidence(ALICE, unknown)
        # the owner's acquisition does read it
        with pytest.raises(FileNotFoundError):
            frontend.acquire_evidence(ALICE, eid)


class TestTransferAndDiscard:
    def test_transfer_chain_recorded(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"x", "d")
        frontend.transfer_evidence(ALICE, eid, BOB)
        frontend.transfer_evidence(BOB, eid, CAROL)
        entry = frontend.client.get_entry(eid)
        assert entry.taddr == [ALICE, BOB, CAROL]

    def test_non_owner_transfer_rejected(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"x", "d")
        with pytest.raises(NotOwner):
            frontend.transfer_evidence(BOB, eid, CAROL)

    def test_creator_discards(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"x", "d")
        frontend.transfer_evidence(ALICE, eid, BOB)
        frontend.discard_evidence(ALICE, eid)
        assert eid not in frontend.store
        with pytest.raises(EvidenceNotFound):
            frontend.client.get_entry(eid)

    def test_non_creator_discard_keeps_blob(self, frontend):
        eid = frontend.submit_evidence(ALICE, b"x", "d")
        frontend.transfer_evidence(ALICE, eid, BOB)
        with pytest.raises(NotCreator):
            frontend.discard_evidence(BOB, eid)
        assert eid in frontend.store

    def test_referential_integrity(self, frontend):
        ids = [frontend.submit_evidence(ALICE, bytes([i]) * 10, "d")
               for i in range(1, 4)]
        assert frontend.check_referential_integrity()
        frontend.discard_evidence(ALICE, ids[1])
        assert frontend.check_referential_integrity()
        # an orphaned blob (no ledger entry) breaks the invariant
        orphan = generate_id(b"orphan", 0)
        frontend.store.put(orphan, 0, b"orphan")
        assert not frontend.check_referential_integrity()

    def test_ledger_entry_without_blob_breaks_integrity(self, frontend):
        frontend.submit_evidence(ALICE, b"kept", "d")
        assert frontend.client.state.apply(create_tx(
            0, BOB, generate_id(b"elsewhere", 0), "no blob here", 0.0),
            0.0).succeeded
        assert not frontend.check_referential_integrity()


class TestLedgerJournal:
    def test_round_trip_and_torn_last_line(self, tmp_path):
        description = "tab\there\nnew line, t\u00e9l\u00e9phone \u2116 7"
        with open_custody(tmp_path) as frontend:
            a = frontend.submit_evidence(ALICE, b"a", description)
            frontend.transfer_evidence(ALICE, a, BOB)
            b = frontend.submit_evidence(BOB, b"b", "")
            frontend.discard_evidence(BOB, b)
            with pytest.raises(NotOwner):  # reverts, so writes no line
                frontend.transfer_evidence(ALICE, a, CAROL)
            before = state_snapshot(frontend.client.state)
        journal = tmp_path / "ledger.jsonl"
        assert journal.read_bytes().isascii()
        assert len(journal.read_bytes().splitlines()) == 4
        with open_custody(tmp_path) as frontend:
            assert state_snapshot(frontend.client.state) == before
            assert frontend.client.get_entry(a).description == description
            assert frontend.client.now() == 4.0
            frontend.transfer_evidence(BOB, a, CAROL)
        whole = journal.read_bytes()
        journal.write_bytes(whole[:-20])  # the transfer's append was cut
        with open_custody(tmp_path) as frontend:
            assert journal.read_bytes() == whole[:whole.rindex(b"{")]
            assert state_snapshot(frontend.client.state) == before
            frontend.transfer_evidence(BOB, a, ALICE)
            assert frontend.client.now() == 5.0
        with open_custody(tmp_path) as frontend:
            entry = frontend.client.get_entry(a)
            assert entry.taddr == [ALICE, BOB, ALICE]
            assert entry.ttime == [1.0, 2.0, 5.0]
            assert frontend.client.next_uid() == 6
            assert frontend.check_referential_integrity()


@pytest.mark.parametrize("tear", [False, True])
def test_failed_ledger_append_leaves_no_trace(tmp_path, tear):
    # a create whose ledger line fails, then more work in the same session
    with open_custody(tmp_path) as frontend:
        kept = frontend.submit_evidence(ALICE, b"kept", "")
        with crash_at(2, tear) as appended, pytest.raises(Crash):
            frontend.submit_evidence(ALICE, b"lost", "")
        assert appended == []
        assert frontend.client.evidence_ids() == [kept]
        frontend.transfer_evidence(ALICE, kept, BOB)
        frontend.submit_evidence(BOB, b"later", "")
        before = state_snapshot(frontend.client.state)
    with open_custody(tmp_path) as frontend:
        assert state_snapshot(frontend.client.state) == before
        assert frontend.check_referential_integrity()
        assert frontend.verify() == []


def test_full_disk_on_ledger_append_removes_the_blob(tmp_path, monkeypatch):
    # unlike a crash, a failed append leaves the process running
    real = store_module._append_line

    def append(path, line):
        if path.name == store_module.LEDGER:
            raise OSError(errno.ENOSPC, "No space left on device")
        real(path, line)

    monkeypatch.setattr(store_module, "_append_line", append)
    with open_custody(tmp_path) as frontend:
        with pytest.raises(OSError):
            frontend.submit_evidence(ALICE, b"lost", "")
        assert frontend.client.evidence_ids() == []
        assert frontend.check_referential_integrity()
        assert frontend.verify() == []
        assert not list(tmp_path.glob("*.bin"))


_USERS = st.sampled_from([ALICE, BOB, CAROL])
_BLOBS = st.binary(min_size=1, max_size=8)


class CustodyMachine(RuleBasedStateMachine):
    """Frontend over a journaled ledger against NaiveLedger, with crashes.

    A crash stops an operation at one of its file writes, and the store
    is reopened as a new process would. The operation committed exactly
    when its ledger line was written whole.
    """

    ids = Bundle("ids")

    def __init__(self):
        super().__init__()
        self.tmp = tempfile.TemporaryDirectory()
        self.root = Path(self.tmp.name)
        self.model = NaiveLedger()
        self.session = contextlib.ExitStack()
        self.frontend = self.session.enter_context(open_custody(self.root))

    def teardown(self):
        self.session.close()
        self.tmp.cleanup()

    @rule()
    def reopen(self):
        self.session.close()
        self.frontend = self.session.enter_context(open_custody(self.root))

    def _operation(self, kind, issuer, evidence_id, new_owner, blob,
                   description):
        """(run, tx) for one operation; a create's tx needs its new id."""
        fe = self.frontend
        if kind == "create":
            return (lambda: fe.submit_evidence(issuer, blob, description),
                    lambda eid: create_tx(0, issuer, eid, description, 0.0))
        if kind == "transfer":
            return (lambda: fe.transfer_evidence(issuer, evidence_id, new_owner),
                    lambda _: transfer_tx(0, issuer, evidence_id, new_owner, 0.0))
        return (lambda: fe.discard_evidence(issuer, evidence_id),
                lambda _: remove_tx(0, issuer, evidence_id, 0.0))

    @rule(target=ids, issuer=_USERS, blob=_BLOBS, description=st.text(max_size=8))
    def create(self, issuer, blob, description):
        run, tx = self._operation("create", issuer, None, None, blob,
                                  description)
        evidence_id = run()
        assert self.model.apply(tx(evidence_id), self.frontend.client.now()) is None
        return evidence_id

    @rule(kind=st.sampled_from(["transfer", "discard"]), issuer=_USERS,
          evidence_id=ids, new_owner=_USERS)
    def transfer_or_discard(self, kind, issuer, evidence_id, new_owner):
        run, tx = self._operation(kind, issuer, evidence_id, new_owner, None, "")
        try:
            run()
            reason = None
        except LedgerError as err:
            reason = RevertReason(str(err))
            assert type(err) is REVERT_ERRORS[reason]
            reason = reason.value
        assert self.model.apply(tx(None), self.frontend.client.now()) == reason

    @rule(target=ids, kind=st.sampled_from(["create", "transfer", "discard"]),
          step=st.integers(1, 3), tear=st.booleans(), issuer=_USERS,
          evidence_id=ids, new_owner=_USERS, blob=_BLOBS,
          description=st.text(max_size=8))
    def crash(self, kind, step, tear, issuer, evidence_id, new_owner, blob,
              description):
        run, tx = self._operation(kind, issuer, evidence_id, new_owner, blob,
                                  description)
        before = set(self.frontend.client.evidence_ids())
        with crash_at(step, tear) as appended:
            try:
                run()
            except (Crash, LedgerError):
                pass
        self.reopen()
        if store_module.LEDGER not in appended:
            return multiple()
        created = set(self.frontend.client.evidence_ids()) - before
        new_id = created.pop() if created else None
        assert self.model.apply(tx(new_id), self.frontend.client.now()) is None
        return multiple(*([new_id] if new_id else []))

    @invariant()
    def matches_the_naive_ledger(self):
        assert state_snapshot(self.frontend.client.state) == self.model.snapshot()

    @invariant()
    def store_and_ledger_agree(self):
        assert self.frontend.check_referential_integrity()
        assert self.frontend.verify() == []
        assert {p.stem for p in self.root.glob("*.bin")} == \
            {eid.hex for eid in self.frontend.store.ids()}


CustodyMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=15, deadline=None)
TestCustodyMachine = CustodyMachine.TestCase
