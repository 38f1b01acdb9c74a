"""Deliberately naive custody-ledger reference: a plain list of records
with linear scans. Used as an independent oracle for the real state
machine, including revert reasons."""
from __future__ import annotations


class NaiveLedger:
    def __init__(self):
        self.records = []  # dicts: id, creator, owner, description, taddr, ttime

    def _find(self, evidence_id):
        for rec in self.records:
            if rec["id"] == evidence_id:
                return rec
        return None

    def apply(self, tx, time):
        """Returns None on success or a reason string mirroring RevertReason."""
        kind = tx.kind.value
        if kind == "create":
            if tx.evidence_id.is_zero():
                return "invalid-id"
            if self._find(tx.evidence_id) is not None:
                return "evidence-exists"
            if len(tx.description or "") > 1024:
                return "description-too-long"
            self.records.append({
                "id": tx.evidence_id, "creator": tx.issuer, "owner": tx.issuer,
                "description": tx.description or "",
                "taddr": [tx.issuer], "ttime": [time]})
            return None
        rec = self._find(tx.evidence_id)
        if rec is None:
            return "evidence-not-found"
        if kind == "transfer":
            if tx.issuer != rec["owner"]:
                return "not-owner"
            rec["owner"] = tx.new_owner
            rec["taddr"] = rec["taddr"] + [tx.new_owner]
            rec["ttime"] = rec["ttime"] + [time]
            return None
        # remove
        if tx.issuer != rec["creator"]:
            return "not-creator"
        self.records.remove(rec)
        return None

    def snapshot(self):
        """Canonical, order-independent view of the ledger contents."""
        return sorted(
            (rec["id"].value, rec["creator"].value, rec["owner"].value,
             rec["description"],
             tuple(a.value for a in rec["taddr"]), tuple(rec["ttime"]))
            for rec in self.records)


def state_snapshot(state):
    """A LedgerState's contents in NaiveLedger.snapshot's form."""
    return sorted(
        (e.id.value, e.creator.value, e.owner.value, e.description,
         tuple(a.value for a in e.taddr), tuple(e.ttime))
        for e in state.evidences.values())
