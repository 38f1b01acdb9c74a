import random

import pytest

from custodysim.ledger import (Address, EvidenceId, create_tx, remove_tx,
                               transfer_tx)


@pytest.fixture
def addrs():
    return [Address.from_int(i) for i in range(1, 7)]


@pytest.fixture
def ids():
    return [EvidenceId.from_int(i) for i in range(1, 11)]


def random_ops(rng: random.Random, n_ops: int, n_addrs: int = 4,
               n_ids: int = 6):
    """A random mixed transaction sequence over small entity/id pools.

    Small pools make collisions (already-exists, wrong owner, removed id)
    common, so revert paths get exercised heavily.
    """
    pool_addr = [Address.from_int(i + 1) for i in range(n_addrs)]
    pool_id = [EvidenceId.from_int(i + 1) for i in range(n_ids)]
    txs = []
    for uid in range(1, n_ops + 1):
        t = float(uid)
        kind = rng.randrange(3)
        issuer = rng.choice(pool_addr)
        eid = rng.choice(pool_id)
        if kind == 0:
            txs.append(create_tx(uid, issuer, eid,
                                 "d" * rng.randrange(32), t))
        elif kind == 1:
            txs.append(transfer_tx(uid, issuer, eid, rng.choice(pool_addr), t))
        else:
            txs.append(remove_tx(uid, issuer, eid, t))
    return txs
