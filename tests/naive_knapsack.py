"""Deliberately naive unbounded-knapsack reference: the classic O(n*G)
capacity-axis table. Used as an independent oracle for
analytics.ukp_max_value."""
from __future__ import annotations


def ukp_max_value_dense(capacity, items):
    """Most bytes that items (repeatable, each with .gas and .size) fit
    into capacity gas."""
    best = [0] * (capacity + 1)
    for w in range(1, capacity + 1):
        b = best[w - 1]
        for it in items:
            if it.gas <= w:
                cand = best[w - it.gas] + it.size
                if cand > b:
                    b = cand
        best[w] = b
    return best[capacity] if capacity >= 0 else 0


def min_gas_dense(vmax, items):
    """Least gas of items (repeatable) whose sizes sum to exactly v bytes,
    for v = 0..vmax, and None where no items sum to v."""
    best = [0] + [None] * vmax
    for v in range(1, vmax + 1):
        for it in items:
            if it.size <= v and best[v - it.size] is not None:
                cand = best[v - it.size] + it.gas
                if best[v] is None or cand < best[v]:
                    best[v] = cand
    return best
