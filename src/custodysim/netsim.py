"""Deterministic discrete-event engine: virtual clock, one link, broadcast.

Time is purely simulated. Given the same configuration and seed, every
run fires the same sequence of events at the same times. ``Scheduler``
orders the events, and ``Network`` turns each broadcast into deliveries.
A delivery calls one callback of its recipient with the message, so no
closure is built per delivery. Besides messages in flight, the heap holds
the open period's transaction issues and the round timers due in it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

CLIENT = -1  # sender id of traffic from outside the validator set
_DROP = object()  # callback of a node that drops everything sent to it


class SchedulingInPast(Exception):
    pass


class UnknownNode(Exception):
    pass


@dataclass(frozen=True)
class LinkModel:
    """Point-to-point link: fixed bandwidth plus a constant base delay."""

    bandwidth: float  # bytes/second
    base_delay: float = 0.0

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.base_delay < 0:
            raise ValueError("base delay cannot be negative")

    def transmission_delay(self, size: int) -> float:
        if size < 0:
            raise ValueError("size cannot be negative")
        return self.base_delay + size / self.bandwidth


class Scheduler:
    """Event queue ordered by (fire time, insertion sequence).

    Heap entries are ``(fire_time, seq, action, args)`` tuples and fire as
    ``action(*args)``; ``seq`` is unique, so the comparison never reaches
    ``action``. Events at equal times fire in the order they were
    scheduled. One event may deliver a message to many nodes (see
    ``Network.broadcast``); whatever those deliveries schedule gets a
    later ``seq`` than the event itself. ``Simulation.run`` schedules
    each period's transaction issues as that period opens, so the heap
    holds one period's issues and the timers due in it, and an issue
    fires after any event at its time that was scheduled before its
    period opened. ``reserve`` takes an entry's ``seq`` and ``push`` adds
    the entry later; pushed before the clock passes its fire time, it
    fires where ``schedule`` would have fired it.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple] = []

    def schedule_at(self, fire_time: float, action: Callable, *args) -> None:
        if not fire_time >= self.now:   # a NaN time is rejected too
            raise SchedulingInPast(f"{fire_time} < now {self.now}")
        heappush(self._heap, (fire_time, self._seq, action, args))
        self._seq += 1

    def schedule(self, delay: float, action: Callable, *args) -> None:
        self.schedule_at(self.now + delay, action, *args)

    def reserve(self, delay: float, action: Callable, *args) -> tuple:
        """The entry ``schedule`` would push, with its ``seq`` taken."""
        fire_time = self.now + delay
        if not fire_time >= self.now:
            raise SchedulingInPast(f"{fire_time} < now {self.now}")
        self._seq += 1
        return (fire_time, self._seq - 1, action, args)

    def push(self, entry: tuple) -> None:
        """Put an entry from ``reserve`` on the heap."""
        heappush(self._heap, entry)

    def run_until(self, t: float) -> None:
        """Fire every event due at or before t, then advance the clock to t."""
        if not t >= self.now:
            raise SchedulingInPast(f"cannot run backwards to {t}")
        heap, pop = self._heap, heappop
        while heap and heap[0][0] <= t:
            self.now, _, action, args = pop(heap)
            action(*args)
        self.now = t

    def pending(self) -> int:
        return len(self._heap)


class Network:
    """Broadcast fabric over one link model, the slowest channel, shared
    by every pair of nodes.

    Senders are node ids, or ``CLIENT`` for traffic from outside the
    validator set, which takes the same path up to the callback it
    reaches. Each node registers two callbacks: deliver, for messages from
    nodes, and admit, for messages from ``CLIENT``. Who gets a broadcast,
    and through which callback, is fixed once the nodes are added, so the
    network builds one delivery plan per ``(sender, recipients)`` the
    first time it is broadcast (see ``_plan``), and reuses it.
    """

    def __init__(self, scheduler: Scheduler, default_link: LinkModel,
                 jitter: float = 0.0, rng: Optional[random.Random] = None):
        self.scheduler = scheduler
        self.default_link = default_link
        self.jitter = jitter
        self.rng = rng or random.Random(0)
        self._delivers: dict[int, object] = {}
        self._admits: dict[int, object] = {}
        self._plans: dict[tuple, tuple] = {}

    def add_node(self, node_id: int, deliver: Optional[Callable] = None,
                 admit: Optional[Callable] = None) -> None:
        """Register a node. ``admit`` defaults to ``deliver``; a node with
        no deliver drops everything sent to it, and no event is scheduled
        for it. Drops every delivery plan built so far."""
        deliver = deliver or _DROP
        self._delivers[node_id] = deliver
        self._admits[node_id] = admit or deliver
        self._plans.clear()

    def _plan(self, key: tuple) -> tuple:
        """``(own, others, before, after)`` for a ``(sender, recipients)``
        key: the sender's own callback when it is a recipient and does not
        drop, else None; the other recipients' callbacks, dropping ones
        left out; and every callback before and after the sender's place
        in the recipients, dropping ones kept. Raises UnknownNode for an
        unknown sender or recipient, ValueError for a repeated recipient.
        """
        sender, recipients = key
        nodes = self._admits if sender == CLIENT else self._delivers
        if sender != CLIENT and sender not in nodes:
            raise UnknownNode(str(sender))
        ids = list(nodes) if recipients is None else list(recipients)
        for recipient in ids:
            if recipient not in nodes:
                raise UnknownNode(str(recipient))
        if len(set(ids)) != len(ids):
            raise ValueError(f"recipients repeat a node: {ids}")
        split = ids.index(sender) if sender in ids else len(ids)
        own = nodes[sender] if split < len(ids) else _DROP
        before = tuple(nodes[i] for i in ids[:split])
        after = tuple(nodes[i] for i in ids[split + 1:])
        others = tuple(d for d in before + after if d is not _DROP)
        plan = (None if own is _DROP else own, others, before, after)
        self._plans[key] = plan
        return plan

    def broadcast(self, sender: int, message, wire_size: int,
                  recipients: Optional[Iterable[int]] = None) -> None:
        """Deliver ``message`` to the sender at once, when it is a
        recipient, and to every other recipient after the link's delay.

        ``recipients`` defaults to every node, in the order they were
        added. The plan is read, or built, before anything is scheduled,
        so a broadcast that ``_plan`` rejects schedules nothing. The
        link's delay is computed once per call. With jitter, each non-self
        delivery adds ``jitter * rng.random()``, in recipient order; that
        is the value ``rng.uniform(0.0, jitter)`` returns.

        Without jitter, every non-self delivery fires at the same time,
        ``now`` plus the link's delay, so one fan-out event delivers them
        in recipient order. That is the order in which one event per
        recipient, scheduled back to back, would fire. When that delay
        does not move the clock (it is 0), self and the others share a
        fire time, and one event per recipient keeps the self-delivery in
        its place.

        A recipient that drops everything still draws its jitter, so the
        other recipients' times and the rng stream do not depend on it.

        Every delay is at least 0, so no delivery can be due in the past,
        and each event goes straight onto the scheduler's heap as
        ``(fire_time, seq, action, args)``, with the seqs that
        ``schedule_at`` would have given; the per-delivery events share
        one args tuple.
        """
        key = (sender, None if recipients is None else tuple(recipients))
        own, others, before, after = self._plans.get(key) or self._plan(key)
        link_delay = self.default_link.transmission_delay(wire_size)
        jitter = self.jitter
        scheduler = self.scheduler
        heap, seq, now = scheduler._heap, scheduler._seq, scheduler.now
        args = (message,)
        fire = now + link_delay
        if jitter <= 0 and fire > now:
            if own is not None:
                heappush(heap, (now, seq, own, args))
                seq += 1
            if others:
                heappush(heap, (fire, seq, _fan_out, (others, message)))
                seq += 1
            scheduler._seq = seq
            return
        # without jitter every delivery here is due now and draws nothing
        draw = self.rng.random if jitter > 0 else float   # float() == 0.0
        for deliver in before:
            fire = now + (link_delay + jitter * draw())
            if deliver is not _DROP:
                heappush(heap, (fire, seq, deliver, args))
                seq += 1
        if own is not None:
            heappush(heap, (now, seq, own, args))
            seq += 1
        for deliver in after:
            fire = now + (link_delay + jitter * draw())
            if deliver is not _DROP:
                heappush(heap, (fire, seq, deliver, args))
                seq += 1
        scheduler._seq = seq

    def inject(self, message, wire_size: int) -> None:
        """Admit a message from outside the validator set (e.g. a client)
        at every node."""
        self.broadcast(CLIENT, message, wire_size)


def _fan_out(delivers: list, message) -> None:
    for deliver in delivers:
        deliver(message)
