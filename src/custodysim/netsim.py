"""Deterministic discrete-event engine: virtual clock, links, broadcast.

Time is purely simulated. Given the same configuration and seed, every
run fires the same sequence of events at the same times. Client traffic
enters the network as sender ``CLIENT`` and takes the same path as
validator traffic.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Optional

CLIENT = -1  # sender id of traffic from outside the validator set


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

    Heap entries are ``(fire_time, seq, action)`` tuples; ``seq`` is
    unique, so the comparison never reaches ``action``. Events at equal
    times fire in the order they were scheduled.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap: list[tuple] = []

    def schedule_at(self, fire_time: float, action: Callable[[], None]) -> None:
        if fire_time < self.now:
            raise SchedulingInPast(f"{fire_time} < now {self.now}")
        heapq.heappush(self._heap, (fire_time, self._seq, action))
        self._seq += 1

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        self.schedule_at(self.now + delay, action)

    def run_until(self, t: float) -> None:
        """Fire every event due at or before t, then advance the clock to t."""
        if t < self.now:
            raise SchedulingInPast(f"cannot run backwards to {t}")
        while self._heap and self._heap[0][0] <= t:
            self.now, _, action = heapq.heappop(self._heap)
            action()
        self.now = t

    def pending(self) -> int:
        return len(self._heap)


class Network:
    """Broadcast fabric over point-to-point links.

    Per-pair links override the default; the default models the slowest
    channel. Self-delivery is immediate. Senders are node ids, or
    ``CLIENT`` for traffic from outside the validator set; per-pair links
    keyed on ``CLIENT`` apply to it too.
    """

    def __init__(self, scheduler: Scheduler, default_link: LinkModel,
                 links: Optional[dict] = None, jitter: float = 0.0,
                 rng: Optional[random.Random] = None):
        self.scheduler = scheduler
        self.default_link = default_link
        self.links = dict(links or {})
        self.jitter = jitter
        self.rng = rng or random.Random(0)
        self._nodes: dict[int, Callable] = {}

    def add_node(self, node_id: int, deliver: Callable) -> None:
        self._nodes[node_id] = deliver

    def link(self, sender: int, recipient: int) -> LinkModel:
        return self.links.get((sender, recipient), self.default_link)

    def send(self, sender: int, recipient: int, message, wire_size: int) -> None:
        if recipient not in self._nodes:
            raise UnknownNode(str(recipient))
        if sender == recipient:
            delay = 0.0
        else:
            delay = self.link(sender, recipient).transmission_delay(wire_size)
            if self.jitter > 0:
                delay += self.rng.uniform(0.0, self.jitter)
        deliver = self._nodes[recipient]
        self.scheduler.schedule(delay, lambda: deliver(message))

    def broadcast(self, sender: int, message, wire_size: int) -> None:
        if sender not in self._nodes and sender >= 0:
            raise UnknownNode(str(sender))
        for recipient in self._nodes:
            self.send(sender, recipient, message, wire_size)

    def inject(self, message, wire_size: int) -> None:
        """Deliver a message from outside the validator set (e.g. a client)."""
        self.broadcast(CLIENT, message, wire_size)
