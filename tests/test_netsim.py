import random

import pytest

from custodysim.netsim import (CLIENT, LinkModel, Network, Scheduler,
                               SchedulingInPast, UnknownNode)


class TestScheduler:
    def test_runs_in_time_order(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(2.0, lambda: seen.append("b"))
        sched.schedule_at(1.0, lambda: seen.append("a"))
        sched.schedule_at(3.0, lambda: seen.append("c"))
        sched.run_until(5.0)
        assert seen == ["a", "b", "c"]
        assert sched.now == 5.0

    def test_equal_times_keep_insertion_order(self):
        sched = Scheduler()
        seen = []
        for i in range(10):
            sched.schedule_at(1.0, lambda i=i: seen.append(i))
        sched.run_until(1.0)
        assert seen == list(range(10))

    def test_scheduling_in_past_rejected(self):
        sched = Scheduler()
        sched.run_until(10.0)
        with pytest.raises(SchedulingInPast):
            sched.schedule_at(9.0, lambda: None)

    def test_schedule_at_now_runs_next(self):
        sched = Scheduler()
        sched.run_until(4.0)
        seen = []
        sched.schedule(0.0, lambda: seen.append(1))
        sched.run_until(4.0)
        assert seen == [1]

    def test_events_fire_during_action(self):
        # an action may schedule follow-ups at the same virtual time
        sched = Scheduler()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sched.schedule(0.0, lambda: chain(n + 1))

        sched.schedule_at(1.0, lambda: chain(0))
        sched.run_until(1.0)
        assert seen == [0, 1, 2, 3]

    def test_empty_queue_just_advances_clock(self):
        sched = Scheduler()
        sched.run_until(100.0)
        assert sched.now == 100.0 and sched.pending() == 0


class TestLinkModel:
    def test_delay_is_base_plus_serialization(self):
        link = LinkModel(bandwidth=1_000_000, base_delay=0.5)
        assert link.transmission_delay(1_000_000) == pytest.approx(1.5)
        assert LinkModel(1_000_000).transmission_delay(0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LinkModel(bandwidth=0)
        with pytest.raises(ValueError):
            LinkModel(bandwidth=1.0, base_delay=-1)


def _net(n=4, **kwargs):
    sched = Scheduler()
    net = Network(sched, LinkModel(1_000_000), **kwargs)
    inboxes = {i: [] for i in range(n)}
    for i in range(n):
        net.add_node(i, lambda m, i=i: inboxes[i].append((net.scheduler.now, m)))
    return sched, net, inboxes


class TestNetwork:
    def test_broadcast_reaches_everyone_self_immediately(self):
        sched, net, inboxes = _net()
        net.broadcast(0, "hello", wire_size=1000)
        sched.run_until(1.0)
        assert all(len(v) == 1 for v in inboxes.values())
        assert inboxes[0][0][0] == 0.0           # self-delivery has no delay
        assert inboxes[1][0][0] == pytest.approx(0.001)

    def test_unknown_recipient(self):
        _, net, _ = _net()
        with pytest.raises(UnknownNode):
            net.send(0, 99, "x", 10)

    def test_per_pair_link_override(self):
        sched = Scheduler()
        slow = LinkModel(1_000)
        net = Network(sched, LinkModel(1_000_000), links={(0, 1): slow})
        times = {}
        net.add_node(0, lambda m: None)
        net.add_node(1, lambda m: times.setdefault(1, sched.now))
        net.add_node(2, lambda m: times.setdefault(2, sched.now))
        net.broadcast(0, "m", wire_size=1000)
        sched.run_until(10.0)
        assert times[1] == pytest.approx(1.0)    # slow link
        assert times[2] == pytest.approx(0.001)  # default link

    def test_inject_is_a_broadcast_from_client(self):
        def arrivals(send):
            sched, net, inboxes = _net(jitter=0.01, rng=random.Random(9))
            send(net)
            sched.run_until(1.0)
            return inboxes, net.rng.random()  # same delays, same draws

        injected = arrivals(lambda net: net.inject("tx", 500))
        assert injected == arrivals(
            lambda net: net.broadcast(CLIENT, "tx", 500))
        assert len({t for inbox in injected[0].values() for t, _ in inbox}) == 4

    def test_inject_honours_client_links(self):
        sched = Scheduler()
        slow = LinkModel(1_000)
        net = Network(sched, LinkModel(1_000_000), links={(CLIENT, 1): slow})
        times = {}
        for i in range(3):
            net.add_node(i, lambda m, i=i: times.setdefault(i, sched.now))
        net.inject("tx", wire_size=1000)
        sched.run_until(10.0)
        assert times[1] == pytest.approx(1.0)    # slow client link
        assert times[0] == times[2] == pytest.approx(0.001)
