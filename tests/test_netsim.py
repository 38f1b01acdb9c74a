import math
import random

import pytest
from hypothesis import example, given, strategies as st

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

    def test_schedule_at_passes_arguments(self):
        sched = Scheduler()
        seen = []
        sched.schedule_at(1.0, seen.append, "a")
        sched.schedule_at(1.0, lambda: seen.append("b"))
        sched.schedule(1.0, lambda *xs: seen.append(xs), "c", 2)
        sched.schedule_at(1.0, lambda: seen.append("d"))
        sched.schedule_at(0.5, seen.append, "first")
        sched.run_until(1.0)
        assert seen == ["first", "a", "b", ("c", 2), "d"]
        with pytest.raises(SchedulingInPast):
            sched.schedule_at(0.5, seen.append, "late")
        assert sched.pending() == 0

    def test_reserved_entry_keeps_its_place_when_pushed_later(self):
        sched = Scheduler()
        seen = []
        entry = sched.reserve(1.0, seen.append, "a")
        sched.schedule(1.0, seen.append, "b")
        assert sched.pending() == 1
        sched.push(entry)
        sched.run_until(1.0)
        assert seen == ["a", "b"]

    def test_reserving_in_past_rejected(self):
        sched = Scheduler()
        sched.run_until(1.0)
        with pytest.raises(SchedulingInPast):
            sched.reserve(-0.5, lambda: None)
        assert sched.pending() == 0

    def test_nan_fire_time_rejected(self):
        # A NaN entry on the heap compares false with every time, so once
        # at the top it would stall every later event.
        sched = Scheduler()
        seen = []
        with pytest.raises(SchedulingInPast):
            sched.schedule_at(math.nan, lambda: seen.append("nan"))
        sched.schedule_at(1.0, lambda: seen.append("b"))
        sched.run_until(5.0)
        assert seen == ["b"] and sched.pending() == 0

    def test_reserving_nan_delay_rejected(self):
        sched = Scheduler()
        with pytest.raises(SchedulingInPast):
            sched.reserve(math.nan, lambda: None)
        sched.schedule_at(1.0, lambda: None)
        assert sched.reserve(1.0, lambda: None)[1] == 1  # no seq was taken

    def test_running_until_nan_rejected(self):
        sched = Scheduler()
        sched.run_until(2.0)
        with pytest.raises(SchedulingInPast):
            sched.run_until(math.nan)
        assert sched.now == 2.0

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
            net.broadcast(0, "x", 10, (99,))

    def test_negative_sender_other_than_client_is_unknown(self):
        sched, net, inboxes = _net(2)
        with pytest.raises(UnknownNode):
            net.broadcast(-2, "m", 10)
        assert sched.pending() == 0 and inboxes == {0: [], 1: []}

    @pytest.mark.parametrize("jitter", [0.0, 0.005])
    def test_unknown_id_raises_before_anything_is_scheduled(self, jitter):
        """An unknown sender or recipient, wherever it stands, raises
        UnknownNode and leaves the heap, the seqs and the rng as they
        were; later broadcasts are delivered as if it never happened."""
        sched = Scheduler()
        net = Network(sched, LinkModel(1_000_000), jitter=jitter)
        log = []
        for i in range(3):
            net.add_node(i, lambda m, i=i: log.append((m, i)))
        net.broadcast(1, "warm", 100)   # cached plans, pending events
        for size in (0, 100):
            for sender, recipients in [(0, [1, 2, 99, 0]), (0, (99,)),
                                       (99, None), (99, [1]),
                                       (CLIENT, [1, 99])]:
                state = (sched.pending(), sched._seq, net.rng.getstate())
                with pytest.raises(UnknownNode):
                    net.broadcast(sender, "m", size, recipients)
                assert (sched.pending(), sched._seq,
                        net.rng.getstate()) == state
        net.broadcast(0, "n", 0, [2, 1])
        sched.run_until(1.0)
        assert sorted(log) == [("n", 1), ("n", 2), ("warm", 0), ("warm", 1),
                               ("warm", 2)]

    @pytest.mark.parametrize("jitter", [0.0, 0.005])
    def test_repeated_recipient_raises_before_anything_is_scheduled(
            self, jitter):
        sched, net, _ = _net(jitter=jitter)
        for recipients in ([1, 2, 1], [0, 0]):
            with pytest.raises(ValueError):
                net.broadcast(0, "m", 100, recipients)
            assert (sched.pending(), sched._seq) == (0, 0)

    @pytest.mark.parametrize("jitter", [0.0, 0.005])
    def test_plans_follow_nodes_added_after_a_broadcast(self, jitter):
        """A node added after a broadcast gets the next one, client
        traffic included; a node registered again without callbacks stops
        getting them."""
        sched, net, inboxes = _net(3, jitter=jitter)
        net.broadcast(0, "a", 100)
        net.inject("t", 100)
        net.broadcast(2, "x", 100, [0, 1])
        inboxes[3] = []
        net.add_node(3, lambda m: inboxes[3].append((sched.now, m)))
        net.add_node(1)
        net.broadcast(0, "b", 100)
        net.inject("u", 100)
        net.broadcast(2, "y", 100, [0, 1])
        sched.run_until(1.0)
        got = {i: sorted(m for _, m in inbox) for i, inbox in inboxes.items()}
        assert got == {0: ["a", "b", "t", "u", "x", "y"],
                       1: ["a", "t", "x"],
                       2: ["a", "b", "t", "u"],
                       3: ["b", "u"]}

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


class TestCallbacks:
    """Node traffic reaches deliver, client traffic reaches admit, and a
    node registered without callbacks drops everything."""

    @staticmethod
    def _two_handler_net(**kwargs):
        sched = Scheduler()
        net = Network(sched, LinkModel(1_000_000), **kwargs)
        log = []
        for i in range(3):
            net.add_node(i, lambda m, i=i: log.append(("deliver", i, m)),
                         lambda m, i=i: log.append(("admit", i, m)))
        return sched, net, log

    @pytest.mark.parametrize("jitter", [0.0, 0.005])
    def test_inject_admits_and_broadcast_delivers(self, jitter):
        sched, net, log = self._two_handler_net(jitter=jitter)
        net.inject("tx", 100)
        net.broadcast(1, "vote", 100)
        net.broadcast(2, "one", 100, (0,))
        sched.run_until(1.0)
        assert sorted(log) == sorted(
            [("admit", i, "tx") for i in range(3)]
            + [("deliver", i, "vote") for i in range(3)]
            + [("deliver", 0, "one")])

    @pytest.mark.parametrize("kwargs", [{}, dict(jitter=0.005)])
    @pytest.mark.parametrize("sender", [0, CLIENT])
    def test_unknown_recipient_on_both_paths(self, kwargs, sender):
        _, net, _ = self._two_handler_net(**kwargs)
        with pytest.raises(UnknownNode):
            net.broadcast(sender, "m", 100, [1, 99])
        with pytest.raises(UnknownNode):
            net.broadcast(sender, "m", 100, (99,))

    def test_unknown_sender(self):
        _, net, _ = self._two_handler_net()
        with pytest.raises(UnknownNode):
            net.broadcast(99, "m", 100)

    @pytest.mark.parametrize("kwargs", [
        {}, dict(jitter=0.005), dict(jitter=0.2)])
    @pytest.mark.parametrize("dropper", [0, 2, 4])
    def test_dropping_node_leaves_others_and_rng_as_a_no_op_node(
            self, kwargs, dropper):
        """The same arrivals at the others and the same next draw as with a
        no-op deliver, and no event for the dropping node."""
        def run(drops):
            sched = Scheduler()
            net = Network(sched, LinkModel(1_000_000, 0.01),
                          rng=random.Random(3), **kwargs)
            log, pending = [], []
            for i in range(5):
                if i != dropper:
                    net.add_node(i, lambda m, i=i: log.append((sched.now, i, m)))
                elif drops:
                    net.add_node(i)
                else:
                    net.add_node(i, lambda m: None)
            for label, sender in enumerate([0, 1, CLIENT, 4, 2, CLIENT]):
                if sender == dropper:
                    continue   # a dropping node never sends
                before = sched.pending()
                net.broadcast(sender, label, 700)
                pending.append(sched.pending() - before)
                sched.run_until(sched.now + 0.003)
            sched.run_until(sched.now + 10.0)
            return log, net.rng.random(), pending

        dropped, kept = run(drops=True), run(drops=False)
        assert dropped[:2] == kept[:2]
        # with one event per delivery, the dropping node's is missing; a
        # jitter-free fan-out is one event either way
        fewer = 1 if kwargs else 0
        assert [k - d for d, k in zip(dropped[2], kept[2])] == \
            [fewer] * len(kept[2])


def _reference_send(net, delivers, sender, recipient, message, wire_size):
    """A one-recipient send as it was before broadcast did the fan-out
    itself: one ``rng.uniform`` draw and one closure per delivery."""
    if recipient not in delivers:
        raise UnknownNode(str(recipient))
    if sender == recipient:
        delay = 0.0
    else:
        delay = net.default_link.transmission_delay(wire_size)
        if net.jitter > 0:
            delay += net.rng.uniform(0.0, net.jitter)
    deliver = delivers[recipient]
    net.scheduler.schedule(delay, lambda: deliver(message))


_NODES = 5
_SENDERS = st.sampled_from([CLIENT, *range(_NODES)])
_SIZES = st.one_of(st.just(0), st.integers(1, 5_000))
_TRANSMITS = (
    st.tuples(st.just("broadcast"), _SENDERS, _SIZES),
    # an equivocator's sends: a validator to a subset, in a chosen order
    st.tuples(st.just("subset"), st.integers(0, _NODES - 1), _SIZES,
              st.lists(st.integers(0, _NODES - 1), unique=True)),
    st.tuples(st.just("send"), st.integers(0, _NODES - 1), _SIZES,
              st.integers(0, _NODES - 1)))
_SENDS = st.lists(st.one_of(
    *_TRANSMITS, st.tuples(st.just("advance"), st.floats(0.0, 0.5))),
    max_size=25)
# (label, recipient) -> what that recipient transmits, labelled
# (label, recipient), while the message is being delivered to it
_REACTIONS = st.dictionaries(
    st.tuples(st.integers(0, 24), st.integers(0, _NODES - 1)),
    st.one_of(*_TRANSMITS), max_size=12)


@given(sends=_SENDS, reactions=_REACTIONS,
       jitter=st.sampled_from([0.0, 0.005, 0.2]),
       base_delay=st.sampled_from([0.0, 0.01]), seed=st.integers(0, 2 ** 32))
@example(sends=[("broadcast", 2, 0)], reactions={(0, 1): ("broadcast", 1, 0)},
         jitter=0.0, base_delay=0.0, seed=0)
@example(sends=[("broadcast", 2, 0)], reactions={(0, 1): ("broadcast", 1, 0)},
         jitter=0.0, base_delay=0.01, seed=0)
def test_fan_out_matches_per_recipient_sends(sends, reactions, jitter,
                                             base_delay, seed):
    """broadcast to all, to a subset and to one recipient against the
    per-recipient send with a closure: the same deliveries at the same
    times in the same order, and the same rng state afterwards. Handlers
    that transmit while a message is being delivered to them push new
    events, some due at once, in the middle of a fan-out; a zero link
    delay with a zero size puts self and the other recipients at one fire
    time."""
    def run(fan_out):
        sched = Scheduler()
        net = Network(sched, LinkModel(1e6, base_delay), jitter=jitter,
                      rng=random.Random(seed))
        log, delivers = [], {}

        def transmit(op, label):
            kind, sender, size, *to = op
            recipients = None if kind == "broadcast" else \
                to[0] if kind == "subset" else to
            if fan_out:
                net.broadcast(sender, label, size, recipients)
                return
            for recipient in range(_NODES) if recipients is None \
                    else recipients:
                _reference_send(net, delivers, sender, recipient, label, size)

        def deliver(i, message):
            log.append((sched.now, i, message))
            if (message, i) in reactions:
                transmit(reactions[message, i], (message, i))

        for i in range(_NODES):
            delivers[i] = lambda m, i=i: deliver(i, m)
            net.add_node(i, delivers[i])
        for label, op in enumerate(sends):
            if op[0] == "advance":
                sched.run_until(sched.now + op[1])
            else:
                transmit(op, label)
        sched.run_until(sched.now + 100.0)
        return log, net.rng.random()

    assert run(fan_out=True) == run(fan_out=False)


class TestEventCount:
    """Scheduler events a broadcast leaves pending."""

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_jitter_free_broadcast_is_self_plus_one_fan_out(self, n):
        sched, net, _ = _net(n)
        net.broadcast(0, "m", wire_size=100)
        assert sched.pending() == min(n, 2)

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_jitter_free_inject_is_one_fan_out(self, n):
        sched, net, _ = _net(n)
        net.inject("tx", wire_size=100)
        assert sched.pending() == 1

    @pytest.mark.parametrize("sender", [0, CLIENT])
    def test_jittered_broadcast_is_one_event_per_recipient(self, sender):
        sched, net, _ = _net(8, jitter=0.005)
        net.broadcast(sender, "m", wire_size=100)
        assert sched.pending() == 8

    def test_zero_delay_is_one_event_per_recipient(self):
        sched, net, _ = _net(8)
        net.broadcast(0, "m", wire_size=0)
        assert sched.pending() == 8
