"""The sequenced-delivery engine and the fault-plan skeleton, with no carrier.

:class:`~repro.runtime.arq.ArqDirection` is driven here over a scripted wire
made of nothing but the simulator: frames are ``(seq, payload)`` tuples, every
transmission attempt is given a fate by the test, and acknowledgements travel
back as plain calls.  What the control channel and link protection rely on is
asserted directly: exactly-once delivery, in order under strict order, a
paused (not dropped) backlog, counted abandonment, and a timer that stops.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.net import Simulator
from repro.runtime.arq import ArqDirection, ScriptedFault, SeededFaultPlan

LATENCY = 1e-3
RTO = 8e-3

OK, LOSE, DUP, LATE = "ok", "lose", "dup", "late"


class Wire:
    """One direction's engine over a wire whose every attempt the test scripts.

    *fates* gives the fate of the n-th transmission attempt (first attempts
    and re-sends alike) and *ack_fates* of the n-th acknowledgement; both run
    out into ``OK``.  ``selective=False`` acknowledges like the control
    channel (cumulative only), ``True`` like link protection.
    """

    def __init__(self, fates=(), ack_fates=(), *, selective=True, **engine):
        self.sim = Simulator()
        self.fates = list(fates)
        self.ack_fates = list(ack_fates)
        self.selective = selective
        self.attempts = []  # (seq, retry) in transmission order
        self.delivered = []  # payloads in hand-up order
        self.duplicates = 0
        self.abandoned = 0
        self.arq = ArqDirection(self.sim, RTO, self.transmit, on_abandon=self.count_abandon, **engine)

    def count_abandon(self):
        self.abandoned += 1

    def send(self, payload):
        return self.arq.send((self.arq.next_seq, payload))

    def transmit(self, frame, retry):
        self.attempts.append((frame[0], retry))
        fate = self.fates.pop(0) if self.fates else OK
        if fate == LOSE:
            return None
        delay = LATENCY * (3.5 if fate == LATE else 1.0)
        self.sim.schedule(delay, self.arrive, frame)
        if fate == DUP:
            self.sim.schedule(delay + LATENCY / 2, self.arrive, frame)
        return self.sim.now + delay

    def arrive(self, frame):
        if not self.arq.receive(frame[0], frame, lambda ready: self.delivered.append(ready[1])):
            self.duplicates += 1
        fate = self.ack_fates.pop(0) if self.ack_fates else OK
        if fate == LOSE:
            return
        if self.selective:
            self.sim.schedule(LATENCY, self.arq.absorb_ack, *self.arq.ack_state())
        else:
            self.sim.schedule(LATENCY, self.arq.absorb_ack, self.arq.expected - 1)

    def run(self, count):
        for payload in range(count):
            self.send(payload)
        self.sim.run()  # returns only once no timer is left armed
        return self.delivered


SCRIPT = [OK, LOSE, DUP, LATE, OK, LOSE, LOSE, OK, DUP, LATE, OK, OK, LOSE]


class TestStrictOrder:
    @pytest.mark.parametrize("selective", [True, False])
    def test_loss_duplication_and_reordering_are_masked(self, selective):
        wire = Wire(SCRIPT, [OK, OK, LOSE, OK, LOSE], selective=selective)
        assert wire.run(20) == list(range(20))
        assert wire.duplicates > 0
        assert any(retry for _, retry in wire.attempts)
        assert wire.arq.outstanding == 0 and not wire.arq.pending

    def test_only_the_oldest_hold_is_resent_by_the_timer(self):
        # Cumulative acks: one loss leaves the whole tail held, yet a single
        # re-send of the gap head lets the receiver drain and ack all of it.
        wire = Wire([OK, LOSE], selective=False)
        assert wire.run(10) == list(range(10))
        assert [seq for seq, retry in wire.attempts if retry] == [2]

    def test_nacked_frames_are_resent_before_the_timer(self):
        wire = Wire([OK, LOSE])
        for payload in range(10):
            wire.send(payload)
        wire.sim.run(until=RTO / 2)  # the gap was seen, NACKed and repaired already
        assert [seq for seq, retry in wire.attempts if retry] == [2]
        assert wire.delivered == list(range(10))

    def test_selective_acks_free_the_holds_above_a_gap(self):
        held = {}
        for selective in (True, False):
            wire = Wire([OK, LOSE], selective=selective)
            wire.arq.absorb_ack = lambda cum, have=(), need=(), absorb=wire.arq.absorb_ack: absorb(cum, have)
            for payload in range(5):
                wire.send(payload)
            wire.sim.run(until=RTO / 2)  # NACKs withheld: frame 2 is still missing
            held[selective] = sorted(wire.arq.holds)
        assert held == {True: [2], False: [2, 3, 4, 5]}

    def test_each_missing_number_is_nacked_once_per_rto(self):
        sim = Simulator()
        arq = ArqDirection(sim, RTO, lambda frame, retry: None)
        arq.receive(3, "c", lambda frame: None)
        assert arq.ack_state() == (0, [3], [1, 2])
        arq.receive(5, "e", lambda frame: None)
        assert arq.ack_state() == (0, [3, 5], [4])  # 1 and 2 were just asked for
        sim.run(until=2 * RTO)
        assert arq.ack_state() == (0, [3, 5], [1, 2, 4])


class TestLooseOrder:
    def test_everything_is_delivered_once_and_repairs_arrive_late(self):
        wire = Wire(SCRIPT, [OK, LOSE], strict=False)
        delivered = wire.run(20)
        assert sorted(delivered) == list(range(20))
        assert delivered != sorted(delivered)
        assert wire.arq.outstanding == 0 and not wire.arq.pending

    def test_in_sequence_arrivals_are_not_remembered(self):
        wire = Wire(strict=False)
        wire.run(5)
        assert wire.arq.expected == 6 and not wire.arq.pending


class TestWindow:
    def test_backlog_pauses_the_sender_and_drains_in_sequence(self):
        wire = Wire([OK, LOSE, OK, LOSE], window=2)
        most_held = []
        transmit = wire.arq._transmit

        def watching(frame, retry):
            most_held.append(len(wire.arq.holds))
            return transmit(frame, retry)

        wire.arq._transmit = watching
        assert wire.send("a") is not None and wire.send("b") is None  # lost, but attempted
        assert wire.send("c") is None and wire.arq.outstanding == 3  # paused behind a full table
        for payload in "defgh":
            wire.send(payload)
        wire.sim.run()
        assert wire.delivered == list("abcdefgh")
        assert max(most_held) <= 2
        first_attempts = [seq for seq, retry in wire.attempts if not retry]
        assert first_attempts == sorted(first_attempts) == list(range(1, 9))


class TestGivingUp:
    def test_abandonment_is_counted_and_frees_the_slot(self):
        wire = Wire([LOSE] * 100, window=1, max_retries=2)
        assert wire.run(3) == []
        assert wire.abandoned == 3
        assert wire.arq.outstanding == 0
        # Three attempts per frame (one first, two re-sends), one frame at a time.
        assert wire.attempts == [(seq, retry) for seq in (1, 2, 3) for retry in (False, True, True)]

    def test_without_a_retry_cap_the_sender_never_gives_up(self):
        wire = Wire([LOSE] * 40)
        assert wire.run(1) == [0]
        assert len(wire.attempts) == 41 and wire.abandoned == 0


class TestClose:
    def test_close_forgets_holds_and_stops_the_timer(self):
        wire = Wire([LOSE] * 100, window=2)
        for payload in range(5):
            wire.send(payload)
        assert wire.arq.close() == 5  # two held, three backlogged
        wire.sim.run()  # terminates: the armed timer finds nothing and does not re-arm
        assert wire.sim.pending_events == 0
        assert not any(retry for _, retry in wire.attempts)

    def test_frames_sent_while_closed_are_numbered_but_not_held(self):
        wire = Wire()
        wire.arq.close()
        wire.send("x")
        assert wire.attempts == [(1, False)] and wire.arq.next_seq == 2
        assert wire.arq.outstanding == 0
        wire.sim.run()
        assert wire.delivered == ["x"]


FATES = st.lists(st.sampled_from([OK, OK, OK, LOSE, DUP, LATE]), max_size=60)


class TestAnyFaultPattern:
    @settings(max_examples=60, deadline=None)
    @given(
        fates=FATES,
        ack_fates=st.lists(st.sampled_from([OK, OK, LOSE]), max_size=40),
        strict=st.booleans(),
        selective=st.booleans(),
        window=st.sampled_from([None, 1, 3]),
        count=st.integers(min_value=1, max_value=25),
    )
    def test_delivery_is_exactly_once_and_ordered_when_strict(self, fates, ack_fates, strict, selective, window, count):
        wire = Wire(fates, ack_fates, strict=strict, selective=selective, window=window)
        delivered = wire.run(count)
        assert sorted(delivered) == list(range(count))
        if strict:
            assert delivered == list(range(count))
        assert wire.arq.outstanding == 0 and not wire.arq.pending
        assert wire.arq.expected == count + 1


# -- the engine as a state machine ----------------------------------------------------------


class HeldWire(Wire):
    """The scripted wire with the network in the test's hands.

    Every attempt waits in ``in_flight`` until a rule delivers, drops,
    duplicates or reorders it, and an acknowledgement travels only when a
    rule sends one.
    """

    def __init__(self, **engine):
        super().__init__(**engine)
        self.in_flight = []

    def transmit(self, frame, retry):
        self.in_flight.append(frame)
        return self.sim.now + LATENCY

    def arrive(self, frame):
        self.arq.receive(frame[0], frame, lambda ready: self.delivered.append(ready[1]))


def _has_in_flight(machine):
    return bool(machine.wire.in_flight)


class ArqMachine(RuleBasedStateMachine):
    """One :class:`ArqDirection` under any interleaving of sends, wire faults, acks, timer ticks and a close."""

    def __init__(self):
        super().__init__()
        self.wire = None
        self.sent = 0
        #: The highest cumulative ack the sender has absorbed.
        self.cum = 0

    @initialize(window=st.sampled_from([None, 1, 3]), strict=st.booleans())
    def build(self, window, strict):
        self.wire = HeldWire(window=window, strict=strict)

    @property
    def arq(self):
        return self.wire.arq

    def _absorb(self, cum, have=(), need=()):
        self.arq.absorb_ack(cum, have, need)
        self.cum = max(self.cum, cum)

    @rule()
    def send(self):
        self.wire.send(self.sent)
        self.sent += 1

    @precondition(_has_in_flight)
    @rule()
    def deliver(self):
        self.wire.arrive(self.wire.in_flight.pop(0))

    @precondition(_has_in_flight)
    @rule(data=st.data())
    def drop(self, data):
        self.wire.in_flight.pop(data.draw(st.integers(0, len(self.wire.in_flight) - 1)))

    @precondition(_has_in_flight)
    @rule(data=st.data())
    def duplicate(self, data):
        in_flight = self.wire.in_flight
        frame = in_flight[data.draw(st.integers(0, len(in_flight) - 1))]
        in_flight.insert(data.draw(st.integers(0, len(in_flight))), frame)

    @precondition(_has_in_flight)
    @rule(data=st.data())
    def reorder(self, data):
        """One frame overtaken by everything behind it."""
        in_flight = self.wire.in_flight
        in_flight.append(in_flight.pop(data.draw(st.integers(0, len(in_flight) - 1))))

    @rule(selective=st.booleans())
    def ack(self, selective):
        """The receiver's current acknowledgement: cumulative only (the control channel's) or with ``have`` and ``need``."""
        if selective:
            self._absorb(*self.arq.ack_state())
        else:
            self._absorb(self.arq.expected - 1)

    @rule(data=st.data())
    def stale_ack(self, data):
        """An old cumulative ack arriving late, behind newer ones."""
        self._absorb(data.draw(st.integers(0, self.arq.expected - 1)))

    @rule(fraction=st.sampled_from([0.5, 1.0]))
    def timer(self, fraction):
        self.wire.sim.run(until=self.wire.sim.now + fraction * RTO)

    @precondition(lambda machine: not machine.arq.closed)
    @rule()
    def close(self):
        self.arq.close()

    @precondition(lambda machine: not machine.arq.closed)
    @rule()
    def settle(self):
        """The wire turns clean: everything sent is delivered, and the sender lets go of all of it."""
        for _ in range(4 * self.sent + 4):
            while self.wire.in_flight:
                self.deliver()
            self.ack(selective=False)
            if not self.arq.outstanding:
                break
            self.timer(1.0)
        assert self.arq.outstanding == 0
        assert sorted(self.wire.delivered) == list(range(self.sent))

    @invariant()
    def holds_ascend_and_nothing_acknowledged_is_held(self):
        holds, backlog = list(self.arq.holds), [seq for seq, _ in self.arq.backlog]
        assert holds == sorted(holds)
        assert backlog == sorted(backlog) and (not holds or not backlog or holds[-1] < backlog[0])
        assert all(seq > self.cum for seq in holds + backlog)
        assert self.arq.window is None or len(holds) <= self.arq.window
        assert self.arq.outstanding == len(holds) + len(backlog)

    @invariant()
    def delivery_is_exactly_once_and_in_order_when_strict(self):
        delivered = self.wire.delivered
        assert len(set(delivered)) == len(delivered) <= self.sent
        if self.arq.strict:
            assert delivered == list(range(len(delivered)))


ArqMachine.TestCase.settings = settings(max_examples=settings.default.max_examples, stateful_step_count=40, deadline=None)
TestArqMachine = ArqMachine.TestCase


# -- the fault-plan skeleton -----------------------------------------------------------------


@dataclass(frozen=True)
class CoinProfile:
    lose: float = 0.0


class CoinPlan(SeededFaultPlan):
    """The smallest plan: one fault class, one draw per frame."""

    DIRECTIONS = ("out", "back")
    PROFILE = CoinProfile

    def draw(self, profile, at, latency):
        return ("drop" if self.rng.random() < profile.lose else None), at, False, None


class TestSeededFaultPlan:
    def test_scripted_faults_fire_once_on_the_nth_payload_frame_of_their_direction(self):
        plan = CoinPlan(0, scripted=[ScriptedFault("corrupt", "out", 2)])
        fates = [
            plan.decide("out", True, 1.0, LATENCY),
            plan.decide("back", True, 1.0, LATENCY),
            plan.decide("out", False, 1.0, LATENCY),  # an acknowledgement: not counted
            plan.decide("out", True, 1.0, LATENCY),
            plan.decide("out", True, 1.0, LATENCY),
        ]
        assert [lost for lost, *_ in fates] == [None, None, None, "corrupt", None]

    def test_a_direction_with_no_rates_draws_nothing(self):
        plan = CoinPlan(5, out=CoinProfile(lose=0.5))
        before = plan.rng.getstate()
        assert plan.decide("back", True, 1.0, LATENCY) == (None, 1.0, False, None)
        assert plan.rng.getstate() == before
        plan.decide("out", True, 1.0, LATENCY)
        assert plan.rng.getstate() != before

    def test_symmetric_applies_the_rates_both_ways_and_a_seed_repeats(self):
        def losses(seed):
            plan = CoinPlan.symmetric(seed, lose=0.3)
            return [plan.decide(direction, True, 0.0, LATENCY)[0] for direction in ("out", "back") * 50]

        assert losses(9) == losses(9) != losses(10)
        assert {"drop", None} == set(losses(9))

    def test_unknown_direction_is_rejected(self):
        with pytest.raises(TypeError):
            CoinPlan(0, sideways=CoinProfile())
