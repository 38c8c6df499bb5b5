"""Focused unit tests for controller internals.

The integration suites exercise these paths end-to-end; the unit tests
here pin the individual rules (frame correctness, DMC wire value, slot
judgment bookkeeping) against hand-built inputs.
"""

import pytest

from repro.network.channel import Transmission
from repro.network.signal import ReceiverTolerance, SignalShape
from repro.sim.engine import Simulator
from repro.ttp.constants import ControllerStateName
from repro.ttp.controller import ControllerConfig, TTPController
from repro.ttp.cstate import CState
from repro.ttp.frames import FrameObservation, IFrame
from repro.ttp.medl import Medl


class DummyTopology:
    """Just enough topology for a controller to be constructed and to
    judge a hand-built slot off its receive log."""

    def __init__(self):
        self.channels = [object(), object()]
        self.sent = []
        self.log = []
        self.log_base = 0

    @property
    def log_end(self):
        return self.log_base + len(self.log)

    def attach_reader(self, reader, callback):
        self.receiver = callback

    def set_listening(self, callback, on):
        pass

    def send(self, source, frame, duration, shape=None):
        self.sent.append((source, frame, duration))

    def node_activated(self, name, round_start):
        pass


def make_controller(**config_kwargs):
    sim = Simulator()
    medl = Medl.uniform(["A", "B", "C", "D"])
    topology = DummyTopology()
    controller = TTPController(sim, "B", medl, topology,
                               config=ControllerConfig(**config_kwargs))
    return controller, topology


def observation(cstate, **kwargs):
    return FrameObservation(frame=IFrame(sender_slot=cstate.medl_position,
                                         cstate=cstate), **kwargs)


def frame_correct(controller, seen):
    """Whether the slot judge accepts ``seen`` as a correct frame.

    Judges one slot whose only traffic is ``seen`` on channel 0, then
    restores the membership view, so each call is independent.
    """
    controller._set_state(ControllerStateName.PASSIVE)
    frame = seen.frame
    shape = SignalShape(level=seen.signal_level,
                        timing_offset=seen.timing_offset)
    controller.topology.log.append(
        (0, Transmission(frame=frame, source="C", start_time=0.0,
                         duration=1.0, shape=shape), seen.corrupted, 1.0))
    controller.slot = frame.cstate.medl_position
    members = set(controller.view.members)
    agreed = controller.view.counters.agreed
    controller._judge_completed_slot()
    correct = controller.view.counters.agreed > agreed
    controller.view.members = members
    return correct


# -- frame correctness (through the slot judge) ----------------------------------------


def test_frame_correct_requires_time_and_position():
    controller, _ = make_controller()
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.members = {1, 2}
    good = CState(global_time=5, medl_position=3,
                  membership=frozenset({1, 2, 3}))
    assert frame_correct(controller, observation(good))
    wrong_time = CState(global_time=6, medl_position=3,
                        membership=frozenset({1, 2, 3}))
    assert not frame_correct(controller, observation(wrong_time))
    wrong_pos = CState(global_time=5, medl_position=2,
                       membership=frozenset({1, 2, 3}))
    assert not frame_correct(controller, observation(wrong_pos))


def test_frame_correct_sender_inclusion_rule():
    """Expected membership = receiver's view with the sender's bit set."""
    controller, _ = make_controller()
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.members = {1, 2}
    without_self = CState(global_time=5, medl_position=3,
                          membership=frozenset({1, 2}))
    assert not frame_correct(controller, observation(without_self))


def test_frame_correct_loose_mode_ignores_membership():
    controller, _ = make_controller(strict_membership_agreement=False)
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.members = {1, 2}
    odd_membership = CState(global_time=5, medl_position=3,
                            membership=frozenset({9}))
    assert frame_correct(controller, observation(odd_membership))


def test_frame_correct_rejects_invalid_signal():
    controller, _ = make_controller()
    controller.cstate = CState(global_time=5, medl_position=3)
    controller.view.members = set()
    good = CState(global_time=5, medl_position=3, membership=frozenset({3}))
    assert not frame_correct(controller, observation(good, corrupted=True))
    assert not frame_correct(controller, observation(good, signal_level=0.1))


def test_frame_correct_respects_receiver_tolerance():
    sim = Simulator()
    medl = Medl.uniform(["A", "B", "C", "D"])
    topology = DummyTopology()
    strict = TTPController(sim, "B", medl, topology,
                           tolerance=ReceiverTolerance(threshold=0.9))
    strict.cstate = CState(global_time=5, medl_position=3)
    strict.view.members = set()
    good = CState(global_time=5, medl_position=3, membership=frozenset({3}))
    marginal = observation(good, signal_level=0.8)
    assert not frame_correct(strict, marginal)


# -- DMC wire encoding ---------------------------------------------------------------


def test_dmc_wire_value_encoding():
    controller, _ = make_controller()
    assert controller._dmc_wire_value() == 0
    controller.pending_mode = 0
    assert controller._dmc_wire_value() == 1  # mode 0 is expressible
    controller.pending_mode = 3
    assert controller._dmc_wire_value() == 4


# -- state accessors ------------------------------------------------------------------


def test_initial_state_and_slot():
    controller, _ = make_controller()
    assert controller.own_slot == 2
    assert not controller.integrated
    assert controller.view.membership_set() == frozenset()


def test_request_mode_change_without_modes_rejected():
    controller, _ = make_controller()
    with pytest.raises(ValueError):
        controller.request_mode_change(1)


def test_oversized_frame_guard():
    controller, _ = make_controller(slot_duration=50.0)
    frame = IFrame(sender_slot=2, cstate=CState(medl_position=2))
    with pytest.raises(ValueError):
        controller._transmit(frame)  # 76 bits > 50-bit-time slot
