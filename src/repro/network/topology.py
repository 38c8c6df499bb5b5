"""Cluster wiring: bus vs. star topologies.

Both topologies expose the same interface to the protocol layer:

* ``send(source, frame, duration, shape)`` -- drive a frame from a node
  onto both replicated channels (TTP/C always sends on both),
* ``log`` -- the receive log: every completed transmission, recorded once
  per channel as ``(channel_index, transmission, corrupted, arrival)``.
  Slot-synchronous controllers (``attach_reader``) read their slot's
  entries at their own slot boundary instead of taking one callback per
  frame,
* ``attach_receiver(callback)`` -- deliver every completed transmission as
  ``callback(channel_index, transmission, corrupted)``; a reader's own
  callback is switched on only while it listens (``set_listening``).

The difference is the path between a node and each channel:

* **bus**: node -> its local bus guardian -> channel,
* **star**: node -> the channel's central star coupler -> channel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.authority import CouplerAuthority
from repro.network.channel import Channel, ChannelScheduler, Transmission
from repro.network.guardian import GuardianFault, LocalBusGuardian
from repro.network.signal import NOMINAL_SHAPE, SignalShape
from repro.network.star_coupler import CouplerFault, StarCoupler
from repro.sim.engine import Simulator
from repro.sim.monitor import TraceMonitor
from repro.ttp.constants import CHANNEL_COUNT
from repro.ttp.frames import Frame
from repro.ttp.medl import Medl

#: Receiver signature: (channel_index, transmission, corrupted) -> None.
ReceiverCallback = Callable[[int, Transmission, bool], None]

#: One receive-log entry: (channel_index, transmission, corrupted, arrival).
LogEntry = Tuple[int, Transmission, bool, float]

#: The receive log is trimmed once it holds more than this many entries
#: (or twice what the last trim kept, whichever is larger).
LOG_TRIM_AT = 64


class _TopologyBase:
    """Shared channel bookkeeping for both topologies."""

    def __init__(self, sim: Simulator, medl: Medl,
                 monitor: Optional[TraceMonitor] = None,
                 drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng=None) -> None:
        self.sim = sim
        self.medl = medl
        self.monitor = monitor
        #: One completion process serves both replicated channels, so
        #: same-instant completions fire in global transmit order.
        self.scheduler = ChannelScheduler(sim)
        self.channels: List[Channel] = [
            Channel(sim, name=f"ch{index}", monitor=monitor,
                    drop_probability=drop_probability,
                    corrupt_probability=corrupt_probability,
                    rng=None if rng is None else rng.child(f"ch{index}"),
                    scheduler=self.scheduler)
            for index in range(CHANNEL_COUNT)]
        #: Every completed transmission, once per channel, in completion
        #: order; ``log[0]`` has absolute index ``log_base``.
        self.log: List[LogEntry] = []
        self.log_base = 0
        self._trim_at = LOG_TRIM_AT
        self._readers: List = []
        #: Per-frame subscribers in attach order, each with its on switch.
        self._subscribers: List[list] = []
        #: The switched-on callbacks.  Rebuilt (never mutated) on every
        #: switch, so a fan-out in progress finishes the tuple it started.
        self._receivers: Tuple[ReceiverCallback, ...] = ()
        for index, channel in enumerate(self.channels):
            channel.subscribe(self._make_fanout(index))

    def _make_fanout(self, channel_index: int):
        log = self.log
        sim = self.sim

        def fanout(transmission: Transmission, corrupted: bool) -> None:
            # Logged before the callbacks: a listener that integrates on
            # this frame starts reading right after it.
            log.append((channel_index, transmission, corrupted, sim.now))
            if len(log) > self._trim_at:
                self._trim()
            for receiver in self._receivers:
                receiver(channel_index, transmission, corrupted)
        return fanout

    @property
    def log_end(self) -> int:
        """Absolute index the next log entry will get."""
        return self.log_base + len(self.log)

    def _trim(self) -> None:
        """Drop the entries every reader has consumed.

        A reader whose ``log_cursor`` is None (frozen, initializing,
        listening) consumes nothing and pins nothing.
        """
        log = self.log
        low = self.log_base + len(log)
        for reader in self._readers:
            cursor = reader.log_cursor
            if cursor is not None and cursor < low:
                low = cursor
        del log[:low - self.log_base]
        self.log_base = low
        self._trim_at = max(LOG_TRIM_AT, 2 * len(log))

    def attach_receiver(self, callback: ReceiverCallback) -> None:
        """Register a receiver for every completed transmission."""
        self._subscribers.append([callback, True])
        self._receivers += (callback,)

    def attach_reader(self, reader, callback: ReceiverCallback) -> None:
        """Register a receive-log reader and its per-frame callback.

        ``reader.log_cursor`` is the absolute index of the first entry the
        reader has not consumed, or None while it consumes none.  The
        callback starts switched off (see :meth:`set_listening`).
        """
        self._readers.append(reader)
        self._subscribers.append([callback, False])

    def set_listening(self, callback: ReceiverCallback, on: bool) -> None:
        """Switch a reader's per-frame callback on or off."""
        for subscriber in self._subscribers:
            if subscriber[0] == callback:
                subscriber[1] = on
        self._receivers = tuple(
            subscriber[0] for subscriber in self._subscribers if subscriber[1])

    def send(self, source: str, frame: Frame, duration: float,
             shape: Optional[SignalShape] = None) -> None:
        raise NotImplementedError

    def _drive(self, source: str, channel_index: int,
               transmission: Transmission) -> None:
        """Inject one transmission into a single channel's gate."""
        raise NotImplementedError

    def send_skewed(self, source: str, frame: Frame, duration: float,
                    shape: Optional[SignalShape] = None,
                    skews: Optional[List[float]] = None) -> None:
        """Drive per-channel copies at staggered instants.

        A healthy TTP/C controller clocks the same transmission onto both
        channels simultaneously; a two-faced Byzantine clock shows each
        channel a different face by skewing one copy.  ``skews[i]`` is the
        reference-time delay of channel ``i``'s copy; each copy is its own
        :class:`Transmission` (start times differ), gated by the same
        guardian/coupler path as :meth:`send`.
        """
        sim = self.sim
        resolved_shape = shape or NOMINAL_SHAPE
        deferred: List[Tuple[float, int]] = []
        for index, skew in enumerate(skews or []):
            if index >= len(self.channels):
                break
            if skew < 0:
                raise ValueError(f"skews must be non-negative, got {skew!r}")
            if skew == 0:
                self._drive(source, index, Transmission(
                    frame=frame, source=source, start_time=sim.now,
                    duration=duration, shape=resolved_shape))
            else:
                deferred.append((skew, index))
        if not deferred:
            return
        # A single re-aimed event walks the skew ladder; all copies due
        # at one instant drive in channel order before re-aiming.
        deferred.sort()
        base = sim.now

        def fire() -> None:
            while deferred and base + deferred[0][0] <= sim.now:
                _, channel_index = deferred.pop(0)
                self._drive(source, channel_index, Transmission(
                    frame=frame, source=source, start_time=sim.now,
                    duration=duration, shape=resolved_shape))
            if deferred:
                sim.schedule_at(base + deferred[0][0], fire)

        sim.schedule_at(base + deferred[0][0], fire)


class BusTopology(_TopologyBase):
    """Two shared buses; each node has one local guardian per channel."""

    def __init__(self, sim: Simulator, medl: Medl,
                 monitor: Optional[TraceMonitor] = None,
                 guardian_faults: Optional[Dict[str, GuardianFault]] = None,
                 drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng=None) -> None:
        super().__init__(sim, medl, monitor, drop_probability,
                         corrupt_probability, rng)
        guardian_faults = guardian_faults or {}
        #: guardians[node][channel_index]
        self.guardians: Dict[str, List[LocalBusGuardian]] = {}
        for node_name in medl.node_names():
            fault = guardian_faults.get(node_name, GuardianFault.NONE)
            self.guardians[node_name] = [
                LocalBusGuardian(sim, node_name, medl, channel,
                                 monitor=monitor, fault=fault)
                for channel in self.channels]

    def send(self, source: str, frame: Frame, duration: float,
             shape: Optional[SignalShape] = None) -> None:
        """Drive a frame through the node's guardians onto both buses."""
        # One immutable transmission rides both channels (channels track
        # and collide transmissions by identity, per channel).
        transmission = Transmission(frame=frame, source=source,
                                    start_time=self.sim.now,
                                    duration=duration,
                                    shape=shape or NOMINAL_SHAPE)
        for guardian in self.guardians[source]:
            guardian.transmit(transmission)

    def _drive(self, source: str, channel_index: int,
               transmission: Transmission) -> None:
        self.guardians[source][channel_index].transmit(transmission)

    def synchronize_guardians(self, round_start_ref_time: float) -> None:
        """Anchor every local guardian's slot schedule."""
        for guardians in self.guardians.values():
            for guardian in guardians:
                guardian.synchronize(round_start_ref_time)

    def node_activated(self, node_name: str, round_start_ref_time: float) -> None:
        """A node reached the active state: its guardians learn the grid.

        A local guardian gets its schedule phase from its own (now
        synchronized) controller -- it cannot divine the grid from bus
        traffic, which is precisely why it cannot police the startup phase
        (paper Section 2.2).
        """
        for guardian in self.guardians.get(node_name, []):
            guardian.synchronize(round_start_ref_time)


class StarTopology(_TopologyBase):
    """Two star couplers, one per channel, acting as central guardians."""

    def __init__(self, sim: Simulator, medl: Medl,
                 authority: CouplerAuthority = CouplerAuthority.SMALL_SHIFTING,
                 monitor: Optional[TraceMonitor] = None,
                 coupler_faults: Optional[List[CouplerFault]] = None,
                 replay_delay: Optional[float] = None,
                 replay_limit: Optional[int] = None,
                 drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng=None) -> None:
        super().__init__(sim, medl, monitor, drop_probability,
                         corrupt_probability, rng)
        coupler_faults = coupler_faults or [CouplerFault.NONE] * CHANNEL_COUNT
        if len(coupler_faults) != CHANNEL_COUNT:
            raise ValueError(
                f"need {CHANNEL_COUNT} coupler fault entries, got {len(coupler_faults)}")
        faulty = [fault for fault in coupler_faults if fault is not CouplerFault.NONE]
        if len(faulty) > 1:
            raise ValueError(
                "the TTP/C fault hypothesis allows at most one faulty coupler")
        self.couplers: List[StarCoupler] = [
            StarCoupler(self.sim, name=f"coupler{index}", authority=authority,
                        medl=medl, channel=channel, monitor=monitor,
                        fault=coupler_faults[index],
                        replay_delay=replay_delay, replay_limit=replay_limit)
            for index, channel in enumerate(self.channels)]

    def send(self, source: str, frame: Frame, duration: float,
             shape: Optional[SignalShape] = None) -> None:
        """Drive a frame up both star-coupler uplinks."""
        transmission = Transmission(frame=frame, source=source,
                                    start_time=self.sim.now,
                                    duration=duration,
                                    shape=shape or NOMINAL_SHAPE)
        for coupler in self.couplers:
            coupler.receive_uplink(transmission)

    def _drive(self, source: str, channel_index: int,
               transmission: Transmission) -> None:
        self.couplers[channel_index].receive_uplink(transmission)

    def synchronize_couplers(self, round_start_ref_time: float) -> None:
        """Anchor both couplers' slot schedules."""
        for coupler in self.couplers:
            coupler.synchronize(round_start_ref_time)

    def node_activated(self, node_name: str, round_start_ref_time: float) -> None:
        """A node reached the active state: couplers without semantic
        self-anchoring (passive / time-windows) learn the grid now."""
        for coupler in self.couplers:
            if not coupler.synchronized:
                coupler.synchronize(round_start_ref_time)
