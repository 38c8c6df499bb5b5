"""Synchronous composition: the full TTA startup model.

Implements the :class:`repro.modelcheck.TransitionSystem` interface.  One
transition of the system corresponds to one TDMA slot (paper Section 4.2):
within a step,

1. the frames driven by the nodes determine the nominal channel content
   (both channels carry the same nominal content -- nodes send on both);
2. a nondeterministic coupler-fault choice (respecting the single-fault
   hypothesis, the authority level, and the out-of-slot budget) yields the
   actual content of each channel;
3. every node takes one step of its Section 4.3 transition relation given
   the two channel contents;
4. the couplers' frame buffers record the last identifiable frame on their
   channel (full-shifting only).

State layout (see :meth:`TTAStartupModel._build_space`): six variables per
node, plus two buffer variables per coupler and the remaining out-of-slot
budget when the authority level supports frame buffering.  Every variable
declares its finite domain, so the space supports the packed integer
encoding of :mod:`repro.modelcheck.encode`.

Packed fast path
----------------

:meth:`TTAStartupModel.packed_flagged_successors` never materialises
state tuples.  Because the codec is positional, each node's six variables
occupy one contiguous digit block of the packed integer, and a successor
state is the *sum* of per-node contributions plus a buffers/budget tail.
The node blocks are split into two contiguous groups (the first
``ceil(n / 2)`` nodes, then the rest), and one expansion costs two
``divmod`` calls and six plain-int dictionary lookups over four memo
levels:

* ``(node, local-code, channels) -> shifted next-local codes`` caches the
  Section 4.3 node relation (the dominant cost of the tuple path) with
  the state flags of those next locals; it is only read when a row entry
  is built;
* ``(senders, buffers, budget) -> fault contexts`` caches the Section 4.4
  coupler fault enumeration, with each choice whose channel pair and
  successor tail repeat an earlier one dropped: one *lane* per remaining
  choice, each with its successor tail.  It names the channel-pair
  *sequence* by a small id;
* ``group digits -> row``: a group's sender signature and, per channel-pair
  sequence, one *entry*: per lane, the sums of the product of the group's
  node options (a single sum when every node has one next local), and the
  OR of the options' state flags;
* ``(low, high, tail) lane partitions -> kept lanes``: each entry and
  each context records the partition of its lanes by equality as a small
  id.  A lane whose tail, low sums and high sums all equal an earlier
  lane's repeats its successors, so only the first lane of each class is
  composed, as ``tail + low + high`` over its sums, low group outer and
  high group inner.  Tail, low and high digits are disjoint, so kept lanes
  can still share a successor only when their tails are equal and, per
  group, their sums are equal or one side holds several; only then does
  first-occurrence deduplication run.

The flags mark, per node, every protocol state an option enters
(:meth:`TTAStartupModel.assignment_flag`), so the checker evaluates an
invariant that forbids node states only after the few expansions whose
flags meet it.

None of these tables is keyed by global state (a breadth-first search
expands each state once), so they stay small while the search grows.

The packed enumeration preserves the exact successor order of
:meth:`successors` (fault choice order, then node order), so a
breadth-first search over codes visits states in the same order as one
over tuples and reconstructs identical shortest counterexamples.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.config import FAULT_NONE, FAULT_OUT_OF_SLOT, ModelConfig
from repro.model.coupler_model import (
    KIND_BAD_FRAME,
    KIND_C_STATE,
    KIND_COLD_START,
    KIND_NONE,
    SILENT,
    ChannelContent,
    apply_fault,
    enumerate_fault_choices,
    nominal_content,
    update_buffer,
)
from repro.model.node_model import (
    ST_ACTIVE,
    ST_AWAIT,
    ST_COLD_START,
    ST_FREEZE,
    ST_FREEZE_CLIQUE,
    ST_INIT,
    ST_LISTEN,
    ST_PASSIVE,
    ST_TEST,
    NodeLocal,
    frame_sent,
    initial_local,
    node_step,
)
from repro.modelcheck.encode import StateCodec
from repro.modelcheck.model import Transition
from repro.modelcheck.state import StateSpace, Variable

#: Sentinel for "unlimited out-of-slot errors".
UNLIMITED = -1

#: Domain of every ``*_state`` variable (all Section 4.3 protocol states).
NODE_STATE_DOMAIN = (ST_FREEZE, ST_FREEZE_CLIQUE, ST_INIT, ST_LISTEN,
                     ST_COLD_START, ST_ACTIVE, ST_PASSIVE, ST_AWAIT, ST_TEST)

#: Domain of the coupler buffer kind variables.
BUFFER_KIND_DOMAIN = (KIND_NONE, KIND_COLD_START, KIND_C_STATE, KIND_BAD_FRAME)

#: Variables per node block (state, slot, big_bang, timeout, agreed, failed).
_VARS_PER_NODE = 6


class TTAStartupModel:
    """The Section 4 model as an explicit transition system."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        self.space = self._build_space()
        self._node_ids = config.node_ids
        self._has_buffers = config.couplers_can_buffer
        self._codec: Optional[StateCodec] = None
        self._packed_ready = False

    # -- state layout -------------------------------------------------------------

    def _build_space(self) -> StateSpace:
        config = self.config
        slot_domain = tuple(range(config.slots + 1))
        timeout_domain = tuple(range(2 * config.slots + 1))
        counter_domain = tuple(range(config.counter_cap + 1))
        variables: List[Variable] = []
        for name in config.node_names:
            prefix = name.lower()
            variables.append(Variable(f"{prefix}_state", NODE_STATE_DOMAIN))
            variables.append(Variable(f"{prefix}_slot", slot_domain))
            variables.append(Variable(f"{prefix}_big_bang", (False, True)))
            variables.append(Variable(f"{prefix}_timeout", timeout_domain))
            variables.append(Variable(f"{prefix}_agreed", counter_domain))
            variables.append(Variable(f"{prefix}_failed", counter_domain))
        if config.couplers_can_buffer:
            frame_id_domain = tuple(range(config.slots + 1))
            budget = config.out_of_slot_budget
            if budget is None:
                oos_domain: Tuple[int, ...] = (UNLIMITED,)
            else:
                oos_domain = tuple(range(UNLIMITED, budget + 1))
            for index in (0, 1):
                variables.append(Variable(f"c{index}_buf_kind",
                                          BUFFER_KIND_DOMAIN))
                variables.append(Variable(f"c{index}_buf_id", frame_id_domain))
            variables.append(Variable("oos_left", oos_domain))
        return StateSpace(variables)

    @property
    def codec(self) -> StateCodec:
        """Packed-integer codec over the declared domains (built lazily)."""
        if self._codec is None:
            self._codec = StateCodec(self.space)
        return self._codec

    def _pack(self, locals_: List[NodeLocal], buffers: List[ChannelContent],
              oos_left: int) -> tuple:
        values: List = []
        for local in locals_:
            values.extend(local)
        if self._has_buffers:
            for buffered in buffers:
                values.append(buffered.kind)
                values.append(buffered.frame_id)
            values.append(oos_left)
        return tuple(values)

    def _unpack(self, state: tuple) -> Tuple[List[NodeLocal], List[ChannelContent], int]:
        locals_: List[NodeLocal] = []
        position = 0
        for _ in self._node_ids:
            locals_.append(NodeLocal(*state[position:position + _VARS_PER_NODE]))
            position += _VARS_PER_NODE
        if self._has_buffers:
            buffers = [
                ChannelContent(kind=state[position], frame_id=state[position + 1]),
                ChannelContent(kind=state[position + 2], frame_id=state[position + 3]),
            ]
            oos_left = state[position + 4]
        else:
            buffers = [SILENT, SILENT]
            oos_left = 0
        return locals_, buffers, oos_left

    # -- pickling (parallel workers rebuild the packed tables locally) -----------

    def __getstate__(self) -> dict:
        """Only the config crosses a process boundary: the codec, the digit
        geometry and every memo table are rebuilt lazily on the other side."""
        return {"config": self.config}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["config"])

    # -- TransitionSystem interface -----------------------------------------------------

    def initial_states(self) -> Iterator[tuple]:
        budget = self.config.out_of_slot_budget
        oos_left = UNLIMITED if budget is None else budget
        if not self.config.start_running:
            locals_ = [initial_local() for _ in self._node_ids]
            yield self._pack(locals_, [SILENT, SILENT], oos_left)
            return
        # Running cluster: every node but the last is active, at each
        # possible round position (the late node sees an arbitrary phase).
        # Each active node carries the clique counters it would have
        # accumulated since its own last round test: one agreed slot per
        # completed slot whose sender is up (its own send included), none
        # for the down node's silent slot.  Anything less would fabricate
        # round tests on empty counters and freeze healthy nodes.
        slots = self.config.slots
        down_node = slots

        def agreed_since_own_test(node_id: int, current_slot: int) -> int:
            agreed = 0
            slot = node_id
            while slot != current_slot:
                if slot != down_node:
                    agreed += 1
                slot = 1 if slot == slots else slot + 1
            return min(agreed, self.config.counter_cap)

        for slot in range(1, slots + 1):
            locals_ = [
                NodeLocal(ST_ACTIVE, slot, False, 0,
                          agreed_since_own_test(node_id, slot), 0)
                for node_id in self._node_ids[:-1]
            ]
            locals_.append(initial_local())
            yield self._pack(locals_, [SILENT, SILENT], oos_left)

    def successors(self, state: tuple) -> Iterator[Transition]:
        config = self.config
        locals_, buffers, oos_left = self._unpack(state)

        senders = []
        for node_id, local in zip(self._node_ids, locals_):
            kind = frame_sent(local, node_id)
            if kind != "none":
                senders.append((node_id, kind))
        nominal = nominal_content(senders)

        seen: Dict[tuple, None] = {}
        budget_for_choice = 1 if oos_left == UNLIMITED else oos_left
        for fault0, fault1 in enumerate_fault_choices(config, buffers,
                                                      budget_for_choice):
            channel0 = apply_fault(fault0, nominal, buffers[0])
            channel1 = apply_fault(fault1, nominal, buffers[1])
            channels = (channel0, channel1)

            new_buffers = [update_buffer(buffers[0], channel0),
                           update_buffer(buffers[1], channel1)]
            used_out_of_slot = FAULT_OUT_OF_SLOT in (fault0, fault1)
            if oos_left == UNLIMITED:
                new_oos = UNLIMITED
            else:
                new_oos = oos_left - (1 if used_out_of_slot else 0)

            per_node_options = [
                node_step(config, node_id, local, channels)
                for node_id, local in zip(self._node_ids, locals_)
            ]
            label = {
                "fault": self._fault_label(fault0, fault1),
                "ch0": self._content_label(channel0),
                "ch1": self._content_label(channel1),
            }
            for combo in itertools.product(*per_node_options):
                packed = self._pack(list(combo), new_buffers, new_oos)
                if packed in seen:
                    continue
                seen[packed] = None
                yield Transition(target=packed, label=label)

    def successors_batch(self, state: tuple) -> List[tuple]:
        """Successor target tuples without labels or Transition objects.

        The label-free sibling of :meth:`successors` for callers that only
        need the targets (reachability counts, deadlock scans).  Backed by
        the packed fast path, which keeps the :meth:`successors` order.
        """
        codec = self.codec
        unpack = codec.unpack
        return [unpack(code) for code in self.packed_successors(codec.pack(state))]

    # -- packed fast path ---------------------------------------------------------

    #: Bits reserved for the interned channel-pair id inside node-step memo
    #: keys; the distinct (channel0, channel1) pairs of one model are far
    #: fewer than 2**12.
    _PAIR_KEY_BITS = 12

    #: Bits per interned lane-partition id inside kept-lanes memo keys; a
    #: handful of fault contexts admits far fewer partitions than 2**16.
    _PARTITION_KEY_BITS = 16

    def _build_packed_tables(self) -> None:
        """Precompute the digit geometry and memo tables (lazy, idempotent)."""
        node_count = len(self._node_ids)
        block_vars = self.space.variables[:_VARS_PER_NODE]
        block_radix = 1
        for variable in block_vars:
            block_radix *= len(variable.domain)
        self._block_radix = block_radix
        self._node_count = node_count
        #: Node block i's contribution scale: block_radix ** i.
        self._node_scale = tuple(block_radix ** index
                                 for index in range(node_count))
        self._tail_scale = block_radix ** node_count
        #: The low group is the first ``ceil(node_count / 2)`` node blocks,
        #: the high group the rest; the tail digits sit above both.
        lo_count = node_count - node_count // 2
        self._lo_radix = block_radix ** lo_count
        self._hi_radix = block_radix ** (node_count - lo_count)
        self._lo_nodes = range(lo_count)
        self._hi_nodes = range(lo_count, node_count)
        self._signature_bits = 2 * node_count
        #: ``*_state`` variable name -> node index (invariant flags).
        self._state_variable_node = {
            f"{name.lower()}_state": index
            for index, name in enumerate(self.config.node_names)}
        #: Intra-block packing tables (identical layout for every node).
        self._local_index = tuple(
            {value: index for index, value in enumerate(variable.domain)}
            for variable in block_vars)
        self._local_domains = tuple(tuple(variable.domain)
                                    for variable in block_vars)
        self._local_radices = tuple(len(variable.domain)
                                    for variable in block_vars)
        # Memo tables, none keyed by global state.  Named ``_cache_*`` so
        # their sizes can be audited together.
        self._cache_local_of_code: Dict[int, NodeLocal] = {}
        #: step key (local code, node, channel pair) ->
        #: (shifted next locals, their state flags).
        self._cache_step: Dict[int, Tuple[Tuple[int, ...], int]] = {}
        #: group digits -> (sender signature, {sequence id: row entry}).
        self._cache_lo_row: Dict[int, Tuple[int, Dict[int, tuple]]] = {}
        self._cache_hi_row: Dict[int, Tuple[int, Dict[int, tuple]]] = {}
        #: tail digits and sender signature -> fault contexts.
        self._cache_context: Dict[int, tuple] = {}
        #: channel-pair sequence -> sequence id.
        self._cache_sequence: Dict[Tuple[int, ...], int] = {}
        #: Channel pairs interned to small ints for compact memo keys.
        self._cache_pair_key: Dict[Tuple[str, int, str, int], int] = {}
        #: (lane labels, lane multi-option marks) -> partition id.
        self._cache_partition: Dict[tuple, int] = {}
        #: (lo, hi, tail) partition ids -> (kept lanes, dedup needed).
        self._cache_kept: Dict[int, Tuple[Tuple[int, ...], bool]] = {}
        self._packed_ready = True

    def _encode_local(self, local: NodeLocal) -> int:
        code = 0
        scale = 1
        for value, table, radix in zip(local, self._local_index,
                                       self._local_radices):
            code += table[value] * scale
            scale *= radix
        return code

    def _decode_local(self, code: int) -> NodeLocal:
        local = self._cache_local_of_code.get(code)
        if local is None:
            values = []
            rest = code
            for radix, domain in zip(self._local_radices, self._local_domains):
                rest, digit = divmod(rest, radix)
                values.append(domain[digit])
            local = NodeLocal(*values)
            self._cache_local_of_code[code] = local
        return local

    def _state_flag(self, node_index: int, state: str) -> int:
        """Flag bit of node ``node_index`` entering protocol state ``state``."""
        return 1 << (node_index * len(NODE_STATE_DOMAIN)
                     + self._local_index[0][state])

    def assignment_flag(self, name: str, value: object) -> Optional[int]:
        """The successor flag raised by an expansion in which some successor
        may carry ``name == value``, or None when that assignment has no
        flag (only node ``*_state`` variables have flags).

        :func:`repro.modelcheck.encode.invariant_flags` ORs these over an
        invariant's ``forbidden_assignments``; the checker then evaluates
        the invariant only on the successors of flagged expansions.
        """
        if not self._packed_ready:
            self._build_packed_tables()
        node_index = self._state_variable_node.get(name)
        if node_index is None or value not in self._local_index[0]:
            return None
        return self._state_flag(node_index, value)

    def _intern_pair(self, channel0: ChannelContent,
                     channel1: ChannelContent) -> int:
        key = (channel0.kind, channel0.frame_id,
               channel1.kind, channel1.frame_id)
        interned = self._cache_pair_key.get(key)
        if interned is None:
            interned = len(self._cache_pair_key)
            if interned >= 1 << self._PAIR_KEY_BITS:  # pragma: no cover
                raise AssertionError("channel-pair intern table overflow")
            self._cache_pair_key[key] = interned
        return interned

    def _partition_id(self, lanes: tuple, multi: Tuple[bool, ...]) -> int:
        """Interned id of the partition of ``lanes`` by equality.

        Lane ``i`` is labelled with the first lane equal to it; ``multi``
        marks the lanes that hold several options.
        """
        first: Dict[object, int] = {}
        labels = tuple(first.setdefault(lane, index)
                       for index, lane in enumerate(lanes))
        key = (labels, multi)
        interned = self._cache_partition.get(key)
        if interned is None:
            interned = len(self._cache_partition)
            if interned >= 1 << self._PARTITION_KEY_BITS:  # pragma: no cover
                raise AssertionError("lane-partition intern table overflow")
            self._cache_partition[key] = interned
        return interned

    def _build_kept(self, key: int) -> Tuple[Tuple[int, ...], bool]:
        """The lanes one expansion composes, from its three lane partitions.

        ``key`` packs the low entry's, the high entry's and the context's
        partition ids.  A lane whose tail, low options and high options all
        equal an earlier lane's repeats that lane's successors in the same
        order, so it is dropped.  The tail, low and high digits of a code
        are disjoint, so two kept lanes can only share a successor when
        their tails are equal and, in each group, their options are equal
        or one of them holds several; only then is first-occurrence
        deduplication still needed.
        """
        bits = self._PARTITION_KEY_BITS
        mask = (1 << bits) - 1
        partitions = list(self._cache_partition)
        lo_labels, lo_multi = partitions[key >> 2 * bits]
        hi_labels, hi_multi = partitions[key >> bits & mask]
        tail_labels, _ = partitions[key & mask]
        triples = list(zip(tail_labels, lo_labels, hi_labels))
        kept = tuple(lane for lane, triple in enumerate(triples)
                     if triples.index(triple) == lane)

        def may_share(labels: tuple, multi: tuple, a: int, b: int) -> bool:
            return labels[a] == labels[b] or multi[a] or multi[b]

        dedup = any(tail_labels[a] == tail_labels[b]
                    and may_share(lo_labels, lo_multi, a, b)
                    and may_share(hi_labels, hi_multi, a, b)
                    for a, b in itertools.combinations(kept, 2))
        self._cache_kept[key] = (kept, dedup)
        return kept, dedup

    def _decode_tail(self, tail_code: int) -> Tuple[List[ChannelContent], int]:
        """Decode the buffers + out-of-slot budget digits."""
        if not self._has_buffers:
            return [SILENT, SILENT], 0
        offset = _VARS_PER_NODE * len(self._node_ids)
        variables = self.space.variables[offset:]
        values = []
        rest = tail_code
        for variable in variables:
            rest, digit = divmod(rest, len(variable.domain))
            values.append(variable.domain[digit])
        buffers = [ChannelContent(kind=values[0], frame_id=values[1]),
                   ChannelContent(kind=values[2], frame_id=values[3])]
        return buffers, values[4]

    def _tail_code_of(self, buffers: List[ChannelContent], oos_left: int) -> int:
        if not self._has_buffers:
            return 0
        values = (buffers[0].kind, buffers[0].frame_id,
                  buffers[1].kind, buffers[1].frame_id, oos_left)
        offset = _VARS_PER_NODE * len(self._node_ids)
        code = 0
        scale = 1
        for variable, value in zip(self.space.variables[offset:], values):
            code += variable.domain.index(value) * scale
            scale *= len(variable.domain)
        return code

    def _group_locals(self, digits: int,
                      nodes: range) -> List[Tuple[int, int]]:
        """``(node_index, local_code)`` of each node of a group."""
        found = []
        for node_index in nodes:
            digits, local_code = divmod(digits, self._block_radix)
            found.append((node_index, local_code))
        return found

    def _build_row(self, rows: Dict[int, tuple], digits: int,
                   nodes: range) -> tuple:
        """A node group's sender signature and (empty) entry table.

        The signature sets bit ``2 * node_index + (kind == c_state)`` per
        sender, so the OR of the two groups' signatures tells every
        nominal channel content apart.
        """
        signature = 0
        for node_index, local_code in self._group_locals(digits, nodes):
            kind = frame_sent(self._decode_local(local_code), node_index + 1)
            if kind != "none":
                signature |= 1 << (2 * node_index + (kind == KIND_C_STATE))
        row = (signature, {})
        rows[digits] = row
        return row

    def _build_contexts(self, key: int) -> tuple:
        """All fault choices for one step context, with precomputed pieces.

        The context of a step is fully determined by the senders and the
        tail digits (buffers + out-of-slot budget), packed into ``key`` as
        ``tail << (2 * node_count) | sender signature``.  A fault choice whose
        channel pair and successor tail repeat an earlier one is dropped:
        it yields the same successors, which first-occurrence
        deduplication would discard anyway.  The value is ``(channels,
        tails, sequence_id, partition_id)``: the post-fault channel pairs
        and their interned ids, the successor tail of each lane, the id of
        the channel-pair sequence (row entries depend on nothing else), and
        the id of the tails' lane partition.
        """
        tail_code, signature = divmod(key, 1 << self._signature_bits)
        nominal = nominal_content([
            (bit // 2 + 1, KIND_C_STATE if bit % 2 else KIND_COLD_START)
            for bit in range(self._signature_bits) if signature >> bit & 1])
        buffers, oos_left = self._decode_tail(tail_code)
        config = self.config
        budget_for_choice = 1 if oos_left == UNLIMITED else oos_left
        kept: Dict[Tuple[int, int], tuple] = {}
        for fault0, fault1 in enumerate_fault_choices(config, buffers,
                                                      budget_for_choice):
            channel0 = apply_fault(fault0, nominal, buffers[0])
            channel1 = apply_fault(fault1, nominal, buffers[1])
            new_buffers = [update_buffer(buffers[0], channel0),
                           update_buffer(buffers[1], channel1)]
            used_out_of_slot = FAULT_OUT_OF_SLOT in (fault0, fault1)
            if oos_left == UNLIMITED:
                new_oos = UNLIMITED
            else:
                new_oos = oos_left - (1 if used_out_of_slot else 0)
            pair_key = self._intern_pair(channel0, channel1)
            tail = self._tail_code_of(new_buffers, new_oos) * self._tail_scale
            kept.setdefault((pair_key, tail), (channel0, channel1))
        tails = tuple(tail for _, tail in kept)
        sequence = tuple(pair_key for pair_key, _ in kept)
        sequence_id = self._cache_sequence.setdefault(
            sequence, len(self._cache_sequence))
        channels = tuple(zip(sequence, kept.values()))
        contexts = (channels, tails, sequence_id,
                    self._partition_id(tails, (False,) * len(tails)))
        self._cache_context[key] = contexts
        return contexts

    def _build_entry(self, entries: Dict[int, tuple], digits: int,
                     nodes: range, contexts: tuple) -> tuple:
        """A node group's contribution under one channel-pair sequence.

        The entry is ``(lanes, partition_id, flags)``: per fault context,
        the sums of the product of the group's node options in node order
        (one sum when every node has a single next local); the id of the
        lanes' partition by equality; and the state flags of every option.
        Equal lanes share one tuple.
        """
        channels, _, sequence_id, _ = contexts
        node_keys = [(local_code * self._node_count + node_index)
                     << self._PAIR_KEY_BITS
                     for node_index, local_code
                     in self._group_locals(digits, nodes)]
        step_cache = self._cache_step
        flags = 0
        shared: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        lanes = []
        for pair_key, pair in channels:
            sums: Tuple[int, ...] = (0,)
            for node_key in node_keys:
                step_key = node_key | pair_key
                cached = step_cache.get(step_key)
                if cached is None:
                    cached = self._build_node_options(step_key, pair)
                options, option_flags = cached
                flags |= option_flags
                sums = tuple(total + option
                             for total in sums for option in options)
            lanes.append(shared.setdefault(sums, sums))
        lanes_tuple = tuple(lanes)
        entry = (lanes_tuple,
                 self._partition_id(lanes_tuple,
                                    tuple(len(lane) > 1 for lane in lanes)),
                 flags)
        entries[sequence_id] = entry
        return entry

    def _build_node_options(self, step_key: int,
                            channels: Tuple[ChannelContent, ChannelContent]
                            ) -> Tuple[Tuple[int, ...], int]:
        """Shifted packed codes of one node's distinct next locals, and the
        state flags they raise (memo miss path)."""
        local_code, node_index = divmod(step_key >> self._PAIR_KEY_BITS,
                                        self._node_count)
        local = self._decode_local(local_code)
        scale = self._node_scale[node_index]
        next_locals = node_step(self.config, self._node_ids[node_index],
                                local, channels)
        options = tuple(dict.fromkeys(self._encode_local(next_local) * scale
                                      for next_local in next_locals))
        flags = 0
        for next_local in next_locals:
            flags |= self._state_flag(node_index, next_local.state)
        self._cache_step[step_key] = (options, flags)
        return options, flags

    def packed_initial_states(self) -> List[int]:
        codec = self.codec
        return [codec.pack(state) for state in self.initial_states()]

    def packed_successors(self, code: int) -> Tuple[int, ...]:
        """Packed successor codes, in :meth:`successors` enumeration order."""
        return tuple(self.packed_flagged_successors(code)[0])

    def packed_flagged_successors(self, code: int) -> Tuple[List[int], int]:
        """Packed successor codes in :meth:`successors` order, and the state
        flags of the expansion (see :meth:`assignment_flag`).

        Pure integer composition from two row entries and one context: each
        kept lane yields ``tail + low + high`` over its low and high option
        sums, low group outer and high group inner (node order), so the
        order is that of :meth:`successors`.  The flags carry the bit of
        every protocol state some node enters in some successor.
        """
        if not self._packed_ready:
            self._build_packed_tables()
        hi_digits, lo_digits = divmod(code, self._lo_radix)
        tail, hi_digits = divmod(hi_digits, self._hi_radix)
        # Misses are rare after the first levels, so the lookups are plain
        # subscripts and the builders run in the KeyError handlers.
        try:
            lo_signature, lo_entries = self._cache_lo_row[lo_digits]
        except KeyError:
            lo_signature, lo_entries = self._build_row(
                self._cache_lo_row, lo_digits, self._lo_nodes)
        try:
            hi_signature, hi_entries = self._cache_hi_row[hi_digits]
        except KeyError:
            hi_signature, hi_entries = self._build_row(
                self._cache_hi_row, hi_digits, self._hi_nodes)
        key = tail << self._signature_bits | lo_signature | hi_signature
        try:
            contexts = self._cache_context[key]
        except KeyError:
            contexts = self._build_contexts(key)
        _, tails, sequence_id, tail_partition = contexts
        try:
            lo_lanes, lo_partition, lo_flags = lo_entries[sequence_id]
        except KeyError:
            lo_lanes, lo_partition, lo_flags = self._build_entry(
                lo_entries, lo_digits, self._lo_nodes, contexts)
        try:
            hi_lanes, hi_partition, hi_flags = hi_entries[sequence_id]
        except KeyError:
            hi_lanes, hi_partition, hi_flags = self._build_entry(
                hi_entries, hi_digits, self._hi_nodes, contexts)
        bits = self._PARTITION_KEY_BITS
        kept_key = (lo_partition << bits | hi_partition) << bits | tail_partition
        try:
            kept, dedup = self._cache_kept[kept_key]
        except KeyError:
            kept, dedup = self._build_kept(kept_key)
        found = [tails[lane] + low + high for lane in kept
                 for low in lo_lanes[lane] for high in hi_lanes[lane]]
        if dedup:
            found = list(dict.fromkeys(found))
        return found, lo_flags | hi_flags

    # -- labels ------------------------------------------------------------------------

    @staticmethod
    def _fault_label(fault0: str, fault1: str) -> str:
        if fault0 == FAULT_NONE and fault1 == FAULT_NONE:
            return "none"
        if fault0 != FAULT_NONE:
            return f"coupler0:{fault0}"
        return f"coupler1:{fault1}"

    def _content_label(self, content: ChannelContent) -> str:
        if content.frame_id == 0:
            return content.kind
        return f"{content.kind}#{self.config.name_of(content.frame_id)}"

    # -- conveniences -----------------------------------------------------------------------

    def node_view(self, state: tuple, node_id: int) -> NodeLocal:
        """The local state of one node inside a packed state."""
        locals_, _, _ = self._unpack(state)
        return locals_[node_id - 1]
