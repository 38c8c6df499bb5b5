"""Tests for the synchronous composition."""

import dataclasses
import pickle

from repro.core.authority import CouplerAuthority
from repro.model.config import ModelConfig
from repro.model.node_model import ST_FREEZE, ST_LISTEN, frame_sent
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import scenario_for_authority
from repro.model.system_model import UNLIMITED, TTAStartupModel
from repro.modelcheck.checker import InvariantChecker


def passive_model():
    return TTAStartupModel(scenario_for_authority(CouplerAuthority.PASSIVE))


def full_model(**kwargs):
    return TTAStartupModel(ModelConfig(authority=CouplerAuthority.FULL_SHIFTING,
                                       **kwargs))


def test_state_space_layout_without_buffers():
    model = passive_model()
    names = model.space.names
    assert "a_state" in names and "d_failed" in names
    assert "c0_buf_kind" not in names  # no buffering below full shifting
    assert len(names) == 4 * 6


def test_state_space_layout_with_buffers():
    model = full_model()
    names = model.space.names
    assert "c0_buf_kind" in names and "c1_buf_id" in names
    assert "oos_left" in names
    assert len(names) == 4 * 6 + 5


def test_single_initial_state_all_frozen():
    model = full_model()
    (initial,) = list(model.initial_states())
    view = model.space.view(initial)
    assert all(view[f"{name}_state"] == ST_FREEZE for name in "abcd")
    assert view.oos_left == 1
    assert view.c0_buf_kind == "none"


def test_unlimited_budget_sentinel():
    model = full_model(out_of_slot_budget=None)
    (initial,) = list(model.initial_states())
    assert model.space.view(initial).oos_left == UNLIMITED


def test_successors_nonempty_and_deduplicated():
    model = passive_model()
    (initial,) = list(model.initial_states())
    successors = list(model.successors(initial))
    targets = [transition.target for transition in successors]
    assert targets
    assert len(targets) == len(set(targets))


def test_initial_branching_is_node_choices_only():
    """From all-frozen, each node may stay or enter init: 2^4 distinct
    states (faults are indistinguishable on a silent bus)."""
    model = passive_model()
    (initial,) = list(model.initial_states())
    assert len(list(model.successors(initial))) == 16


def test_transition_labels_describe_channels_and_fault():
    model = passive_model()
    (initial,) = list(model.initial_states())
    labels = [transition.label for transition in model.successors(initial)]
    assert all({"fault", "ch0", "ch1"} <= set(label) for label in labels)
    assert all(label["ch0"] == "none" for label in labels)


def test_node_view_unpacks_locals():
    model = full_model()
    (initial,) = list(model.initial_states())
    local = model.node_view(initial, 1)
    assert local.state == ST_FREEZE


def test_deterministic_successor_order():
    model = full_model()
    (initial,) = list(model.initial_states())
    first = [transition.target for transition in model.successors(initial)]
    second = [transition.target for transition in model.successors(initial)]
    assert first == second


def test_listen_node_progression_reachable():
    """Drive one specific path: A alone leaves freeze, reaches listen."""
    model = passive_model()
    (state,) = list(model.initial_states())
    # Choose the successor where only A entered init.
    for transition in model.successors(state):
        view = model.space.view(transition.target)
        if view.a_state == "init" and all(
                view[f"{name}_state"] == ST_FREEZE for name in "bcd"):
            state = transition.target
            break
    found_listen = False
    for transition in model.successors(state):
        view = model.space.view(transition.target)
        if view.a_state == ST_LISTEN:
            found_listen = True
            assert view.a_timeout == 5  # slots + node_id = 4 + 1
    assert found_listen


def test_memo_tables_stay_far_below_the_state_count():
    """The packed path memoizes per local state x channel pair, never per
    global state: after the full slots-4 full_shifting check the
    ``_cache_*`` tables together hold far fewer entries than the states
    explored (1,819 against 20,806)."""
    config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING)
    model = TTAStartupModel(config)
    result = InvariantChecker(model).check(no_clique_freeze(config))
    assert result.engine == "packed"
    assert result.states_explored == 20_806
    entries = sum(len(table) for name, table in vars(model).items()
                  if name.startswith("_cache_"))
    assert 0 < entries * 10 < result.states_explored


def test_pickled_model_carries_no_memo_state_and_rechecks_identically():
    """Only the config crosses a pickle: no ``_cache_*`` table, row,
    context or lane geometry survives, and a re-check of the unpickled
    model gives the same result as the first check."""
    config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING)
    model = TTAStartupModel(config)
    first = InvariantChecker(model).check(no_clique_freeze(config))
    assert any(name.startswith("_cache_") for name in vars(model))
    clone = pickle.loads(pickle.dumps(model))
    assert set(vars(clone)) == set(vars(TTAStartupModel(config)))
    assert not any(name.startswith("_cache_") for name in vars(clone))
    assert "_block_radix" not in vars(clone)
    assert clone.config == config
    second = InvariantChecker(clone).check(no_clique_freeze(config))

    def comparable(result):
        steps = [(step.state, step.label)
                 for step in result.counterexample.steps]
        return dataclasses.replace(result, elapsed_seconds=0.0,
                                   counterexample=None), steps

    assert comparable(second) == comparable(first)


def test_fault_contexts_drop_twin_choices_on_a_silent_channel():
    """On a silent nominal channel, coupler 0's ``silence`` fault repeats
    the fault-free channel pair and successor tail.  The cached context
    lists keep no such twin, and the successors of reached silent states
    still equal the tuple path's, first occurrences in order."""
    config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING)
    model = TTAStartupModel(config)
    codec = model.codec
    order = [codec.pack(state) for state in model.initial_states()]
    model.packed_successors(order[0])
    # The all-frozen start: fault-free, silence and bad_frame on coupler
    # 0 (the empty buffer rules out a replay); silence is the dropped twin.
    ((channels, _, _, _),) = model._cache_context.values()
    assert len(channels) == 2
    for code in order:
        if len(order) >= 3_000:
            break
        order.extend(target for target in model.packed_successors(code)
                     if target not in order)
    silent = [codec.unpack(code) for code in order
              if all(frame_sent(model.node_view(codec.unpack(code), node_id),
                                node_id) == "none"
                     for node_id in config.node_ids)]
    assert len(silent) > 100
    for state in silent:
        expected = list(dict.fromkeys(
            codec.pack(transition.target)
            for transition in model.successors(state)))
        assert list(model.packed_successors(codec.pack(state))) == expected
    for channels, tails, _, _ in model._cache_context.values():
        twins = [(pair_key, tail)
                 for (pair_key, _), tail in zip(channels, tails)]
        assert len(set(twins)) == len(twins)
