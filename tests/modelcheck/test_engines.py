"""Differential tests: the packed engine must be observationally identical
to the tuple engine -- same verdicts, same exploration counts, same
shortest counterexamples (states *and* labels) -- on the paper's own
configurations.  The packed path is an optimisation, never a semantics
change."""

import warnings
from collections import Counter

import pytest

from repro.core.authority import CouplerAuthority, all_authorities
from repro.core.verification import (expected_verdicts, verify_authority,
                                     verify_config)
from repro.model.config import ModelConfig
from repro.model.coupler_model import (SILENT, ChannelContent,
                                       enumerate_fault_choices)
from repro.model.node_model import node_step
from repro.model.properties import no_clique_freeze
from repro.model.scenarios import (running_cluster_scenario,
                                   scenario_for_authority, trace1_scenario,
                                   trace2_scenario,
                                   unconstrained_full_shifting)
from repro.model.system_model import UNLIMITED, TTAStartupModel
from repro.modelcheck.checker import InvariantChecker, check_invariant
from repro.modelcheck.model import ExplicitTransitionSystem
from repro.modelcheck.state import StateSpace, Variable


def both_engines(config):
    results = {}
    for engine in ("tuple", "packed"):
        system = TTAStartupModel(config)
        checker = InvariantChecker(system, engine=engine)
        results[engine] = checker.check(no_clique_freeze(config))
    return results["tuple"], results["packed"]


def assert_identical(tuple_result, packed_result):
    assert tuple_result.engine == "tuple"
    assert packed_result.engine == "packed"
    assert packed_result.holds == tuple_result.holds
    assert packed_result.states_explored == tuple_result.states_explored
    assert packed_result.transitions_explored == tuple_result.transitions_explored
    assert packed_result.depth_reached == tuple_result.depth_reached
    assert packed_result.truncated == tuple_result.truncated
    if tuple_result.counterexample is None:
        assert packed_result.counterexample is None
    else:
        tuple_steps = [(step.state, step.label)
                       for step in tuple_result.counterexample.steps]
        packed_steps = [(step.state, step.label)
                        for step in packed_result.counterexample.steps]
        assert packed_steps == tuple_steps


@pytest.mark.parametrize("authority", all_authorities(),
                         ids=[a.value for a in all_authorities()])
def test_engines_identical_on_verification_matrix(authority):
    tuple_result, packed_result = both_engines(scenario_for_authority(authority))
    assert_identical(tuple_result, packed_result)
    assert tuple_result.holds == expected_verdicts()[authority]


@pytest.mark.parametrize("make_config, expected_length",
                         [(trace1_scenario, None), (trace2_scenario, None)],
                         ids=["trace1", "trace2"])
def test_engines_identical_on_paper_traces(make_config, expected_length):
    tuple_result, packed_result = both_engines(make_config())
    assert_identical(tuple_result, packed_result)
    assert not tuple_result.holds
    assert len(packed_result.counterexample) == len(tuple_result.counterexample)


def test_auto_engine_selects_packed_for_tta_model():
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    system = TTAStartupModel(config)
    result = InvariantChecker(system).check(no_clique_freeze(config))
    assert result.engine == "packed"


def test_engine_override_via_verify_authority():
    tuple_run = verify_authority(CouplerAuthority.FULL_SHIFTING, engine="tuple")
    packed_run = verify_authority(CouplerAuthority.FULL_SHIFTING,
                                  engine="packed")
    assert tuple_run.check.engine == "tuple"
    assert packed_run.check.engine == "packed"
    assert len(packed_run.counterexample) == len(tuple_run.counterexample)


def test_auto_engine_still_selects_packed():
    """Auto picks the packed engine for the TTA model, with no warning."""
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = verify_config(config, engine="auto")
    assert result.check.engine == "packed"


@pytest.mark.parametrize("engine", ["auto", "packed"])
def test_five_slots_runs_on_every_engine(engine):
    """At 5 slots the packed code passes 64 bits; Python ints carry it,
    so auto and packed run without a warning."""
    config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING, slots=5)
    checker = InvariantChecker(TTAStartupModel(config), max_states=2_000,
                               engine=engine)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = checker.check(no_clique_freeze(config))
    messages = [str(warning.message) for warning in caught
                if issubclass(warning.category, RuntimeWarning)]
    assert messages == []
    assert result.engine == "packed"
    assert result.truncated
    assert result.states_explored == 2_000


@pytest.mark.parametrize("engine", ["quantum", "vectorized"])
def test_unknown_engine_rejected(engine):
    config = scenario_for_authority(CouplerAuthority.PASSIVE)
    with pytest.raises(ValueError, match="engine"):
        InvariantChecker(TTAStartupModel(config), engine=engine)


def test_packed_engine_via_adapter_on_explicit_system():
    """Systems without a native packed path go through the adapter and
    still agree with the tuple engine."""
    space = StateSpace([Variable("n", domain=tuple(range(12)))])
    transitions = {(value,): [((value + 1,), {"step": value})]
                   for value in range(11)}
    transitions[(11,)] = []
    system = ExplicitTransitionSystem(space, [(0,)], transitions)
    tuple_result = check_invariant(system, lambda view: view.n < 7,
                                   engine="tuple")
    packed_result = check_invariant(system, lambda view: view.n < 7,
                                    engine="packed")
    assert packed_result.engine == "packed"
    assert_identical(tuple_result, packed_result)
    assert len(packed_result.counterexample) == 7


def test_successors_batch_matches_successors():
    config = scenario_for_authority(CouplerAuthority.SMALL_SHIFTING)
    system = TTAStartupModel(config)
    for state in system.initial_states():
        expected = []
        for transition in system.successors(state):
            if transition.target not in expected:
                expected.append(transition.target)
        assert system.successors_batch(state) == expected


def bfs_sample(system, reach, size):
    """About ``size`` packed codes spread evenly over the first ``reach``
    states of the packed BFS order, so the sample covers every depth the
    prefix reaches, not just the silent start-up levels."""
    order = list(dict.fromkeys(system.packed_initial_states()))
    seen = set(order)
    position = 0
    while len(order) < reach and position < len(order):
        for target in system.packed_successors(order[position]):
            if target not in seen:
                seen.add(target)
                order.append(target)
        position += 1
    return order[:reach:max(1, min(reach, len(order)) // size)]


def fault_choice_count(system, state):
    """How many fault contexts the model enumerates in ``state``."""
    view = system.space.view(state)
    if not system.config.couplers_can_buffer:
        return len(list(enumerate_fault_choices(system.config,
                                                [SILENT, SILENT], 0)))
    buffers = [ChannelContent(view.c0_buf_kind, view.c0_buf_id),
               ChannelContent(view.c1_buf_kind, view.c1_buf_id)]
    budget = 1 if view.oos_left == UNLIMITED else view.oos_left
    return len(list(enumerate_fault_choices(system.config, buffers, budget)))


def test_packed_successor_order_matches_tuple_order_on_reached_states():
    """On reached states of every slots-4 authority and of the slots-5
    full_shifting check, ``packed_successors`` lists the same targets as
    first-occurrence-deduplicated ``successors``, in the same order.  BFS
    order, ``states_explored`` at a violation and the counterexample all
    depend on it."""
    cases = [(authority, 4, 25_000) for authority in all_authorities()]
    cases.append((CouplerAuthority.FULL_SHIFTING, 5, 30_000))
    fault_counts = set()
    multi_option_states = 0
    for authority, slots, reach in cases:
        system = TTAStartupModel(scenario_for_authority(authority,
                                                        slots=slots))
        codec = system.codec
        for code in bfs_sample(system, reach, 1_500):
            state = codec.unpack(code)
            transitions = list(system.successors(state))
            expected = list(dict.fromkeys(codec.pack(transition.target)
                                          for transition in transitions))
            assert list(system.packed_successors(code)) == expected
            fault_counts.add(fault_choice_count(system, state))
            per_fault = Counter(transition.label["fault"]
                                for transition in transitions)
            if max(per_fault.values()) > 1:
                multi_option_states += 1
    # The sample reaches the shapes the composition special-cases: states
    # where some node has two next locals, and four fault contexts.
    assert multi_option_states > 0
    assert 4 in fault_counts


#: Model variants beyond the verification matrix: other node-group splits
#: (1+1 at two slots, 2+1 at three), an unlimited out-of-slot budget,
#: faults on the other or on either coupler, the paper's full host
#: choices (nodes with three and four next locals), a running cluster,
#: and no big-bang rule with cold-start replay prohibited.
VARIANTS = {
    "slots2": scenario_for_authority(CouplerAuthority.FULL_SHIFTING, slots=2),
    "slots3": scenario_for_authority(CouplerAuthority.FULL_SHIFTING, slots=3),
    "unlimited_out_of_slot": unconstrained_full_shifting(),
    "faulty_coupler_1": scenario_for_authority(
        CouplerAuthority.FULL_SHIFTING, faulty_coupler=1),
    "either_coupler_faulty": scenario_for_authority(
        CouplerAuthority.FULL_SHIFTING, faulty_coupler=None),
    "full_host_choices": ModelConfig(full_host_choices=True),
    "running_cluster": running_cluster_scenario(
        CouplerAuthority.FULL_SHIFTING),
    "no_big_bang_no_replay": ModelConfig(big_bang_enabled=False,
                                         allow_cold_start_replay=False),
    "passive_full_host_choices": ModelConfig(
        authority=CouplerAuthority.PASSIVE, full_host_choices=True),
}


@pytest.mark.parametrize("config", list(VARIANTS.values()),
                         ids=list(VARIANTS))
def test_packed_successors_match_tuple_successors_on_model_variants(config):
    """``packed_successors`` equals first-occurrence-deduplicated
    ``successors`` on reached states of each variant, sampled over the
    BFS order (at most 5,000 expansions per variant)."""
    system = TTAStartupModel(config)
    codec = system.codec
    option_counts = set()
    for code in bfs_sample(system, 50_000, 5_000):
        state = codec.unpack(code)
        expected = list(dict.fromkeys(
            codec.pack(transition.target)
            for transition in system.successors(state)))
        assert list(system.packed_successors(code)) == expected
        option_counts.update(
            len(node_step(config, node_id, system.node_view(state, node_id),
                          (SILENT, SILENT)))
            for node_id in config.node_ids)
    assert max(option_counts) >= 2
    if config.full_host_choices:
        assert {3, 4} <= option_counts
