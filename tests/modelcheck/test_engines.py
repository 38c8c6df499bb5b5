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
from repro.modelcheck.encode import compile_packed_invariant, invariant_flags
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


def kept_lanes(system, code):
    """Per kept fault-context lane of one expansion: the lane's successors
    before cross-lane deduplication, and whether the lane holds several
    options (read off the model's memo tables)."""
    system.packed_flagged_successors(code)
    hi_digits, lo_digits = divmod(code, system._lo_radix)
    tail, hi_digits = divmod(hi_digits, system._hi_radix)
    lo_signature, lo_entries = system._cache_lo_row[lo_digits]
    hi_signature, hi_entries = system._cache_hi_row[hi_digits]
    _, tails, sequence_id, tail_partition = system._cache_context[
        tail << system._signature_bits | lo_signature | hi_signature]
    lo_lanes, lo_partition, _ = lo_entries[sequence_id]
    hi_lanes, hi_partition, _ = hi_entries[sequence_id]
    bits = system._PARTITION_KEY_BITS
    kept, _ = system._cache_kept[
        (lo_partition << bits | hi_partition) << bits | tail_partition]
    return [([tails[lane] + low + high
              for low in lo_lanes[lane] for high in hi_lanes[lane]],
             len(lo_lanes[lane]) * len(hi_lanes[lane]) > 1)
            for lane in kept]


def test_packed_successors_dedup_overlapping_kept_lanes():
    """With an unlimited out-of-slot budget, two kept lanes can share
    successors: both holding multi-option products, or a single-option lane
    and a later multi-option one.  ``packed_successors`` still equals
    first-occurrence-deduplicated ``successors`` there."""
    system = TTAStartupModel(VARIANTS["unlimited_out_of_slot"])
    codec = system.codec
    overlaps = Counter()
    for code in bfs_sample(system, 50_000, 5_000):
        owner = {}
        shapes = set()
        for position, (found, multi) in enumerate(kept_lanes(system, code)):
            for target in found:
                if owner.get(target, (position,))[0] != position:
                    shapes.add((owner[target][1], multi))
                owner.setdefault(target, (position, multi))
        if not shapes:
            continue
        overlaps.update(shapes)
        expected = list(dict.fromkeys(
            codec.pack(transition.target)
            for transition in system.successors(codec.unpack(code))))
        assert list(system.packed_successors(code)) == expected
    assert overlaps[(True, True)] > 0
    assert overlaps[(False, True)] > 0


FLAG_CASES = dict(VARIANTS, slots5=scenario_for_authority(
    CouplerAuthority.FULL_SHIFTING, slots=5))


def test_flagged_expansions_cover_every_clique_freeze_successor():
    """Every sampled expansion with a successor in which some node is in
    ``freeze_clique`` reports flags that meet the invariant's; most
    expansions report none (the invariant is skipped there)."""
    violating = 0
    clean = 0
    expansions = 0
    for name, config in FLAG_CASES.items():
        system = TTAStartupModel(config)
        invariant = no_clique_freeze(config)
        watched = invariant_flags(invariant, system)
        packed_invariant = compile_packed_invariant(invariant, system.codec)
        assert watched > 0, name
        for code in bfs_sample(system, 50_000, 5_000):
            targets, flags = system.packed_flagged_successors(code)
            expansions += 1
            clean += not flags & watched
            for target in targets:
                if not packed_invariant(target):
                    violating += 1
                    assert flags & watched, (name, code)
    assert violating > 0
    assert clean > expansions // 2


def test_five_slot_check_flags_the_violating_expansion():
    """The flagged 5-slot check keeps the recorded counts, and the
    expansion of the counterexample's last-but-one state is flagged."""
    config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING, slots=5)
    system = TTAStartupModel(config)
    invariant = no_clique_freeze(config)
    result = InvariantChecker(system).check(invariant)
    assert (result.verdict, result.states_explored,
            result.transitions_explored, result.depth_reached) == (
        "VIOLATED", 350_635, 922_274, 15)
    codec = system.codec
    *_, before, last = [codec.pack(step.state)
                        for step in result.counterexample.steps]
    targets, flags = system.packed_flagged_successors(before)
    assert last in targets
    assert flags & invariant_flags(invariant, system)


def _comparable(result):
    steps = [(step.state, step.label) for step in result.counterexample.steps]
    return (result.verdict, result.states_explored,
            result.transitions_explored, result.depth_reached, steps)


def test_non_state_forbidden_assignment_checks_every_target():
    """A forbidden assignment on a node variable other than ``*_state`` has
    no flag: the packed check evaluates the invariant on every new state
    and agrees with the tuple engine."""
    config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING)

    def invariant(view):
        return view.a_slot != 3

    invariant.forbidden_assignments = [("a_slot", 3)]
    assert invariant_flags(invariant, TTAStartupModel(config)) == -1
    tuple_result, packed_result = (
        check_invariant(TTAStartupModel(config), invariant, engine=engine)
        for engine in ("tuple", "packed"))
    assert not packed_result.holds
    assert_identical(tuple_result, packed_result)


def test_opaque_invariant_checks_every_target():
    """An invariant without ``forbidden_assignments`` is evaluated on every
    new state and finds the same violation, counts and trace as the
    flagged ``no_clique_freeze`` check."""
    config = scenario_for_authority(CouplerAuthority.FULL_SHIFTING)
    flagged = no_clique_freeze(config)

    def opaque(view):
        return flagged(view)

    assert invariant_flags(opaque, TTAStartupModel(config)) == -1
    flagged_result, opaque_result = (
        InvariantChecker(TTAStartupModel(config)).check(invariant)
        for invariant in (flagged, opaque))
    assert not opaque_result.holds
    assert _comparable(opaque_result) == _comparable(flagged_result)
