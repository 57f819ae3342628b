"""Differential tests: aptk.lts.isomorphic, aptk.lts.bisimilar and
aptk.lts.is_persistent against the versions kept in reference_lts.py,
which scanned `mapping.values()` once per mapped state, tested every pair
of states for the relation, and scanned a state's arcs for each successor.
They must give the same verdict, witness and detail on every input.

The small-cycle checks are compared with the reference cycle search,
which counted each cycle's labels from its whole path: the same vectors
in the same order, the same verdicts, or the same error type."""

import random
import tracemalloc
from collections import Counter, defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, seed, settings, strategies as st

import reference_lts
from aptk import Lts, bisimilar, is_persistent, isomorphic, lts as ltsmod, petri, reachability_graph
from aptk.common import AptError, PreconditionError, StateLimitExceededError
from aptk.generators import bitnet, cyclenet, philnet_bistate
from reference_lts import bisimilar as reference_bisimilar
from reference_lts import is_persistent as reference_is_persistent
from reference_lts import isomorphic as reference_isomorphic
from test_closure_differential import random_lts
from test_lts import _nth_letter_from_the_end, small_lts
from test_synthesis import _canonical_instances


def _same(check, expected):
    return (check.ok, check.witness, check.detail) == (
        expected.ok,
        expected.witness,
        expected.detail,
    )


def _renamed(lts):
    return Lts.from_data(
        f"copy_{lts.initial}",
        [(f"copy_{a.source}", a.label, f"copy_{a.target}") for a in lts.arcs],
        states=[f"copy_{s}" for s in lts.states],
        labels=list(lts.labels),
    )


def test_isomorphic_and_bisimilar_match_reference_on_canonical_pairs():
    by_size = defaultdict(list)
    for lts in _canonical_instances(3, 2):
        by_size[len(lts.states)].append(lts)
    seen = Counter()
    systems = [lts for group in by_size.values() for lts in group[:40]]
    for l1 in systems:
        for l2 in systems + [_renamed(l1)]:
            expected = reference_isomorphic(l1, l2)
            assert _same(isomorphic(l1, l2), expected), (l1.arcs, l2.arcs)
            seen[expected.detail] += 1
            expected = reference_bisimilar(l1, l2)
            assert _same(bisimilar(l1, l2), expected), (l1.arcs, l2.arcs)
            seen[expected.ok] += 1
    # every outcome of the walk, and both bisimulation verdicts, occur
    assert {"", "walk is not injective", "state counts differ", True, False} <= set(seen)
    assert any(str(detail).startswith("targets disagree") for detail in seen)


def test_isomorphic_and_bisimilar_match_reference_on_state_graphs():
    graphs = [reachability_graph(net).lts for net in (bitnet(4), cyclenet(4, 2), cyclenet(2, 4))]
    for l1 in graphs:
        for l2 in graphs + [_renamed(l1)]:
            assert _same(isomorphic(l1, l2), reference_isomorphic(l1, l2))
            assert _same(bisimilar(l1, l2), reference_bisimilar(l1, l2))


@seed(20150602)
@settings(max_examples=200, deadline=None)
@given(small_lts(), small_lts(), st.booleans())
def test_isomorphic_and_bisimilar_match_reference_on_random_pairs(l1, l2, copy):
    # small_lts systems may be nondeterministic and partly unreachable
    if copy:
        l2 = _renamed(l1)
    assert _same(isomorphic(l1, l2), reference_isomorphic(l1, l2))
    assert _same(bisimilar(l1, l2), reference_bisimilar(l1, l2))


def _persistence(check):
    """(ok, witness, detail) of check(), or the PreconditionError it raises."""
    try:
        result = check()
    except PreconditionError as err:
        return ("PreconditionError", str(err))
    return (result.ok, result.witness, result.detail)


def _same_persistence(lts):
    expected = _persistence(lambda: reference_is_persistent(lts))
    assert _persistence(lambda: is_persistent(lts)) == expected, lts.arcs
    return expected


def test_is_persistent_matches_reference_on_canonical_systems_and_state_graphs():
    graphs = [
        reachability_graph(net).lts
        for net in (bitnet(4), cyclenet(4, 2), philnet_bistate(2), philnet_bistate(3))
    ]
    verdicts = Counter(_same_persistence(lts)[0] for lts in _canonical_instances(3, 2) + graphs)
    assert verdicts[True] and verdicts[False]


@st.composite
def persistence_inputs(draw):
    """States s0.. with at most one arc per state and label, plus up to two
    arcs among them that may make a reachable state nondeterministic, and
    states u0.. that s0 cannot reach, whose arcs may be nondeterministic."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    labels = ["a", "b", "c"][: draw(st.integers(1, 3))]
    arcs = []
    for src in states:
        for label in labels:
            choice = draw(st.integers(-1, len(states) - 1))
            if choice >= 0:
                arcs.append((src, label, states[choice]))
    arc = st.tuples(st.sampled_from(states), st.sampled_from(labels), st.sampled_from(states))
    arcs += draw(st.lists(arc, max_size=2))
    unreachable = [f"u{i}" for i in range(draw(st.integers(0, 2)))]
    if unreachable:
        island = st.tuples(
            st.sampled_from(unreachable), st.sampled_from(labels), st.sampled_from(states + unreachable)
        )
        arcs += draw(st.lists(island, max_size=6))
    return Lts.from_data("s0", arcs, states=states + unreachable, labels=labels)


@seed(20150602)
@settings(max_examples=300, deadline=None)
@given(persistence_inputs())
def test_is_persistent_matches_reference_on_random_systems(lts):
    _same_persistence(lts)


def test_is_persistent_matches_reference_on_nondeterminism():
    reachable = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "s2")])
    assert _same_persistence(reachable)[0] == "PreconditionError"
    # u0 is nondeterministic but unreachable, and s0 misses the a/b diamond
    unreachable = Lts.from_data(
        "s0",
        [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s1"), ("u0", "a", "s0"), ("u0", "a", "s1")],
        states=["s0", "s1", "s2", "u0"],
    )
    assert _same_persistence(unreachable) == (
        False,
        ("s0", "a", "b"),
        "no common state completes the a/b diamond at s0",
    )


def _small_cycles(checks, lts):
    """The three small-cycle results of `checks` (a module), or the type of
    the error the first of them raises."""
    try:
        vectors = checks.small_cycle_parikh_vectors(lts)
    except AptError as err:
        return type(err)
    return (
        [v.as_tuple(lts.labels) for v in vectors],
        checks.cycles_same_pv(lts),
        checks.weak_small_cycle_property(lts),
    )


def _complete(n, shared):
    """Every arc between n distinct states, each under a label of its own,
    or under the labels a and b only."""
    arcs = [
        (f"s{i}", "ab"[(i + j) % 2] if shared else f"t{i}_{j}", f"s{j}")
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    return Lts.from_data("s0", arcs)


def test_small_cycles_match_reference(monkeypatch):
    # the reference's two verdicts recompute its quadratic filter; reuse its
    # vectors per system (an error is not cached, so it is raised again)
    cached = lru_cache(maxsize=None)(reference_lts.small_cycle_parikh_vectors)
    monkeypatch.setattr(reference_lts, "small_cycle_parikh_vectors", cached)
    systems = [random_lts(random.Random(seed)) for seed in range(400)]
    systems += _canonical_instances(3, 2)
    # the complete 7-state system with distinct labels has 2,365 cycles, all
    # minimal: a filter that compares every pair takes seconds on it
    systems += [_complete(n, shared) for n in range(2, 8) for shared in (False, True)]
    nets = (bitnet(4), cyclenet(4, 2), cyclenet(2, 4), philnet_bistate(2), philnet_bistate(3))
    systems += [reachability_graph(net).lts for net in nets]
    verdicts = Counter()
    for lts in systems:
        expected = _small_cycles(reference_lts, lts)
        assert _small_cycles(ltsmod, lts) == expected, lts.arcs
        verdicts[expected[1:]] += 1
    assert len(systems) == 1273
    # no cycle, one small cycle, and several with and without shared labels
    assert set(verdicts) == {(True, True), (False, True), (False, False)}


def test_strongly_connected_components_match_reference():
    rng = random.Random(19810101)
    systems = [random_lts(rng) for _ in range(1500)]
    nets = (bitnet(4), bitnet(6), cyclenet(4, 2), cyclenet(2, 4), philnet_bistate(2), philnet_bistate(3))
    systems += [reachability_graph(net).lts for net in nets]
    counts = Counter()
    for lts in systems:
        expected = reference_lts.strongly_connected_components(lts)
        assert ltsmod.strongly_connected_components(lts) == expected, lts.arcs
        counts[min(len(expected), 3)] += 1
    # one, two, and three or more components all occur
    assert set(counts) == {1, 2, 3}


def test_strongly_connected_components_of_a_long_chain():
    # 100,000 states deep: a recursive search would pass Python's recursion limit
    n = 100_000
    chain = Lts.from_data("s0", [(f"s{i}", "a", f"s{i + 1}") for i in range(n)] + [(f"s{n}", "b", f"s{n - 1}")])
    components = ltsmod.strongly_connected_components(chain)
    assert components == reference_lts.strongly_connected_components(chain)
    assert len(components) == n and components[-1] == [f"s{n - 1}", f"s{n}"]


def _with_twin(lts, rng):
    """`lts` plus a twin of one state, with the same outgoing arcs, that an
    arc into the state also reaches: the prefix language stays the same."""
    arcs = [(a.source, a.label, a.target) for a in lts.arcs]
    if arcs:
        source, label, state = rng.choice(arcs)
        arcs += [("twin", a.label, a.target) for a in lts.arcs_from(state)] + [(source, label, "twin")]
    return Lts.from_data(lts.initial, arcs, states=lts.states, labels=lts.labels)


def _language(check, l1, l2):
    try:
        result = check(l1, l2)
    except AptError as err:
        return (type(err).__name__, str(err))
    return (result.ok, result.witness, result.detail)


def test_language_equivalent_matches_reference_on_random_pairs(monkeypatch):
    rng = random.Random(20150604)
    outcomes = Counter()
    for n in range(1200):
        l1 = random_lts(rng)
        l2 = _with_twin(l1, rng) if n % 2 else random_lts(rng)
        if n % 5 == 0:
            monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", rng.randint(1, 4))
        expected = _language(reference_lts.language_equivalent, l1, l2)
        assert _language(ltsmod.language_equivalent, l1, l2) == expected, (l1.arcs, l2.arcs)
        monkeypatch.undo()
        outcomes[expected[0] if expected[0] != "StateLimitExceededError" else "limit"] += 1
    # both verdicts, and the budget, occur
    assert set(outcomes) == {True, False, "limit"}


def test_language_equivalent_matches_reference_on_state_graphs():
    graphs = [reachability_graph(net).lts for net in (bitnet(4), cyclenet(4, 2), cyclenet(2, 4))]
    for l1 in graphs:
        for l2 in graphs + [_renamed(l1)]:
            assert _language(ltsmod.language_equivalent, l1, l2) == _language(
                reference_lts.language_equivalent, l1, l2
            )


def test_language_equivalent_keeps_subset_pairs_small(monkeypatch):
    # the "20th letter from the end is an a" system against itself reaches
    # 2^20 subset pairs; 20,000 of them took 28 MB as frozensets of names
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 20_000)
    guess = _nth_letter_from_the_end(20)
    tracemalloc.start()
    try:
        with pytest.raises(StateLimitExceededError, match="more than 20000 state pairs"):
            ltsmod.language_equivalent(guess, guess)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"
