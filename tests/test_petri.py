import random
import re
import time

import pytest

from aptk import (
    AptError,
    Marking,
    OMEGA,
    PetriNet,
    StateLimitExceededError,
    UnboundedNetError,
    bounded,
    coverability_graph,
    enabled,
    fire,
    fire_sequence,
    gcd_initial_marking,
    has_isolated_elements,
    is_bcf,
    is_bicf,
    is_conflict_free,
    is_deterministic,
    is_marked_graph,
    is_output_nonbranching,
    is_plain,
    is_pure,
    is_strongly_connected,
    is_tnet,
    is_totally_reachable,
    is_weakly_connected,
    isomorphic,
    non_plain_side_conditions,
    persistent,
    reachability_graph,
    reversible,
    separable,
    side_conditions,
    weakly_live,
    word_in_language,
)
from aptk import petri
from aptk.generators import bitnet, cyclenet, philnet_bistate

from conftest import accumulator_bitnet, make_example_lts
from reference_petri import bounded as reference_bounded


def unbounded_net() -> PetriNet:
    net = PetriNet()
    net.add_place("p")
    net.add_transition("t")
    net.add_flow("t", "p")
    return net


# -- firing rule --------------------------------------------------------------


def test_fire_a_from_initial(n1):
    after = fire(n1, n1.initial_marking(), "a")
    assert dict(after.items()) == {"p0": 0, "p1": 1, "p2": 0, "p3": 0, "p4": 2}


def test_empty_preset_enabled_at_zero():
    net = PetriNet()
    net.add_place("p")
    net.add_transition("t")
    net.add_flow("t", "p")
    assert enabled(net, net.marking({}), "t")


def test_fire_disabled_names_deficient_place(n1):
    with pytest.raises(AptError, match="p2"):
        fire(n1, n1.initial_marking(), "d")


def test_fire_sequence(n1):
    after = fire_sequence(n1, n1.initial_marking(), ["a", "b", "c"])
    assert dict(after.items()) == {"p0": 1, "p1": 1, "p2": 1, "p3": 0, "p4": 0}


def test_marking_scaling_and_order():
    marking = Marking(("p", "q"), (1, 2))
    assert dict((2 * marking).items()) == {"p": 2, "q": 4}
    assert marking <= Marking(("p", "q"), (1, 3))
    assert not Marking(("p", "q"), (2, 0)) <= marking


def test_marking_sum():
    total = Marking(("p", "q"), (1, OMEGA)) + Marking(("p", "q"), (2, 3))
    assert total.counts == (3, OMEGA)
    with pytest.raises(AptError, match="markings over different nets"):
        Marking(("p", "q"), (1, 2)) + Marking(("p",), (1,))


# -- reachability graph --------------------------------------------------------


def test_reachability_graph_n1(n1):
    graph = reachability_graph(n1)
    assert len(graph.lts.states) == 7
    assert len(graph.lts.arcs) == 10
    assert graph.lts.initial == "s0"
    assert isomorphic(graph.lts, make_example_lts())


def test_reachability_graph_markings_table(n1):
    graph = reachability_graph(n1)
    expected = {
        "s0": {"p0": 1, "p1": 1, "p2": 0, "p3": 0, "p4": 1},
        "s1": {"p0": 0, "p1": 1, "p2": 0, "p3": 0, "p4": 2},
        "s2": {"p0": 1, "p1": 0, "p2": 0, "p3": 1, "p4": 0},
        "s3": {"p0": 0, "p1": 0, "p2": 0, "p3": 1, "p4": 1},
        "s4": {"p0": 1, "p1": 1, "p2": 1, "p3": 0, "p4": 0},
        "s5": {"p0": 0, "p1": 1, "p2": 1, "p3": 0, "p4": 1},
        "s6": {"p0": 0, "p1": 0, "p2": 1, "p3": 1, "p4": 0},
    }
    assert {s: dict(m.items()) for s, m in graph.markings.items()} == expected


def test_reachability_graph_no_transitions():
    net = PetriNet()
    net.add_place("p", tokens=3)
    graph = reachability_graph(net)
    assert graph.lts.states == ("s0",) and graph.lts.arcs == ()


def test_reachability_graph_limit():
    with pytest.raises(StateLimitExceededError, match="unbounded"):
        reachability_graph(unbounded_net(), state_limit=100)


def test_reachability_arcs_replay(n1):
    graph = reachability_graph(n1)
    for arc in graph.lts.arcs:
        after = fire(n1, graph.markings[arc.source], arc.label)
        assert after == graph.markings[arc.target]


def test_reachability_graph_has_every_enabled_firing(n1):
    graph = reachability_graph(n1)
    arc_set = {(a.source, a.label, a.target) for a in graph.lts.arcs}
    by_marking = {graph.markings[s]: s for s in graph.lts.states}
    for state in graph.lts.states:
        marking = graph.markings[state]
        for t in n1.transitions:
            if enabled(n1, marking, t):
                target = by_marking[fire(n1, marking, t)]
                assert (state, n1.label(t), target) in arc_set


def test_rg_deterministic_and_totally_reachable_for_generators():
    for net in [bitnet(3), philnet_bistate(3), cyclenet(4, 2)]:
        lts = reachability_graph(net).lts
        assert is_deterministic(lts)
        assert is_totally_reachable(lts)


# -- coverability ---------------------------------------------------------------


def test_coverability_equals_reachability_when_bounded(n1):
    cover = coverability_graph(n1)
    graph = reachability_graph(n1)
    assert isomorphic(cover.lts, graph.lts)
    assert {s: dict(m.items()) for s, m in cover.markings.items()} == {
        s: dict(m.items()) for s, m in graph.markings.items()
    }


def test_coverability_unbounded_self_loop():
    cover = coverability_graph(unbounded_net())
    assert len(cover.lts.states) == 2
    omega_states = [s for s in cover.lts.states if cover.markings[s].has_omega()]
    assert omega_states == ["s1"]
    assert ("s1", "t", "s1") in {(a.source, a.label, a.target) for a in cover.lts.arcs}


def test_coverability_cycle_generator_concrete():
    cover = coverability_graph(cyclenet(3, 1))
    assert len(cover.lts.states) == 3
    assert not any(cover.markings[s].has_omega() for s in cover.lts.states)


def test_bounded_iff_no_omega():
    for net in [bitnet(2), cyclenet(3, 2), unbounded_net()]:
        cover = coverability_graph(net)
        has_omega = any(cover.markings[s].has_omega() for s in cover.lts.states)
        assert bool(bounded(net)) == (not has_omega)


def test_coverability_mixed_bounded_and_unbounded_places():
    # p drains once; r grows without bound while q stays at one token
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_place("r")
    net.add_transition("t1")
    net.add_transition("t2")
    net.add_flow("p", "t1")
    net.add_flow("t1", "q")
    net.add_flow("q", "t2")
    net.add_flow("t2", "q")
    net.add_flow("t2", "r")
    cover = coverability_graph(net)
    finals = [cover.markings[s] for s in cover.lts.states]
    assert any(m.get("r") is OMEGA for m in finals)
    assert all(m.get("p") is not OMEGA and m.get("q") is not OMEGA for m in finals)
    check = bounded(net)
    assert not check and check.witness[0] == "r"
    assert weakly_live(net)


def test_random_nets_boundedness_verdict_cross_checked():
    # the omega verdict must agree with direct forward exploration: bounded
    # nets enumerate completely, unbounded ones blow past any finite limit
    rng = random.Random(424242)
    bounded_seen = unbounded_seen = 0
    for _ in range(120):
        net = PetriNet()
        n_places = rng.randint(1, 3)
        n_transitions = rng.randint(1, 3)
        for i in range(n_places):
            net.add_place(f"p{i}", tokens=rng.randint(0, 2))
        for j in range(n_transitions):
            net.add_transition(f"t{j}")
        for _ in range(rng.randint(1, 5)):
            p = f"p{rng.randrange(n_places)}"
            t = f"t{rng.randrange(n_transitions)}"
            if rng.random() < 0.5:
                net.add_flow(p, t, rng.randint(1, 2))
            else:
                net.add_flow(t, p, rng.randint(1, 2))
        verdict = bounded(net)
        if verdict:
            graph = reachability_graph(net, state_limit=5000)
            cover = coverability_graph(net)
            assert isomorphic(cover.lts, graph.lts)
            bounded_seen += 1
        else:
            with pytest.raises(StateLimitExceededError):
                reachability_graph(net, state_limit=300)
            unbounded_seen += 1
        assert_k_bounded_matches_reference(net)
    assert bounded_seen > 10 and unbounded_seen > 10
    for net in [bitnet(3), cyclenet(3, 2), unbounded_net()]:
        assert_k_bounded_matches_reference(net)


def assert_k_bounded_matches_reference(net):
    # verdict, witness and detail, as returned by the replaced bounded()
    for k in range(4):
        assert bounded(net, k) == reference_bounded(net, k)


def test_coverability_matches_reachability_on_generators():
    for net in [bitnet(3), philnet_bistate(3), cyclenet(4, 2)]:
        cover = coverability_graph(net)
        graph = reachability_graph(net)
        assert isomorphic(cover.lts, graph.lts)
        assert {s: m.counts for s, m in cover.markings.items()} == {
            s: m.counts for s, m in graph.markings.items()
        }


# -- boundedness ----------------------------------------------------------------


def test_bounded_n1(n1):
    assert bounded(n1)


def test_one_bounded_witness_is_exact(n1):
    check = bounded(n1, 1)
    assert not check
    assert check.witness == ("p4", ["a"])


def test_bounded_empty_net():
    net = PetriNet()
    assert bounded(net)
    assert bounded(net, 0)


def test_k_bounded_monotone(n1):
    # 2-bounded implies 3-bounded; and bounded iff k-bounded for max count
    assert bounded(n1, 2)
    assert bounded(n1, 3)
    graph = reachability_graph(n1)
    top = max(c for s in graph.lts.states for c in graph.markings[s].counts)
    assert top == 2
    assert not bounded(n1, top - 1)
    assert bounded(n1, top)


def test_unbounded_k_witness():
    check = bounded(unbounded_net(), 2)
    assert not check
    place, sequence = check.witness
    assert place == "p" and sequence == ["t", "t", "t"]


def test_k_bounded_builds_no_coverability_graph(monkeypatch):
    def refuse(net):
        raise AssertionError("bounded(net, k) built a coverability graph")

    monkeypatch.setattr(petri, "coverability_graph", refuse)
    assert bounded(unbounded_net(), 2).witness == ("p", ["t", "t", "t"])


def test_bounded_witnesses_on_accumulator_bitnet():
    # the shortest witnesses in BFS order, as the explorer gave them when
    # it added every arc through Lts.add_arc
    net = accumulator_bitnet(6)
    assert bounded(net).witness == ("acc", ["set0", "unset0"])
    assert bounded(net, 0).witness == ("off0", [])
    for k in (1, 2, 3):
        check = bounded(net, k)
        assert check.witness == ("acc", [f"set{i}" for i in range(k + 1)])
        assert check.detail == f"place acc reaches {k + 1} > {k} tokens"
    assert bounded(accumulator_bitnet(3), 3).witness == (
        "acc", ["set0", "unset0", "set0", "set1", "set2"]
    )


def test_acceleration_tests_few_ancestors(monkeypatch):
    # each ancestor tested for a strict cover is one all() call in
    # aptk.petri; a walk over every lighter ancestor made 189,546 of them
    # here, one that skips the ancestors no successor can cover 3,786
    tests = 0

    def counting_all(iterable):
        nonlocal tests
        tests += 1
        return all(iterable)

    monkeypatch.setattr(petri, "all", counting_all, raising=False)
    graph = coverability_graph(accumulator_bitnet(6))
    assert len(graph.lts.states) == 1040
    assert 0 < tests < 10_000


def test_same_label_transitions_to_one_marking_give_one_arc():
    # t and u share label a and reach the same marking from each state
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_place("q")
    for t in "tu":
        net.add_transition(t, label="a")
        net.add_flow("p", t)
        net.add_flow(t, "q")
    for graph in (reachability_graph(net), coverability_graph(net)):
        assert graph.lts.arcs == (("s0", "a", "s1"),)
        assert graph.lts.arcs_from("s0") == graph.lts.arcs_to("s1") == graph.lts.arcs
        assert graph.fired_transitions == {"t", "u"}
    # unbounded: one arc into the fresh OMEGA state, one self-loop on it
    for t in "tu":
        net.add_flow(t, "p")
    graph = coverability_graph(net)
    assert graph.lts.arcs == (("s0", "a", "s1"), ("s1", "a", "s1"))
    assert repr(graph.markings["s1"]) == "[ [p:1] [q:OMEGA] ]"


def test_k_bounded_stops_at_its_witness(monkeypatch):
    # the witness of bounded(unbounded_net(), 2) is s3; with room for one
    # state more, a search that ran on past it would hit the limit at once
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 4)
    check = bounded(unbounded_net(), 2)
    assert check.witness == ("p", ["t", "t", "t"])
    assert check.detail == "place p reaches 3 > 2 tokens"


def test_state_limit_names_the_construction(monkeypatch):
    # bitnet(4) has 16 states; every search stops at the module's limit
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 10)
    with pytest.raises(StateLimitExceededError, match="coverability graph has more") as err:
        coverability_graph(bitnet(4))
    assert "try the coverability graph" not in str(err.value)
    with pytest.raises(StateLimitExceededError, match="reachability graph has more"):
        bounded(bitnet(4), 1)
    with pytest.raises(StateLimitExceededError, match="coverability graph has more"):
        bounded(bitnet(4))
    with pytest.raises(StateLimitExceededError, match="reachability graph has more"):
        reachability_graph(bitnet(4))
    for check in (is_bcf, is_bicf):
        with pytest.raises(StateLimitExceededError, match="coverability graph has more"):
            check(bitnet(4))
    # an explicit limit still wins over the module's
    assert len(reachability_graph(bitnet(4), state_limit=16).lts.states) == 16


# -- liveness, persistence, reversibility ----------------------------------------


def test_weakly_live_n1(n1):
    assert weakly_live(n1)


def test_weakly_live_starved_transition():
    net = PetriNet()
    net.add_place("p")
    net.add_transition("t")
    net.add_flow("p", "t")
    check = weakly_live(net)
    assert not check and check.witness == "t"


def test_weakly_live_no_transitions():
    net = PetriNet()
    net.add_place("p", tokens=1)
    assert weakly_live(net)


def test_persistent_reversible_n1(n1):
    assert persistent(n1)
    assert reversible(n1)


def test_reversible_false_sink():
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_transition("a")
    net.add_flow("p", "a")
    assert not reversible(net)


def test_persistent_requires_bounded():
    with pytest.raises(UnboundedNetError):
        persistent(unbounded_net())


def test_bounded_net_analyses_build_one_state_space(monkeypatch, n1):
    analyses = (persistent, reversible, is_bcf, is_bicf)
    expected = [analysis(n1) for analysis in analyses]

    def refuse(*args, **kwargs):
        raise AssertionError("a second state space was built")

    monkeypatch.setattr(petri, "reachability_graph", refuse)
    monkeypatch.setattr(petri, "bounded", refuse)
    assert [analysis(n1) for analysis in analyses] == expected


def test_persistent_no_transitions():
    net = PetriNet()
    net.add_place("p", tokens=1)
    assert persistent(net)
    assert reversible(net)


# -- structural predicates --------------------------------------------------------


def test_n1_plain_pure(n1):
    assert is_plain(n1)
    assert is_pure(n1)
    assert side_conditions(n1) == []


def test_n2_weighted_but_pure(n2):
    check = is_plain(n2)
    assert not check and check.witness == ("q3", "b")
    assert is_pure(n2)


def test_n3_impure_with_side_conditions(n3):
    assert not is_pure(n3)
    assert ("r4", "b") in side_conditions(n3)
    assert ("r1", "c") in side_conditions(n3)
    assert not is_plain(n3)
    assert non_plain_side_conditions(n3) == []


def test_non_plain_side_condition_detected():
    net = PetriNet()
    net.add_place("p", tokens=2)
    net.add_transition("t")
    net.add_flow("p", "t", 2)
    net.add_flow("t", "p", 2)
    assert non_plain_side_conditions(net) == [("p", "t")]


def test_isolated_elements():
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_flow("p", "t")
    net.add_place("island")
    check = has_isolated_elements(net)
    assert check and check.witness == "island"
    net.add_flow("t", "island")
    check = has_isolated_elements(net)
    assert not check and check.witness is None and check.detail == ""


def test_structural_classes_on_cycle():
    ring = cyclenet(3, 1)
    assert is_marked_graph(ring)
    assert is_tnet(ring)
    assert is_output_nonbranching(ring)
    assert is_conflict_free(ring)
    assert is_strongly_connected(ring)
    assert is_weakly_connected(ring)


def test_tnet_allows_missing_pre():
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_flow("p", "t")
    assert is_tnet(net)
    assert not is_marked_graph(net)


def test_connectivity_with_source_transition():
    net = PetriNet()
    net.add_place("p")
    net.add_transition("t")
    net.add_flow("t", "p")
    assert is_weakly_connected(net)
    assert not is_strongly_connected(net)


def test_branching_place_not_on(n1):
    check = is_output_nonbranching(n1)
    assert not check and check.witness == "p4"
    assert not is_conflict_free(n1)


# -- behavioural conflict freeness --------------------------------------------------


def test_bcf_bicf_cycle():
    ring = cyclenet(3, 1)
    assert is_bcf(ring)
    assert is_bicf(ring)


def test_bcf_conflict_at_initial():
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_transition("u")
    net.add_flow("p", "t")
    net.add_flow("p", "u")
    check = is_bcf(net)
    assert not check and check.witness == ("s0", "t", "u", "p")
    assert not is_bicf(net)


def test_bcf_rejects_non_plain(n2):
    check = is_bcf(n2)
    assert not check and check.detail == "not plain"


def test_bcf_unbounded_error():
    with pytest.raises(UnboundedNetError):
        is_bcf(unbounded_net())


# -- language membership --------------------------------------------------------------


def test_word_abc_in_language(n1):
    # graph replay oracle: s0[a>s1[b>s3[c>s4
    assert word_in_language(n1, ["a", "b", "c"])


def test_word_empty(n1):
    assert word_in_language(n1, [])


def test_word_aa_rejected(n1):
    check = word_in_language(n1, ["a", "a"])
    assert not check and check.witness == ["a"]


def test_word_unknown_label(n1):
    with pytest.raises(AptError):
        word_in_language(n1, ["z"])


def test_word_respects_labelling():
    # two transitions with the same label: the word needs the right branch
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_place("q")
    net.add_transition("t1", label="x")
    net.add_transition("t2", label="x")
    net.add_transition("u", label="y")
    net.add_flow("p", "t1")
    net.add_flow("t2", "q")
    net.add_flow("q", "u")
    assert word_in_language(net, ["x", "y"])  # via t2 then u


def test_word_in_language_agrees_with_graph_replay(n1):
    graph = reachability_graph(n1)
    words = []
    stack = [(graph.lts.initial, [])]
    while stack:
        state, word = stack.pop()
        words.append(word)
        if len(word) < 4:
            for arc in graph.lts.arcs_from(state):
                stack.append((arc.target, word + [arc.label]))
    for word in words:
        assert word_in_language(n1, word)


# -- separability ------------------------------------------------------------------


def test_separable_cycle_inconclusive():
    verdict = separable(cyclenet(2, 2), k=2, length_bound=4, mode="weak")
    assert verdict.verdict == "inconclusive"
    assert verdict.counterexample is None


def test_separable_bound_zero_vacuous():
    verdict = separable(cyclenet(3, 2), k=2, length_bound=0, mode="weak")
    assert verdict.verdict == "inconclusive"


def test_separable_requires_divisible_marking(n1):
    with pytest.raises(AptError, match="divisible"):
        separable(n1, k=2, length_bound=2)


def test_separable_strong_mode_runs():
    verdict = separable(cyclenet(3, 2), k=2, length_bound=3, mode="strong")
    assert verdict.verdict in ("no", "inconclusive")


def test_separable_finds_violation():
    # from 2M both firings of t are sequential, but one M alone enables only one
    net = PetriNet()
    net.add_place("p", tokens=2)
    net.add_place("q")
    net.add_transition("t")
    net.add_flow("p", "t", 2)
    net.add_flow("t", "q")
    verdict = separable(net, k=2, length_bound=2, mode="weak")
    assert verdict.verdict == "no"
    assert verdict.counterexample == ("t",)


def _self_loops(labels="abc", tokens=2) -> PetriNet:
    """One place with `tokens` tokens that every transition reads and returns."""
    net = PetriNet()
    net.add_place("p", tokens=tokens)
    for t in labels:
        net.add_transition(t)
        net.add_flow("p", t)
        net.add_flow(t, "p")
    return net


def test_separable_search_stops_at_the_state_limit(monkeypatch):
    # every one of the 3^0 + ... + 3^n sequences up to bound n separates, so
    # the search walks them all: 9,841 at bound 8, 88,573 at bound 10
    net = _self_loops()
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 10_000)
    for mode in ("weak", "strong"):
        assert separable(net, k=2, length_bound=8, mode=mode).verdict == "inconclusive"
        with pytest.raises(StateLimitExceededError, match="more than 10000 firing sequences"):
            separable(net, k=2, length_bound=10, mode=mode)
    # the limit counts the sequences taken, read at call time
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 9_840)
    with pytest.raises(StateLimitExceededError, match="more than 9840 firing sequences"):
        separable(net, k=2, length_bound=8)


def test_separable_strong_mode_extends_its_parent_splits(monkeypatch):
    # a child's splits are its parent's, each advanced by one firing, so
    # the 9,840 children cost about two firings each (20,040 calls in all);
    # replaying every sequence from its first letter made 84,012
    calls = 0
    successor = petri._successor

    def counted(*args):
        nonlocal calls
        calls += 1
        return successor(*args)

    monkeypatch.setattr(petri, "_successor", counted)
    assert separable(_self_loops(), k=2, length_bound=8, mode="strong").verdict == "inconclusive"
    assert calls <= 3 * 9_841


def test_separable_weak_mode_reaches_its_budget_fast(monkeypatch):
    # 8 self-loops have C(18, 8) = 43,758 Parikh vectors up to bound 10; a
    # recount of each sequence and a list of every base vector per check
    # took about a minute to pass 20,000 sequences
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 20_000)
    start = time.perf_counter()
    with pytest.raises(StateLimitExceededError, match="more than 20000 firing sequences"):
        separable(_self_loops("abcdefgh"), k=2, length_bound=10)
    assert time.perf_counter() - start < 5


def test_separable_stops_once_nothing_fires():
    # from M no transition fires, so the Parikh search ends at once however
    # large the bound; it ran to the bound, about 1.4 s per 10^7
    net = PetriNet()
    net.add_place("p", tokens=2)
    net.add_transition("t")
    net.add_flow("p", "t", 2)
    assert separable(net, k=2, length_bound=10**9).verdict == "no"


def test_separable_weak_mode_with_many_parts():
    # one recursion level per part overflowed the stack at k = 3000
    net = PetriNet()
    net.add_place("p")
    net.add_transition("t")
    net.add_flow("t", "p")
    assert separable(net, k=3000, length_bound=2).verdict == "inconclusive"


# -- gcd ---------------------------------------------------------------------------


def test_gcd_n1(n1):
    assert gcd_initial_marking(n1) == 1


def test_gcd_even():
    net = PetriNet()
    net.add_place("p", tokens=2)
    net.add_place("q", tokens=4)
    assert gcd_initial_marking(net) == 2


def test_gcd_zero_marking():
    net = PetriNet()
    net.add_place("p")
    assert gcd_initial_marking(net) == 0


# -- caches ------------------------------------------------------------------------


def test_preset_cache_invalidated_on_mutation():
    net = PetriNet()
    net.add_place("p", tokens=1)
    net.add_transition("t")
    net.add_flow("p", "t")
    assert net.preset("t") == {"p": 1}
    net.add_flow("p", "t")  # accumulate to weight 2
    assert net.preset("t") == {"p": 2}
    net.add_place("r")
    net.add_flow("t", "r")
    assert net.postset("t") == {"r": 1}


def _two_tokens_net() -> PetriNet:
    net = PetriNet()
    net.add_place("p", tokens=2)
    net.add_transition("t")
    net.add_flow("p", "t")
    return net


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda net: net.add_place("t"), "'t' is already a transition; P and T must be disjoint"),
        (lambda net: net.add_place("q", tokens=-1), "token counts are nonnegative"),
        (lambda net: net.add_transition("t"), "duplicate transition 't'"),
        (lambda net: net.add_transition("p"), "'p' is already a place; P and T must be disjoint"),
        (lambda net: net.add_flow("p", "t", 0), "flow weights are positive"),
        (lambda net: net.add_flow("t", "p", -1), "flow weights are positive"),
        (lambda net: net.add_flow("p", "p"), "flow 'p' -> 'p' must connect a place and a transition"),
        (lambda net: net.add_flow("nope", "p"), "unknown node 'nope'"),
        (lambda net: net.add_flow("p", "nope"), "unknown node 'nope'"),
        (lambda net: net.set_tokens("nope", 1), "unknown place 'nope'"),
        (lambda net: net.set_tokens("p", -1), "token counts are nonnegative"),
        (lambda net: net.set_label("nope", "x"), "unknown transition 'nope'"),
        (lambda net: net.marking({"p": 1, "nope": 1}), "unknown place 'nope'"),
        (lambda net: bounded(net, -1), "k must be nonnegative"),
        (lambda net: separable(net, 2, 3, mode="x"), "mode must be 'weak' or 'strong'"),
    ],
    ids=[
        "place named like a transition", "negative tokens", "duplicate transition",
        "transition named like a place", "zero flow weight", "negative flow weight",
        "place-to-place flow", "unknown flow source", "unknown flow target",
        "set_tokens on an unknown place", "set_tokens negative", "set_label on an unknown transition",
        "marking with an unknown place", "bounded with negative k", "separable with an unknown mode",
    ],
)
def test_net_refuses_bad_input(change, message):
    net = _two_tokens_net()
    with pytest.raises(AptError, match=f"^{re.escape(message)}$"):
        change(net)
    # a refused change leaves the net as it was
    assert (net.places, net.transitions, net.flows) == (("p",), ("t",), {("p", "t"): 1})
    assert net.initial_marking() == net.marking({"p": 2}) and net.label("t") == "t"


def _add_place_r(net):
    net.add_place("r")
    net.add_flow("t", "r")


@pytest.mark.parametrize("first_use", ["graph", "fire"])
@pytest.mark.parametrize(
    "change, arcs, markings",
    [
        (lambda net: net.add_flow("p", "t"), ["s0 t s1"], ["[ [p:2] ]", "[ [p:0] ]"]),
        (
            lambda net: net.add_transition("u"),
            ["s0 t s1", "s0 u s0", "s1 t s2", "s1 u s1", "s2 u s2"],
            ["[ [p:2] ]", "[ [p:1] ]", "[ [p:0] ]"],
        ),
        (
            lambda net: net.set_label("t", "x"),
            ["s0 x s1", "s1 x s2"],
            ["[ [p:2] ]", "[ [p:1] ]", "[ [p:0] ]"],
        ),
        (
            _add_place_r,
            ["s0 t s1", "s1 t s2"],
            ["[ [p:2] [r:0] ]", "[ [p:1] [r:1] ]", "[ [p:0] [r:2] ]"],
        ),
        (lambda net: net.set_tokens("p", 1), ["s0 t s1"], ["[ [p:1] ]", "[ [p:0] ]"]),
    ],
    ids=["add_flow", "add_transition", "set_label", "add_place", "set_tokens"],
)
def test_firing_table_follows_change_after_first_use(first_use, change, arcs, markings):
    net = _two_tokens_net()
    if first_use == "graph":
        assert len(reachability_graph(net).lts.states) == 3
    else:
        assert fire(net, net.initial_marking(), "t") == net.marking({"p": 1})
    change(net)
    graph = reachability_graph(net)
    assert [f"{a.source} {a.label} {a.target}" for a in graph.lts.arcs] == arcs
    assert [repr(m) for m in graph.markings.values()] == markings


def test_preset_and_postset_of_unknown_node_raise():
    net = _two_tokens_net()
    for read in (net.preset, net.postset):
        with pytest.raises(AptError, match="^unknown node 'nope'$"):
            read("nope")


def test_firing_refuses_a_marking_of_another_net():
    net = _two_tokens_net()
    wider = Marking(("p", "q"), (1, 0))
    for marking in (wider, Marking((), ()), Marking(("q",), (2,))):
        with pytest.raises(AptError, match="marking over different places than the net"):
            enabled(net, marking, "t")
        with pytest.raises(AptError, match="marking over different places than the net"):
            fire(net, marking, "t")
        with pytest.raises(AptError, match="marking over different places than the net"):
            fire_sequence(net, marking, ["t"])
    # an unknown transition is named first, as before
    with pytest.raises(AptError, match="unknown transition 'nope'"):
        fire(net, wider, "nope")


def test_omega_marking_comparisons():
    m1 = Marking(("p",), (OMEGA,))
    m2 = Marking(("p",), (5,))
    assert m1.covers(m2)
    assert not m2.covers(m1)
    assert m1.has_omega()


def test_graph_state_names_avoid_labels():
    # a label named like a state pushes that state's name to ss1, sss1, ...
    net = PetriNet()
    net.add_place("p", tokens=3)
    net.add_transition("t", label="s1")
    net.add_transition("u", label="ss1")
    net.add_flow("p", "t")
    net.add_flow("p", "u")
    for graph in (reachability_graph(net), coverability_graph(net)):
        assert list(graph.lts.states) == ["s0", "sss1", "s2", "s3"]
