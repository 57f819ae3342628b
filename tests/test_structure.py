import itertools

import pytest

from aptk import (
    AptError,
    BoundExceededError,
    PetriNet,
    PreconditionError,
    covered_by_invariants,
    incidence_matrices,
    invariants,
    minimal_siphons,
    minimal_traps,
    reachability_graph,
)
from aptk import linalg, structure
from aptk.structure import is_siphon, is_trap
from aptk.generators import bitnet, cyclenet


def brute_minimal_sets(net, predicate):
    hits = []
    for size in range(1, len(net.places) + 1):
        for combo in itertools.combinations(net.places, size):
            if predicate(net, combo) and not any(set(h) <= set(combo) for h in hits):
                hits.append(combo)
    return sorted(hits)


def test_incidence_matrices_cycle():
    matrices = incidence_matrices(cyclenet(3, 1))
    assert matrices.backward == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert matrices.forward == ((0, 0, 1), (1, 0, 0), (0, 1, 0))
    for row_c, row_f, row_b in zip(
        matrices.incidence, matrices.forward, matrices.backward
    ):
        assert row_c == tuple(f - b for f, b in zip(row_f, row_b))


def test_invariants_cycle():
    ring = cyclenet(3, 1)
    assert invariants(ring, "S") == [(1, 1, 1)]
    assert invariants(ring, "T") == [(1, 1, 1)]
    assert covered_by_invariants(ring, "S")
    assert covered_by_invariants(ring, "T")


def test_invariants_kind_checked(n1):
    with pytest.raises(PreconditionError):
        invariants(n1, "X")


def test_uncovered_source_place():
    net = PetriNet()
    net.add_place("p")
    net.add_transition("t")
    net.add_flow("t", "p")
    check = covered_by_invariants(net, "S")
    assert not check and check.witness == "p"


def test_covered_vacuously_without_places():
    net = PetriNet()
    net.add_transition("t")
    assert covered_by_invariants(net, "S")


def test_s_invariant_conservation(n1):
    graph = reachability_graph(n1)
    m0 = n1.initial_marking()
    for inv in invariants(n1, "S"):
        reference = sum(x * c for x, c in zip(inv, m0.counts))
        for state in graph.lts.states:
            marking = graph.markings[state]
            assert sum(x * c for x, c in zip(inv, marking.counts)) == reference


def test_philnet_conservation_laws():
    from aptk.generators import philnet_bistate

    net = philnet_bistate(3)
    supports = {
        frozenset(p for p, x in zip(net.places, inv) if x)
        for inv in invariants(net, "S")
    }
    for i in range(3):
        assert frozenset({f"thinking{i}", f"eating{i}"}) in supports
        left = (i - 1) % 3
        assert frozenset({f"fork{i}", f"eating{i}", f"eating{left}"}) in supports
    assert len(supports) == 6


def test_minimal_siphons_cycle_is_whole_ring():
    ring = cyclenet(3, 1)
    assert minimal_siphons(ring) == [("q0", "q1", "q2")]
    assert minimal_traps(ring) == [("q0", "q1", "q2")]


def test_minimal_siphons_n1_brute_force(n1):
    assert sorted(minimal_siphons(n1)) == brute_minimal_sets(n1, is_siphon)
    assert sorted(minimal_traps(n1)) == brute_minimal_sets(n1, is_trap)


def test_minimal_siphons_bitnet_brute_force():
    net = bitnet(3)
    assert sorted(minimal_siphons(net)) == brute_minimal_sets(net, is_siphon)
    assert sorted(minimal_traps(net)) == brute_minimal_sets(net, is_trap)


def test_source_place_is_singleton_siphon():
    net = PetriNet()
    net.add_place("src", tokens=1)
    net.add_place("dst")
    net.add_transition("t")
    net.add_flow("src", "t")
    net.add_flow("t", "dst")
    assert ("src",) in minimal_siphons(net)
    assert ("dst",) in minimal_traps(net)


def test_every_reported_set_satisfies_definition(n2, n3):
    for net in (n2, n3):
        for siphon in minimal_siphons(net):
            assert is_siphon(net, siphon)
        for trap in minimal_traps(net):
            assert is_trap(net, trap)


def test_place_cap_enforced(n1, monkeypatch):
    # the cap is the module's, read at call time
    monkeypatch.setattr(structure, "DEFAULT_PLACE_CAP", 2)
    for search in (minimal_siphons, minimal_traps):
        with pytest.raises(PreconditionError, match="above the cap of 2"):
            search(n1)


def _fan_in(k, reverse=False):
    """Place r fed by k transitions t_i, each taking from places p_i and q_i
    (reversed: r feeds each t_i, which feeds p_i and q_i).  Its 2k minimal
    siphons (traps) are the singletons {p_i}, {q_i}; from seed r, 2^k closed
    sets contain one of them."""
    net = PetriNet()
    net.add_place("r")
    for i in range(k):
        net.add_place(f"p{i}")
        net.add_place(f"q{i}")
        net.add_transition(f"t{i}")
        for place in (f"p{i}", f"q{i}"):
            net.add_flow(*((f"t{i}", place) if reverse else (place, f"t{i}")))
        net.add_flow(*(("r", f"t{i}") if reverse else (f"t{i}", "r")))
    return net


def _choice(k, reverse=False):
    """The fan-in net plus, for each of p_i and q_i, a transition that moves a
    token from r into it (reversed: every arc turned round).  Its minimal
    siphons (traps) are r with one of p_i, q_i for each i: 2^k of them."""
    net = _fan_in(k, reverse)
    for place in net.places[1:]:
        net.add_transition(f"v{place}")
        for arc in (("r", f"v{place}"), (f"v{place}", place)):
            net.add_flow(*(arc[::-1] if reverse else arc))
    return net


def test_siphon_and_trap_search_stops_at_the_frontier_limit(monkeypatch):
    singletons = [(p,) for i in range(10) for p in (f"p{i}", f"q{i}")]
    assert minimal_siphons(_fan_in(10)) == minimal_traps(_fan_in(10, reverse=True)) == singletons
    assert minimal_traps(_fan_in(10)) == [("r",)]
    # a set that strictly contains a closed set ends its branch, so the 2^20
    # closed sets from seed r are never visited
    singletons = [(p,) for i in range(20) for p in (f"p{i}", f"q{i}")]
    assert minimal_siphons(_fan_in(20)) == minimal_traps(_fan_in(20, reverse=True)) == singletons
    choices = [("r", *names) for names in itertools.product(*((f"p{i}", f"q{i}") for i in range(4)))]
    assert minimal_siphons(_choice(4)) == minimal_traps(_choice(4, reverse=True)) == choices
    # the limit is linalg's, read at call time
    monkeypatch.setattr(linalg, "DEFAULT_FRONTIER_LIMIT", 500)
    with pytest.raises(BoundExceededError, match="siphon search passed its limit of 500"):
        minimal_siphons(_choice(10))
    with pytest.raises(BoundExceededError, match="trap search passed its limit of 500"):
        minimal_traps(_choice(10, reverse=True))


def test_empty_set_is_no_siphon_or_trap(n1):
    assert not is_siphon(n1, set()) and not is_trap(n1, ())


def test_siphon_and_trap_predicates_reject_names_that_are_no_places(n1):
    # a is a transition of n1; of several unknown names, the least is named
    for names, unknown in (({"zzz"}, "zzz"), ({"a"}, "a"), (("p0", "zzz", "a"), "a")):
        for predicate in (is_siphon, is_trap):
            with pytest.raises(AptError, match=f"unknown place '{unknown}'"):
                predicate(n1, names)
