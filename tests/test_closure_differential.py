"""The five reachability walks that now share `aptk.lts._closure` against
the breadth-first loops they replaced (tests/reference_lts.py and
tests/reference_petri.py).

`reachable_states` and `weakly_connected_components` must return the same
lists in the same order; `is_reversible`, `is_weakly_connected` and
`is_strongly_connected` the same verdict, witness and detail.  The inputs
are seeded random systems and nets with unreachable states, self-loops,
parallel arcs of different labels and isolated nodes, plus the empty net
and the state graphs of the generator families.
"""

import random

import reference_lts
import reference_petri
from aptk import Lts, PetriNet, lts as ltsmod, petri, reachability_graph
from aptk.generators import bitnet, cyclenet, philnet_bistate

LABELS = ("a", "b", "c")


def _same(check, expected):
    return (check.ok, check.witness, check.detail) == (expected.ok, expected.witness, expected.detail)


def random_lts(rng: random.Random) -> Lts:
    """1-7 states in a shuffled declaration order, 0-12 arcs drawn over all
    pairs, self-loops included, and some pairs joined under several labels."""
    states = [f"s{i}" for i in range(rng.randint(1, 7))]
    rng.shuffle(states)
    arcs = []
    for _ in range(rng.randint(0, 12)):
        source, target = rng.choice(states), rng.choice(states)
        for label in rng.sample(LABELS, rng.randint(1, 2)):
            arcs.append((source, label, target))
    return Lts.from_data(rng.choice(states), arcs, states=states, labels=LABELS)


def random_net(rng: random.Random) -> PetriNet:
    """0-4 places and 0-4 transitions, declared in a shuffled order, with
    0-10 flows, so that some nodes are isolated and some nets are empty."""
    net = PetriNet()
    nodes = [("p", i) for i in range(rng.randint(0, 4))] + [("t", j) for j in range(rng.randint(0, 4))]
    rng.shuffle(nodes)
    for kind, i in nodes:
        if kind == "p":
            net.add_place(f"p{i}")
        else:
            net.add_transition(f"t{i}", label=rng.choice(LABELS))
    places, transitions = net.places, net.transitions
    if places and transitions:
        for _ in range(rng.randint(0, 10)):
            p, t = rng.choice(places), rng.choice(transitions)
            net.add_flow(*((p, t) if rng.random() < 0.5 else (t, p)), rng.randint(1, 2))
    return net


def _check_lts(lts: Lts) -> None:
    assert ltsmod.reachable_states(lts) == reference_lts.reachable_states(lts)
    assert ltsmod.weakly_connected_components(lts) == reference_lts.weakly_connected_components(lts)
    assert _same(ltsmod.is_reversible(lts), reference_lts.is_reversible(lts))


def _check_net(net: PetriNet) -> None:
    assert _same(petri.is_weakly_connected(net), reference_petri.is_weakly_connected(net))
    assert _same(petri.is_strongly_connected(net), reference_petri.is_strongly_connected(net))


def test_lts_walks_match_reference_on_random_systems():
    rng = random.Random(20150602)
    outcomes = set()
    for _ in range(600):
        lts = random_lts(rng)
        _check_lts(lts)
        reach = reference_lts.reachable_states(lts)
        outcomes.add((len(reach) < len(lts.states), bool(reference_lts.is_reversible(lts))))
        outcomes.add(len(reference_lts.weakly_connected_components(lts)) > 1)
    # partly unreachable and fully reachable inputs, both verdicts on each,
    # and inputs of one and of several components all occur
    assert outcomes == {(False, False), (False, True), (True, False), (True, True), False, True}


def test_lts_walks_match_reference_on_hand_cases():
    cases = [
        Lts.from_data("s0", []),
        Lts.from_data("s0", [], states=["s1", "s0", "s2"]),
        Lts.from_data("s0", [("s0", "a", "s0"), ("s0", "b", "s0")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "b", "s1"), ("s1", "a", "s0")]),
        # the unreachable u leads back to s0: the old walk skipped it
        Lts.from_data("s0", [("s0", "a", "s1"), ("u", "a", "s0"), ("s1", "b", "s2")]),
        Lts.from_data("s2", [("s0", "a", "s1"), ("s1", "a", "s0"), ("s2", "a", "s2")]),
    ]
    cases += [reachability_graph(net).lts for net in (bitnet(4), cyclenet(4, 2), philnet_bistate(3))]
    for lts in cases:
        _check_lts(lts)


def test_net_walks_match_reference_on_random_nets():
    rng = random.Random(20150603)
    outcomes = set()
    for _ in range(600):
        net = random_net(rng)
        _check_net(net)
        outcomes.add(
            (
                bool(net.places or net.transitions),
                bool(reference_petri.is_weakly_connected(net)),
                bool(reference_petri.is_strongly_connected(net)),
            )
        )
    # the empty net, and nonempty nets of every possible pair of verdicts
    assert outcomes == {(False, True, True), (True, False, False), (True, True, False), (True, True, True)}


def test_net_walks_match_reference_on_generator_nets():
    isolated = PetriNet()
    isolated.add_place("p")
    isolated.add_transition("t")
    for net in (PetriNet(), isolated, bitnet(4), cyclenet(6, 2), philnet_bistate(3)):
        _check_net(net)
