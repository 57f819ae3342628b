"""The compiled firing rule and marking searches of aptk.petri against the
Marking-based ones they replaced (tests/reference_petri.py).

Every comparison requires identical results: the same states, arcs,
markings, BFS parents and fired transitions of each graph, the same
Check of every analysis, and the same error type and message wherever
the reference raises.
"""

import random

import pytest

import reference_petri as ref
from aptk import AptError, PetriNet, petri
from aptk.generators import bitnet, cyclenet

from conftest import accumulator_bitnet

LABELS = ("a", "b", "c")


def random_net(rng: random.Random) -> PetriNet:
    """1-5 places with 0-2 tokens, 1-4 transitions sharing labels, weights 1-3."""
    net = PetriNet()
    n_places = rng.randint(1, 5)
    n_transitions = rng.randint(1, 4)
    for i in range(n_places):
        net.add_place(f"p{i}", tokens=rng.randint(0, 2))
    for j in range(n_transitions):
        net.add_transition(f"t{j}", label=rng.choice(LABELS))
    for _ in range(rng.randint(1, 2 * n_places + 2)):
        p = f"p{rng.randrange(n_places)}"
        t = f"t{rng.randrange(n_transitions)}"
        if rng.random() < 0.5:
            net.add_flow(p, t, rng.randint(1, 3))
        else:
            net.add_flow(t, p, rng.randint(1, 3))
    return net


def random_nets(seed: int, count: int):
    rng = random.Random(seed)
    return [random_net(rng) for _ in range(count)]


def graph_data(graph):
    return (
        graph.lts.initial,
        list(graph.lts.states),
        list(graph.lts.labels),
        [(a.source, a.label, a.target) for a in graph.lts.arcs],
        {s: (m.places, repr(m)) for s, m in graph.markings.items()},
        dict(graph.parent),
        graph.fired_transitions,
    )


def outcome(function, *args):
    """The result of a call, or the type and message of its error."""
    try:
        result = function(*args)
    except AptError as err:
        return ("error", type(err), str(err))
    if isinstance(result, petri.StateGraph):
        return ("graph", graph_data(result))
    if isinstance(result, petri.Marking):
        return ("marking", result.places, repr(result))
    return ("value", result)


def same(name, *args):
    new, old = getattr(petri, name), getattr(ref, name)
    assert outcome(new, *args) == outcome(old, *args), (name, args)


def up_down_up() -> PetriNet:
    """s0 = (1,0,0) -a-> (0,2,0) -b-> (0,0,1) -c-> (2,0,0): the last marking
    strictly covers s0 only, across the heavier (0,2,0)."""
    net = PetriNet()
    for p in "pqr":
        net.add_place(p, tokens=int(p == "p"))
    for t in "abc":
        net.add_transition(t)
    net.add_flow("p", "a")
    net.add_flow("a", "q", 2)
    net.add_flow("q", "b", 2)
    net.add_flow("b", "r")
    net.add_flow("r", "c")
    net.add_flow("c", "p", 2)
    return net


def zeros_above() -> PetriNet:
    """s0 = (p:1) -a-> (q:1) -b-> (r:1) -c-> (p:1, acc:1): the last marking
    strictly covers s0 only, and the lighter ancestors between hold a token
    at q or at r, where it has none, so acceleration jumps over them."""
    net = PetriNet()
    for p in ("p", "q", "r", "acc"):
        net.add_place(p, tokens=int(p == "p"))
    for t in "abc":
        net.add_transition(t)
    net.add_flow("p", "a")
    net.add_flow("a", "q")
    net.add_flow("q", "b")
    net.add_flow("b", "r")
    net.add_flow("r", "c")
    net.add_flow("c", "p")
    net.add_flow("c", "acc")
    return net


def second_cover() -> PetriNet:
    """s0 = (x:3) -a-> (x:1, y:1, z:1) -c-> (x:1, y:1) -b-> (x:2, y:1): the
    last marking strictly covers its parent, so x jumps to OMEGA; the walk
    then jumps over (x:1, y:1, z:1), which holds a token at z, to s0, which
    only the OMEGA covers, and y jumps to OMEGA too."""
    net = PetriNet()
    net.add_place("x", tokens=3)
    net.add_place("y")
    net.add_place("z")
    for t in "abc":
        net.add_transition(t)
    net.add_flow("x", "a", 3)
    for p in "xyz":
        net.add_flow("a", p)
    net.add_flow("z", "c")
    net.add_flow("b", "x")
    return net


def competing_pair() -> PetriNet:
    """t and u both enabled on one token at each of a and b, and each short
    at both; t's preset lists b first, but BiCF names a, first in net order."""
    net = PetriNet()
    net.add_place("a", tokens=1)
    net.add_place("b", tokens=1)
    net.add_transition("t")
    net.add_transition("u")
    for src, tgt in (("b", "t"), ("a", "t"), ("a", "u"), ("b", "u")):
        net.add_flow(src, tgt)
    return net


def side_condition_net() -> PetriNet:
    """Side conditions of p with u and with t, in the reverse of net order
    in p's preset, one of weight 3 built by a repeated flow; a second place
    and an isolated one."""
    net = PetriNet()
    for p in ("lone", "q", "p"):
        net.add_place(p, tokens=2 if p == "p" else 0)
    for t in ("u", "t"):
        net.add_transition(t)
    net.add_flow("t", "p", 2)
    net.add_flow("p", "u")
    net.add_flow("u", "q")
    net.add_flow("p", "t")
    net.add_flow("t", "p")
    net.add_flow("u", "p")
    return net


def plain_copy(net: PetriNet) -> PetriNet:
    """`net` with every flow weight set to 1."""
    plain = PetriNet()
    for p in net.places:
        plain.add_place(p, tokens=net.initial_marking().get(p))
    for t in net.transitions:
        plain.add_transition(t, label=net.label(t))
    for (src, tgt) in net.flows:
        plain.add_flow(src, tgt)
    return plain


def cases():
    nets = random_nets(20260, 300)
    deep = [accumulator_bitnet(n) for n in (3, 4, 5)] + [zeros_above(), second_cover()]
    return nets + [bitnet(3), cyclenet(3, 2), up_down_up(), competing_pair()] + deep


def structural_cases():
    """The cases, a net with side conditions, and plain copies of them all,
    on which the predicates that require plainness look further."""
    nets = cases() + [side_condition_net()]
    return nets + [plain_copy(net) for net in nets]


def test_random_nets_cover_both_kinds():
    kinds = {bool(ref.bounded(net)) for net in random_nets(20260, 300)}
    assert kinds == {True, False}


def test_graphs_match_reference():
    for net in cases():
        same("reachability_graph", net, 400)
        same("reachability_graph", net, 4)
        same("coverability_graph", net)


def test_coverability_state_limit_matches_reference(monkeypatch):
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 5)
    monkeypatch.setattr(ref, "DEFAULT_STATE_LIMIT", 5)
    raised = 0
    for net in cases():
        same("coverability_graph", net)
        raised += outcome(ref.coverability_graph, net)[0] == "error"
    assert raised > 10


def test_bounded_matches_reference():
    for net in cases():
        for k in (None, 0, 1, 2, 3):
            same("bounded", net, k)


def test_conflict_freeness_matches_reference(monkeypatch):
    for net in cases():
        for name in ("is_bcf", "is_bicf"):
            same(name, net)
            same(name, plain_copy(net))
    # the scans read the module's state limit at call time; the reference
    # took it as an argument
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 3)
    for net in cases():
        for name in ("is_bcf", "is_bicf"):
            assert outcome(getattr(petri, name), net) == outcome(getattr(ref, name), net, 3)


def test_word_in_language_matches_reference():
    rng = random.Random(7)
    for net in cases():
        labels = list(net.labels)
        for length in range(7):
            same("word_in_language", net, [rng.choice(labels) for _ in range(length)])
        same("word_in_language", net, [labels[0], "zz"])


def test_enabled_and_fire_match_reference():
    # on every coverability marking, OMEGA included, and on the initial one
    for net in cases():
        markings = list(ref.coverability_graph(net).markings.values())
        for marking in markings:
            for t in (*net.transitions, "nope"):
                same("enabled", net, marking, t)
                same("fire", net, marking, t)


def test_structural_predicates_match_reference():
    # the pre- and postset readers against the scans over every pair
    names = ("side_conditions", "is_output_nonbranching", "is_conflict_free", "is_tnet",
             "is_marked_graph")
    verdicts = {name: set() for name in names}
    for net in structural_cases():
        for name in names:
            same(name, net)
            verdicts[name].add(bool(getattr(ref, name)(net)))
    assert all(seen == {True, False} for seen in verdicts.values())
    assert petri.side_conditions(side_condition_net()) == [("p", "u"), ("p", "t")]


@pytest.mark.parametrize("k", [2, 3])
def test_separable_matches_unmemoised_reference(k):
    verdicts = set()
    for net in random_nets(k, 120):
        for p, c in net.initial_marking().items():
            net.set_tokens(p, k * c)
        for bound in (4, 6) if k == 2 else (4,):
            for mode in ("weak", "strong"):
                same("separable", net, k, bound, mode)
                verdicts.add(petri.separable(net, k, bound, mode).verdict)
    assert verdicts == {"no", "inconclusive"}
