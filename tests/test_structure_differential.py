"""Differential tests: the bitmask search of aptk.structure against the
search it replaced (tests/reference_structure.py).

`minimal_siphons` and `minimal_traps` must return the same lists, in the
same order, on seeded random nets with isolated places, source and sink
transitions and arc weights 1-2, and on the fixture and generator nets.
The search must also spend the same number of steps under every hash seed:
it branches in place order, never in the order of a set of names.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import reference_structure
import aptk
from aptk import PetriNet, minimal_siphons, minimal_traps
from aptk.generators import bitnet, cyclenet


def random_net(rng: random.Random, places: int, transitions: int) -> PetriNet:
    """`places` places and `transitions` transitions, declared in a shuffled
    order; each of the possible arcs is drawn with one probability per net,
    with weight 1 or 2."""
    net = PetriNet()
    nodes = [("p", i) for i in range(places)] + [("t", j) for j in range(transitions)]
    rng.shuffle(nodes)
    for kind, i in nodes:
        if kind == "p":
            net.add_place(f"p{i}")
        else:
            net.add_transition(f"t{i}")
    density = rng.choice((0.1, 0.2, 0.35))
    for p in net.places:
        for t in net.transitions:
            for arc in ((p, t), (t, p)):
                if rng.random() < density:
                    net.add_flow(*arc, rng.randint(1, 2))
    return net


def _check(net: PetriNet) -> None:
    assert minimal_siphons(net) == reference_structure.minimal_siphons(net), net.flows
    assert minimal_traps(net) == reference_structure.minimal_traps(net), net.flows


def test_minimal_siphons_and_traps_match_reference_on_random_nets():
    rng = random.Random(20150604)
    for _ in range(2000):
        _check(random_net(rng, rng.randint(1, 9), rng.randint(0, 8)))


def test_minimal_siphons_and_traps_match_reference_on_fixture_and_generator_nets(n1, n2, n3):
    for net in (n1, n2, n3, cyclenet(3, 1), bitnet(3)):
        _check(net)


LEAST_LIMIT = """\
import random

from aptk import BoundExceededError, linalg, minimal_siphons
from test_structure_differential import random_net

net = random_net(random.Random(1), 10, 8)
for limit in range(1, 10_000):
    linalg.DEFAULT_FRONTIER_LIMIT = limit
    try:
        minimal_siphons(net)
    except BoundExceededError:
        continue
    print(limit)
    break
"""


def test_the_least_budget_that_answers_is_the_same_under_every_hash_seed():
    path = os.pathsep.join([str(Path(aptk.__file__).parents[1]), str(Path(__file__).parent)])
    least = set()
    for seed in range(5):
        run = subprocess.run(
            [sys.executable, "-c", LEAST_LIMIT],
            env=dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        least.add(int(run.stdout))
    assert len(least) == 1, sorted(least)
