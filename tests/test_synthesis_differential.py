"""Differential tests: aptk.synthesis._Engine.solve_basis against the two
basis-space solvers it replaced, kept in reference_synthesis.py.

Both build the same exact integer system over basis coefficients, so they
must agree exactly: the same Region, or None, for every separation problem.
"""

from functools import partial

import pytest

from aptk import PropertySet, enumerate_separation_problems, reachability_graph, word_lts
from aptk.generators import bitnet, cyclenet
from aptk.synthesis import _Engine
from conftest import make_example_lts
from reference_synthesis import solve_fast_none, solve_fast_pure
from test_synthesis import _canonical_instances

MODES = {
    "none": (PropertySet(), solve_fast_none),
    "pure": (PropertySet(pure=True), partial(solve_fast_pure, plain=False)),
    "pure,plain": (PropertySet(pure=True, plain=True), partial(solve_fast_pure, plain=True)),
}


def _inputs():
    return (
        [make_example_lts()]
        + _canonical_instances(3, 2)
        + [reachability_graph(net).lts for net in (bitnet(3), cyclenet(3, 2))]
        + [word_lts("aabab")]
    )


@pytest.mark.parametrize("mode", sorted(MODES))
def test_solve_basis_matches_reference(mode):
    props, reference = MODES[mode]
    for lts in _inputs():
        engine = _Engine(lts, props)
        for problem in enumerate_separation_problems(lts):
            assert engine.solve_basis(problem) == reference(engine, problem), (
                sorted(map(str, lts.arcs)),
                str(problem),
            )
