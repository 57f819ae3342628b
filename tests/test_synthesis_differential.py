"""Differential tests: aptk.synthesis._Engine.solve_basis against the two
basis-space solvers it replaced, kept in reference_synthesis.py.

Under `pure,plain` both solve the same boxed integer system, so they must
agree exactly: the same Region, or None, for every separation problem.
Under `none` and `pure` solve_basis generates rows, so its LP may stop at
another vertex than the reference's full LP.  There both must agree on
solvability, and every region solve_basis returns must be valid, solve its
problem and, under `pure`, be pure.
"""

from functools import partial

import pytest

from aptk import PropertySet, enumerate_separation_problems, reachability_graph, word_lts
from aptk.generators import bitnet, cyclenet
from aptk.synthesis import _Engine, check_region
from conftest import make_example_lts
from reference_synthesis import solve_fast_none, solve_fast_pure
from test_synthesis import _canonical_instances

EXACT = {
    "pure,plain": (PropertySet(pure=True, plain=True), partial(solve_fast_pure, plain=True)),
}
VERDICT = {
    "none": (PropertySet(), solve_fast_none),
    "pure": (PropertySet(pure=True), partial(solve_fast_pure, plain=False)),
}


def _inputs():
    return (
        [make_example_lts()]
        + _canonical_instances(3, 2)
        + [reachability_graph(net).lts for net in (bitnet(3), cyclenet(3, 2))]
        + [word_lts("aabab")]
    )


@pytest.mark.parametrize("mode", sorted(EXACT))
def test_solve_basis_matches_reference(mode):
    props, reference = EXACT[mode]
    for lts in _inputs():
        engine = _Engine(lts, props)
        for problem in enumerate_separation_problems(lts):
            assert engine.solve_basis(problem) == reference(engine, problem), (
                sorted(map(str, lts.arcs)),
                str(problem),
            )


@pytest.mark.parametrize("mode", sorted(VERDICT))
def test_solve_basis_verdict_matches_reference(mode):
    props, reference = VERDICT[mode]
    count = 0
    for lts in _inputs():
        engine = _Engine(lts, props)
        for problem in enumerate_separation_problems(lts):
            count += 1
            where = (sorted(map(str, lts.arcs)), str(problem))
            region = engine.solve_basis(problem)
            assert (region is None) == (reference(engine, problem) is None), where
            if region is not None:
                check_region(lts, region)
                assert engine.solves(region, problem), where
                assert region.is_pure() or not props.pure, where
    assert count == 3545
