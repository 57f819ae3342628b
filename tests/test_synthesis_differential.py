"""Differential tests: aptk.synthesis._Engine.solve_basis against the two
basis-space solvers it replaced, kept in reference_synthesis.py.

Under `pure,plain` both solve the same boxed integer system, so they must
agree exactly: the same Region, or None, for every separation problem.
Under `none` and `pure` solve_basis generates rows, so its LP may stop at
another vertex than the reference's full LP.  There both must agree on
solvability, and every region solve_basis returns must be valid, solve its
problem and, under `pure`, be pure.

The separation pass and `minimize_regions` are checked against the
per-(region, problem) loop and the set-based minimisation they replaced:
the same solved set for every found region, the same failures and the
same kept regions.

The engine's set-up is checked against the two-walk `spanning_tree`, the
Parikh-vector `_cycle_rows` and the Kahn-loop `_is_acyclic` it replaced:
the same tree or error, the same cycle rows and basis, the same verdict.
"""

from functools import partial

import pytest
from hypothesis import given, seed, settings, strategies as st

from aptk import (
    Lts,
    PropertySet,
    enumerate_separation_problems,
    is_deterministic,
    is_totally_reachable,
    reachability_graph,
    region_basis,
    spanning_tree,
    word_lts,
)
from aptk import lts as lts_module
from aptk.common import InternalError, PreconditionError
from aptk.generators import bitnet, cyclenet
from aptk.linalg import integer_kernel_basis
from aptk.synthesis import (
    Region,
    SeparationProblem,
    _Engine,
    _is_acyclic,
    _separation_pass,
    check_region,
    minimize_regions,
)
from conftest import make_example_lts
from reference_synthesis import _cycle_rows as reference_cycle_rows
from reference_synthesis import _is_acyclic as reference_is_acyclic
from reference_synthesis import spanning_tree as reference_spanning_tree
from reference_synthesis import minimize_regions as reference_minimize
from reference_synthesis import separation_pass as reference_pass
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


def _hand_inputs():
    """Self-loops, parallel arcs with different labels, a re-added arc,
    unreachable states, a nondeterministic state and a diamond."""
    return [
        Lts.from_data("s0", [("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "b", "s1")]),
        Lts.from_data("s0", [("s0", "a", "s0"), ("s0", "b", "s0")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "b", "s1"), ("s1", "c", "s0")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "b", "s1"), ("s1", "c", "s2")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s0"), ("s0", "a", "s1")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s2", "b", "s0")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s2", "b", "s3"), ("s3", "b", "s2")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2"), ("s2", "b", "s0")]),
        Lts.from_data(
            "s0", [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"), ("s2", "a", "s3")]
        ),
    ]


def _tree_or_error(build, lts):
    try:
        return build(lts)
    except PreconditionError as err:
        return f"PreconditionError: {err}"


def test_engine_setup_matches_reference():
    verdicts = set()
    for lts in _inputs() + _hand_inputs():
        where = sorted(map(str, lts.arcs))
        expected = _tree_or_error(reference_spanning_tree, lts)
        tree = _tree_or_error(spanning_tree, lts)
        assert tree == expected, where
        if isinstance(expected, str):
            verdicts.add("no tree")
            continue
        if not (is_deterministic(lts) and is_totally_reachable(lts)):
            with pytest.raises(PreconditionError):
                _Engine(lts, PropertySet())
            verdicts.add("rejected")
            continue
        engine = _Engine(lts, PropertySet())
        rows = reference_cycle_rows(expected, lts.labels)
        assert engine.cycle_rows == rows, where
        assert engine.basis == region_basis(lts) == integer_kernel_basis(rows, dim=len(lts.labels))
        # _is_acyclic runs on inputs that passed the synthesis input check
        acyclic = _is_acyclic(lts)
        assert acyclic == reference_is_acyclic(lts), where
        verdicts.add(acyclic)
    assert verdicts == {"no tree", "rejected", True, False}


def test_spanning_tree_walks_once(monkeypatch):
    lts = make_example_lts()
    expected = reference_spanning_tree(lts)

    def refuse(lts):
        raise AssertionError("spanning_tree walked the input twice")

    monkeypatch.setattr(lts_module, "reachable_states", refuse)
    assert spanning_tree(lts) == expected
    with pytest.raises(PreconditionError, match="state s2 is unreachable"):
        spanning_tree(Lts.from_data("s0", [("s0", "a", "s1"), ("s2", "b", "s0")]))


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


def _pass_inputs():
    return (
        _canonical_instances(3, 2)
        + [reachability_graph(net).lts for net in (bitnet(3), cyclenet(3, 2), cyclenet(8, 1))]
        + [word_lts("aabab")]
    )


@pytest.mark.parametrize("mode", ["none", "pure", "plain,pure", "safe", "conflict-free"])
def test_separation_pass_matches_reference(mode):
    props = PropertySet.parse(mode)
    outcomes = set()
    for lts in _pass_inputs():
        problems = enumerate_separation_problems(lts)
        solved, failed = _separation_pass(_Engine(lts, props), problems)
        expected_solved, expected_failed = reference_pass(_Engine(lts, props), problems)
        where = sorted(map(str, lts.arcs))
        assert solved == expected_solved, where
        assert failed == expected_failed, where
        if not failed:
            assert minimize_regions(problems, solved) == reference_minimize(problems, solved), where
        outcomes.add(bool(failed))
    assert outcomes == {True, False}  # both branches of the pass are exercised


@st.composite
def covering_families(draw):
    """Problem count and solved sets in which every problem is solved."""
    size = draw(st.integers(1, 40))
    sets = draw(st.lists(st.sets(st.integers(0, size - 1)), min_size=1, max_size=8))
    for i in range(size):
        if not any(i in s for s in sets):
            sets[draw(st.integers(0, len(sets) - 1))].add(i)
    return size, sets


@seed(20150601)
@settings(max_examples=300, deadline=None)
@given(covering_families(), st.data())
def test_minimize_regions_matches_reference(family, data):
    size, sets = family
    problems = [SeparationProblem("essp", f"s{i}", label="a") for i in range(size)]
    solved = [(Region(("a",), j, (0,), (0,)), s) for j, s in enumerate(sets)]
    assert minimize_regions(problems, solved) == reference_minimize(problems, solved)
    # with one problem solved by no region, both raise the same error
    hole = data.draw(st.integers(0, size - 1))
    solved = [(region, s - {hole}) for region, s in solved]
    with pytest.raises(InternalError) as expected:
        reference_minimize(problems, solved)
    with pytest.raises(InternalError) as raised:
        minimize_regions(problems, solved)
    assert str(raised.value) == str(expected.value) == f"problem {problems[hole]} solved by no region"
