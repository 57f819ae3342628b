"""Differential tests: aptk.linalg.solve_cone (the Farkas dual of the cone
system P x <= -1) against solve_lp on the primal itself, with every free x
split as x+ - x- over two nonnegative columns.

The two may return different points, so the verdicts must agree, every
returned x must meet every row exactly, and every certificate y must check
exactly: y >= 0, sum(y) = 1 and sum(y[i] * P[i]) = 0.

solve_cone is also checked against the solver it replaced, kept in
reference_linalg.py, whose dual kept an equality row for every coordinate
that no row of P touches: both must return identical (x, y), on the hand
cases, on drawn cones with such coordinates, on every cone the basis path
makes on the canonical systems, and on every cone of the separation pass
of none cyclenet(16, 1) and cyclenet(24, 1).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aptk import PropertySet, enumerate_separation_problems, synthesize
from aptk import linalg
from aptk import synthesis as synthesis_module
from aptk.common import InternalError
from aptk.generators import cyclenet
from aptk.linalg import solve_cone, solve_lp
from aptk.petri import reachability_graph
from aptk.synthesis import _Engine
from reference_linalg import solve_cone as reference_solve_cone
from test_synthesis import _canonical_instances, _solve


def primal_feasible(rows, d) -> bool:
    lp_rows = [([c for v in p for c in (v, -v)], "<=", -1) for p in rows]
    return solve_lp(2 * d, lp_rows)[0] != "infeasible"


def assert_agrees(rows, d):
    x, y = solve_cone(rows, d)
    assert (x is None) != (y is None)
    assert (x is not None) == primal_feasible(rows, d), rows
    if x is not None:
        assert len(x) == d and all(isinstance(v, int) for v in x)
        assert all(sum(a * b for a, b in zip(p, x)) <= -1 for p in rows), (rows, x)
    else:
        assert len(y) == len(rows) and all(v >= 0 for v in y) and sum(y) == 1
        assert all(sum(v * p[i] for v, p in zip(y, rows)) == 0 for i in range(d)), (rows, y)
    return x is not None


CASES = [
    # (rows, d, feasible)
    ([], 0, True),  # nothing to meet
    ([(), ()], 0, False),  # 0 <= -1
    ([], 3, True),  # m = 0: x = 0 meets no row
    ([(1, 0), (1, 0), (1, 0)], 2, True),  # repeated rows
    ([(1, 2), (-1, -2), (1, 2)], 2, False),  # a row and its negation
    ([(2, -1, 3)], 3, True),  # m < d
    ([(1, 1, 0), (0, -1, 1)], 3, True),
    ([(1, 0, 0), (0, 1, 0), (-1, -1, 0)], 3, False),
    ([(0, 0), (1, 1)], 2, False),  # a zero row
    ([(3, -5), (-7, 11)], 2, True),  # the point is far from the origin
    ([(1, -1), (-1, 0), (0, 1)], 2, False),
]


@pytest.mark.parametrize("rows, d, feasible", CASES)
def test_solve_cone_hand_cases(rows, d, feasible):
    assert assert_agrees(rows, d) == feasible
    assert solve_cone(rows, d) == reference_solve_cone(rows, d)


def test_solve_cone_random_sweep():
    rng = random.Random(12)
    verdicts = set()
    for _ in range(1500):
        d = rng.randint(0, 5)
        m = rng.randint(0, 12)
        rows = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(m)]
        verdicts.add(assert_agrees(rows, d))
    assert verdicts == {True, False}


@st.composite
def cones(draw):
    d = draw(st.integers(0, 5))
    row = st.tuples(*[st.integers(-4, 4)] * d)
    return draw(st.lists(row, max_size=12)), d


@settings(max_examples=200, deadline=None)
@given(cones())
def test_solve_cone_hypothesis(cone):
    assert_agrees(*cone)


@pytest.mark.parametrize("mode", ["none", "pure"])
def test_solve_cone_on_every_basis_path_problem(mode, monkeypatch):
    # every cone system the basis solver makes on the canonical systems
    captured = []
    original = synthesis_module.solve_cone

    def capturing(rows, d):
        captured.append((list(rows), d))
        return original(rows, d)

    monkeypatch.setattr(synthesis_module, "solve_cone", capturing)
    props = PropertySet.parse(mode)
    for lts in _canonical_instances(3, 2):
        engine = _Engine(lts, props)
        for problem in enumerate_separation_problems(lts):
            _solve(engine.solve_basis, problem)
    assert len(captured) > 100
    verdicts = {assert_agrees(rows, d) for rows, d in captured}
    assert verdicts == {True, False}
    for rows, d in captured:
        assert solve_cone(rows, d) == reference_solve_cone(rows, d), (rows, d)


def test_solve_cone_refuses_a_result_that_does_not_check(monkeypatch):
    # each forged answer of the dual LP must raise, not pass as a result
    def answer(*result):
        monkeypatch.setattr(linalg, "solve_lp", lambda *args, **kwargs: result)

    rows = [(1, 0), (0, 1)]
    zero = [Fraction(0)] * 2
    forged = [
        ("unbounded", zero, None),
        ("optimal", zero, ([0, 0, 0], 1)),  # x = 0 meets no row
        ("optimal", zero, ([1, -1, 0], 1)),  # fails the second row
        ("optimal", [Fraction(1), Fraction(0)], None),  # y . P = (1, 0), not 0
        ("optimal", [Fraction(1, 2), Fraction(1, 4)], None),  # sum(y) = 3/4
    ]
    for result in forged:
        answer(*result)
        with pytest.raises(InternalError):
            solve_cone(rows, 2)


def test_solve_cone_matches_the_full_dual_with_untouched_coordinates():
    # cones in which some coordinates are zero in every row: the full dual
    # has an all-zero equality row for each, solve_cone none
    rng = random.Random(24)
    verdicts, untouched = set(), 0
    for _ in range(400):
        d = rng.randint(1, 24)
        m = rng.randint(0, 6)
        touched = set(rng.sample(range(d), rng.randint(0, d - 1)))
        rows = [tuple(rng.randint(-3, 3) if i in touched else 0 for i in range(d)) for _ in range(m)]
        result = solve_cone(rows, d)
        assert result == reference_solve_cone(rows, d), (rows, d)
        verdicts.add(result[0] is not None)
        untouched += d - len({i for p in rows for i, v in enumerate(p) if v})
    assert verdicts == {True, False} and untouched > 1000


def test_solve_cone_matches_the_full_dual_on_ring_cones(monkeypatch):
    # every cone of the separation pass of none cyclenet(16, 1) and
    # cyclenet(24, 1): one row over d = n - 1, most coordinates untouched
    captured = []
    original = synthesis_module.solve_cone

    def capturing(rows, d):
        captured.append((list(rows), d))
        return original(rows, d)

    monkeypatch.setattr(synthesis_module, "solve_cone", capturing)
    for n in (16, 24):
        assert synthesize(reachability_graph(cyclenet(n, 1)).lts).success
    monkeypatch.undo()
    assert len(captured) > 400
    for rows, d in captured:
        assert solve_cone(rows, d) == reference_solve_cone(rows, d), (rows, d)
