"""Differential tests: aptk.linalg.solve_lp (fraction-free integer tableau)
against the Fraction-tableau simplex kept in reference_lp.py.

Both pivot by Bland's rule on the same rational tableau, so they must agree
exactly: the same status and the same point, not just the same optimum.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from aptk.linalg import solve_lp
from reference_lp import solve_lp as reference_solve_lp

F = Fraction


def assert_same(num_vars, rows, objective):
    expected = reference_solve_lp(num_vars, rows, objective)
    assert solve_lp(num_vars, rows, objective) == expected
    return expected


CASES = [
    # (num_vars, rows, objective, expected status)
    (2, [([1, 1], "<=", 4), ([1, -1], ">=", -2)], [-1, -2], "optimal"),
    (2, [([F(1, 2), F(2, 3)], "<=", F(7, 5)), ([F(-3, 4), 1], "=", F(-1, 6))], [F(1, 3), F(-5, 7)], "optimal"),
    # negative right-hand sides flip the relation
    (2, [([-1, -1], "<=", -3), ([1, 0], "<=", 1)], [1, 1], "optimal"),
    (1, [([-2], ">=", F(-5, 2))], [-1], "optimal"),
    # infeasible
    (1, [([1], ">=", 2), ([1], "<=", 1)], None, "infeasible"),
    (2, [([1, 1], "=", -1)], [1, 0], "infeasible"),
    # unbounded, with and without a constraint
    (2, [([1, -1], "<=", 1)], [-1, 0], "unbounded"),
    (1, [], [-1], "unbounded"),
    # degenerate: several rows tie at ratio 0, Bland's rule breaks the tie
    (3, [([1, 1, 0], "<=", 0), ([1, 0, 1], "<=", 0), ([0, 1, 1], "<=", 2)], [-1, -1, -1], "optimal"),
    (2, [([1, 1], "=", 1), ([1, 1], "=", 1), ([2, 2], "=", 2)], None, "optimal"),
    # an artificial variable stays basic at zero: the redundant row is dropped
    (1, [([0], "=", 0)], None, "optimal"),
    # ... or driven out through a negative pivot entry
    (1, [([0], ">=", 0)], [1], "optimal"),
    (2, [([2, -2], "=", -1), ([-1, -2], ">=", -1)], [1, -1], "optimal"),
    # no variables, no rows
    (0, [([], "<=", 1)], None, "optimal"),
    (0, [], None, "optimal"),
]


@pytest.mark.parametrize("num_vars, rows, objective, status", CASES)
def test_solve_lp_matches_reference_on_hand_cases(num_vars, rows, objective, status):
    assert assert_same(num_vars, rows, objective)[0] == status


def random_lp(rng):
    def number():
        if rng.random() < 0.3:
            return 0
        value = F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3, 4]))
        return value if value.denominator != 1 or rng.random() < 0.5 else int(value)

    num_vars = rng.randint(0, 6)
    rows = [
        ([number() for _ in range(num_vars)], rng.choice(["<=", ">=", "="]), number())
        for _ in range(rng.randint(0, 7))
    ]
    objective = None if rng.random() < 0.3 else [number() for _ in range(num_vars)]
    return num_vars, rows, objective


def test_solve_lp_matches_reference_on_random_sweep():
    rng = random.Random(20260)
    statuses = {"optimal": 0, "unbounded": 0, "infeasible": 0}
    for _ in range(3000):
        statuses[assert_same(*random_lp(rng))[0]] += 1
    assert min(statuses.values()) >= 300, statuses


def test_solve_lp_matches_reference_on_dense_rational_sweep():
    # larger and denser than the random sweep, so entries grow over pivots
    rng = random.Random(7)
    for _ in range(60):
        num_vars = rng.randint(4, 9)
        rows = [
            (
                [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(num_vars)],
                rng.choice(["<=", "<=", ">=", "="]),
                F(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            for _ in range(rng.randint(3, 9))
        ]
        objective = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(num_vars)]
        assert_same(num_vars, rows, objective)
        assert_same(num_vars, rows, None)


numbers = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def lps(draw):
    num_vars = draw(st.integers(0, 5))
    row = st.tuples(
        st.lists(numbers, min_size=num_vars, max_size=num_vars),
        st.sampled_from(["<=", ">=", "="]),
        numbers,
    )
    rows = draw(st.lists(row, max_size=6))
    objective = draw(st.none() | st.lists(numbers, min_size=num_vars, max_size=num_vars))
    return num_vars, rows, objective


@settings(max_examples=200, deadline=None)
@given(lps())
def test_solve_lp_matches_reference_hypothesis(lp):
    assert_same(*lp)


def assert_duals_certify(num_vars, rows, objective):
    """The multipliers solve_lp returns with duals: the same status and
    point as without them, and at an optimum a dual solution whose value
    equals the optimum, checked exactly."""
    status, x, u = solve_lp(num_vars, rows, objective, duals=True)
    assert (status, x) == solve_lp(num_vars, rows, objective)
    if status != "optimal":
        assert u is None
        return status
    numerators, denominator = u  # in lowest terms over one positive denominator
    assert denominator > 0 and math.gcd(*numerators, denominator) == 1
    u = [Fraction(v, denominator) for v in numerators]
    c = objective if objective is not None else [0] * num_vars
    assert len(u) == len(rows)
    assert sum(ui * rhs for ui, (_, _, rhs) in zip(u, rows)) == sum(a * b for a, b in zip(c, x))
    for j in range(num_vars):
        assert c[j] - sum(ui * coeffs[j] for ui, (coeffs, _, _) in zip(u, rows)) >= 0
    for ui, (_, rel, _) in zip(u, rows):
        assert {"<=": ui <= 0, ">=": ui >= 0, "=": True}[rel]
    return status


def test_solve_lp_duals_certify_the_optimum():
    for num_vars, rows, objective, status in CASES:
        assert assert_duals_certify(num_vars, rows, objective) == status
    rng = random.Random(20261)
    optimal = sum(assert_duals_certify(*random_lp(rng)) == "optimal" for _ in range(2000))
    assert optimal >= 300


@settings(max_examples=200, deadline=None)
@given(lps())
def test_solve_lp_duals_certify_the_optimum_hypothesis(lp):
    assert_duals_certify(*lp)
