"""Differential tests: aptk.linalg.LinearSystem and RowSystem against the
solvers kept in reference_linalg.py, the per-node Fraction solver and the
solver that compiled its rows and built its node dual once per solve.

On the cone path both hand solve_lp rows that are equal as rationals, so
Bland's rule takes the same pivots in both and every result must be
identical: the same assignment, None, or the same error type.  Branch and
bound solves each node LP through its dual, whose simplex may end at
another optimal vertex than the reference's primal one when the objective
ties or is missing.  Boxed systems are therefore compared on the verdict
(an assignment, None or the error type) and on the optimum value when
there is an objective; `LinearSystem._verify` checks every returned
point.  On the 1,500 random boxed systems, 1,485 results are identical,
12 are another point with the same value and 3 another point of a system
without objective.  The systems the synthesis engine builds keep exact
equality.

Against the compiled solver every result is exactly identical: RowSystem
builds the same node duals, once per set of shared rows and free columns
instead of once per solve, and takes the same pivots.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from aptk import synthesis
from aptk.common import AptError, BoundExceededError
from aptk.linalg import LinearSystem, RowSystem
from aptk.synthesis import PropertySet, enumerate_separation_problems
from reference_linalg import CompiledLinearSystem, ReferenceLinearSystem
from test_synthesis import _canonical_instances, _solve

F = Fraction


def _outcome(solve):
    try:
        return solve()
    except AptError as err:
        return type(err)


def _kind(outcome):
    return outcome.__name__ if isinstance(outcome, type) else type(outcome).__name__


def _build(cls, spec):
    variables, constraints, objective = spec
    system = cls()
    for name, lower, upper in variables:
        system.add_variable(name, lower=lower, upper=upper)
    for coeffs, rel, rhs in constraints:
        system.add_constraint(coeffs, rel, rhs)
    if objective is not None:
        system.set_objective(objective)
    return system


def _assert_same(spec):
    expected = _outcome(_build(ReferenceLinearSystem, spec).solve)
    assert _outcome(_build(LinearSystem, spec).solve) == expected, spec
    return expected


def _assert_agrees(spec):
    """The same verdict, and the same optimum value under an objective."""
    expected = _outcome(_build(ReferenceLinearSystem, spec).solve)
    got = _outcome(_build(LinearSystem, spec).solve)
    assert _kind(got) == _kind(expected), spec
    objective = spec[2]
    if isinstance(got, dict) and objective is not None:
        value = lambda point: sum(c * point[n] for n, c in objective.items())
        assert value(got) == value(expected), spec
    return got


def _number(rng, low, high):
    """An int in [low, high], or now and then a non-integral Fraction."""
    if rng.random() < 0.2:
        return F(rng.randint(2 * low, 2 * high) + 1, 2) if rng.random() < 0.5 else F(
            rng.randint(3 * low, 3 * high), 3
        )
    return rng.randint(low, high)


def _constraints(rng, names, rhs_of):
    out = []
    for _ in range(rng.randint(1, 4)):
        coeffs = {n: _number(rng, -3, 3) for n in names if rng.random() < 0.8}
        rel = rng.choice(["=", "<=", ">=", "<=", ">="])
        out.append((coeffs, rel, rhs_of(rel)))
    return out


def _objective(rng, names):
    if rng.random() < 0.5:
        return None
    return {n: _number(rng, -1, 2) for n in names if rng.random() < 0.8}


def _boxed_spec(rng):
    names = [f"v{i}" for i in range(rng.randint(1, 4))]
    variables = []
    for name in names:
        lower = rng.randint(-3, 1)
        variables.append((name, lower, lower + rng.choice([0, 1, 2, 3, 4, 6])))
    constraints = _constraints(rng, names, lambda rel: _number(rng, -5, 5))
    return variables, constraints, _objective(rng, names)


def _cone_spec(rng):
    names = [f"v{i}" for i in range(rng.randint(1, 4))]
    variables = [(n, rng.choice([None, None, 0]), None) for n in names]
    # a fixed variable shifts the right-hand sides, which can leave the cone
    if rng.random() < 0.3:
        value = rng.randint(-1, 1)
        variables.append(("fixed", value, value))
        names.append("fixed")

    def rhs_of(rel):
        if rel == "<=" and rng.random() < 0.6:
            return rng.choice([-1, -2, F(-3, 2), F(-7, 3)])
        return 0

    return variables, _constraints(rng, names, rhs_of), _objective(rng, names)


def test_boxed_systems_match_reference():
    rng = random.Random(20260701)
    kinds = Counter()
    for _ in range(1500):
        kinds[_kind(_assert_agrees(_boxed_spec(rng)))] += 1
    # both verdicts occur often; boxed systems never raise
    assert set(kinds) == {"dict", "NoneType"} and min(kinds.values()) > 300


# Each has an = row with fractional coefficients.  The reference's solve_lp
# weighs the artificial of such a row by the row's own denominator scale,
# so a row handed over pre-multiplied by that scale would take other
# phase-1 pivots there (the random sweep meets such a system about once in
# 20,000).  Branch and bound scales every row to integers before it builds
# the dual, which has no phase 1 here.
FRACTIONAL_EQUALITY_CASES = [
    (
        [("v0", -3, 3), ("v1", -1, 3), ("v2", 1, 7), ("v3", -3, 0)],
        [
            ({"v0": -2, "v1": -3, "v2": F(1, 3)}, "<=", 0),
            ({"v0": -2, "v1": -2, "v3": F(5, 3)}, "=", -4),
        ],
        None,
    ),
    (
        [("v0", -1, 5), ("v1", -1, 4), ("v2", 0, 4), ("v3", 0, 4)],
        [
            ({"v0": F(-2, 5), "v1": F(-4, 5), "v3": F(7, 5)}, "=", -3),
            ({"v0": F(-1, 2), "v1": F(-2, 5), "v2": -2, "v3": 5}, ">=", F(6, 5)),
        ],
        None,
    ),
]


def test_fractional_equality_rows_match_reference():
    for spec in FRACTIONAL_EQUALITY_CASES:
        assert isinstance(_assert_agrees(spec), dict)


def test_cone_systems_match_reference():
    rng = random.Random(1983)
    kinds = Counter()
    for _ in range(1000):
        kinds[_kind(_assert_same(_cone_spec(rng)))] += 1
    assert kinds["dict"] > 200 and kinds["NoneType"] > 100
    assert kinds["BoundExceededError"] > 30


def test_unboxed_systems_raise_like_reference():
    rng = random.Random(4)
    for _ in range(100):
        names = [f"v{i}" for i in range(rng.randint(1, 3))]
        variables = [(names[0], 0, None)] + [
            (n, rng.choice([None, 0, -1]), rng.choice([None, 5])) for n in names[1:]
        ]
        constraints = _constraints(rng, names, lambda rel: rng.randint(1, 4))
        # a positive right-hand side rules out the cone path
        constraints.append(({names[0]: 1}, "<=", rng.randint(1, 4)))
        spec = (variables, constraints, _objective(rng, names))
        assert _assert_same(spec) is BoundExceededError


ENGINE_MODES = ["safe", "2-bounded", "plain,pure", "conflict-free"]


def _named(point):
    """A RowSystem result as a LinearSystem over the names c0, c1, ..."""
    return {f"c{j}": x for j, x in enumerate(point)} if isinstance(point, list) else point


def _row_spec(shared, extra, lower, upper, objective):
    """The RowSystem rows as a LinearSystem spec over c0, c1, ..."""
    rows = shared + extra
    variables = [(f"c{j}", lo, hi) for j, (lo, hi) in enumerate(zip(lower, upper))]
    constraints = [({f"c{j}": c for j, c in enumerate(coeffs) if c}, rel, rhs) for coeffs, rel, rhs in rows]
    weights = None if objective is None else {f"c{j}": c for j, c in enumerate(objective) if c}
    return variables, constraints, weights


@lru_cache(maxsize=None)
def _engine_systems():
    """Every distinct system the engine hands its row-level entry, as the
    arguments of `_row_spec`, with the entry's result on it (a RowSystem's
    own rows are shared, not copied): the general solver's
    systems on the small canonical inputs, plus the boxed basis-coefficient
    systems of plain,pure.  All of them are boxed, so the entry may not
    raise.  A third of the systems repeat one built before.  As when they
    were LinearSystems with named variables, a system of the general
    solver is told apart by its input's labels too, which name its
    columns r0, b_t and f_t; a coefficient system's columns are x0, x1, ..."""
    results = {}
    names = [None]

    class Recording(RowSystem):
        def solve(self, lower, upper, extra=()):
            extra = list(extra)
            key = repr((names[0], self.rows + extra, lower, upper, self.objective))
            if key not in results:
                point = super().solve(lower, upper, extra)
                results[key] = ((self.rows, extra, lower, upper, self.objective), _named(point))
            got = results[key][1]
            return None if got is None else list(got.values())

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis, "RowSystem", Recording)
        for lts in _canonical_instances(3, 2):
            problems = enumerate_separation_problems(lts)
            for mode in ENGINE_MODES:
                engine = synthesis._Engine(lts, PropertySet.parse(mode))
                for problem in problems:
                    names[0] = lts.labels
                    _solve(engine.solve_general, problem)
                    if mode == "plain,pure":
                        names[0] = None
                        _solve(engine.solve_basis, problem)
    return list(results.values())


def test_engine_systems_match_reference():
    # recorded at the engine's row-level entry, RowSystem.solve
    results = [
        (got, _build(ReferenceLinearSystem, _row_spec(*system)).solve()) for system, got in _engine_systems()
    ]
    assert len(results) > 20000
    assert sum(isinstance(got, dict) for got, _ in results) > 900
    for got, expected in results:
        assert got == expected


def test_row_entry_matches_the_compiled_solver():
    # the exact result, not only the verdict: the same point, None or
    # error type, on every engine system and every random boxed system
    for system, got in _engine_systems():
        spec = _row_spec(*system)
        assert got == _outcome(_build(CompiledLinearSystem, spec).solve), spec
    rng = random.Random(20260701)
    kinds = Counter()
    for _ in range(1500):
        spec = _boxed_spec(rng)
        expected = _outcome(_build(CompiledLinearSystem, spec).solve)
        assert _outcome(_build(LinearSystem, spec).solve) == expected, spec
        kinds[_kind(expected)] += 1
    assert set(kinds) == {"dict", "NoneType"} and min(kinds.values()) > 300
