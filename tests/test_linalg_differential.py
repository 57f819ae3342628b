"""Differential tests: aptk.linalg.LinearSystem (rows compiled once per solve
into coefficient lists) against the per-node Fraction solver kept in
reference_linalg.py.

Both hand solve_lp rows that are equal as rationals, so Bland's rule takes
the same pivots in both and every result must be identical: the same
assignment, None, or the same error type.
"""

import random
from collections import Counter
from fractions import Fraction

from aptk import synthesis
from aptk.common import AptError, BoundExceededError
from aptk.linalg import LinearSystem
from aptk.synthesis import PropertySet, enumerate_separation_problems
from reference_linalg import ReferenceLinearSystem
from test_synthesis import _canonical_instances

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
        kinds[_kind(_assert_same(_boxed_spec(rng)))] += 1
    # both verdicts occur often; boxed systems never raise
    assert set(kinds) == {"dict", "NoneType"} and min(kinds.values()) > 300


# Each has an = row with fractional coefficients.  solve_lp weighs the
# artificial of such a row by the row's own denominator scale, so a row
# handed over pre-multiplied by that scale would take other phase-1 pivots
# and return another feasible point here (the random sweep meets such a
# system about once in 20,000).
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
        assert isinstance(_assert_same(spec), dict)


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


def test_engine_systems_match_reference(monkeypatch):
    # every system the general solver builds on the small canonical inputs,
    # plus the boxed basis-coefficient systems of plain,pure; all of them are
    # boxed, so neither solver may raise.  A third of the systems repeat one
    # built before and are answered from the first result.
    results = {}

    class Recording(LinearSystem):
        def solve(self):
            key = repr((self._vars, self._rows, self._objective))
            if key not in results:
                reference = ReferenceLinearSystem()
                vars(reference).update(vars(self))
                results[key] = (super().solve(), reference.solve())
            return results[key][0]

    monkeypatch.setattr(synthesis, "LinearSystem", Recording)
    for lts in _canonical_instances(3, 2):
        problems = enumerate_separation_problems(lts)
        for mode in ENGINE_MODES:
            engine = synthesis._Engine(lts, PropertySet.parse(mode))
            for problem in problems:
                engine.solve_general(problem)
                if mode == "plain,pure":
                    engine.solve_basis(problem)
    assert len(results) > 20000
    assert sum(isinstance(got, dict) for got, _ in results.values()) > 900
    for got, expected in results.values():
        assert got == expected
