import itertools
import random
import re
from fractions import Fraction

import pytest

from aptk import LinearSystem, integer_kernel_basis, linalg, minimal_semipositive_solutions
from aptk.common import BoundExceededError, InternalError


# -- independent oracles ------------------------------------------------------


def rational_rank(rows):
    """Gaussian elimination over Fractions, written independently of the
    package's integer elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * p for v, p in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def brute_force_feasible(system_spec, box):
    """Search the integer box for any point satisfying every constraint."""
    names, bounds, constraints = system_spec
    ranges = [range(-box, box + 1) if bounds[n] is None else range(0, box + 1) for n in names]
    for point in itertools.product(*ranges):
        values = dict(zip(names, point))
        ok = True
        for coeffs, rel, rhs in constraints:
            left = sum(c * values[n] for n, c in coeffs.items())
            if rel == "=" and left != rhs:
                ok = False
            elif rel == "<=" and left > rhs:
                ok = False
            elif rel == ">=" and left < rhs:
                ok = False
            if not ok:
                break
        if ok:
            return values
    return None


# -- kernel basis -------------------------------------------------------------


def test_kernel_all_ones():
    rows = [(1, 1, 1, 1)]
    basis = integer_kernel_basis(rows)
    assert len(basis) == 4 - rational_rank(rows)
    for vec in basis:
        assert sum(vec) == 0


def test_kernel_empty_rows():
    basis = integer_kernel_basis([], dim=2)
    assert len(basis) == 2
    assert rational_rank(basis) == 2


def test_kernel_full_rank():
    assert integer_kernel_basis([(1, 0), (0, 1)]) == []


def test_kernel_annihilates_and_spans():
    rows = [(2, 1, 1), (0, 1, 3)]
    basis = integer_kernel_basis(rows)
    assert len(basis) == 3 - rational_rank(rows)
    for vec in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


def test_kernel_vectors_primitive():
    import math

    for rows, dim in [([(1, 1, 1, 1)], 4), ([(2, 1, 1)], 3), ([(6, 10, 15)], 3)]:
        for vec in integer_kernel_basis(rows, dim=dim):
            assert math.gcd(*[abs(v) for v in vec]) == 1


def test_kernel_generates_integer_lattice():
    # (-1, 1, 1) solves 2x + y + z = 0 and must be an integer combination
    basis = integer_kernel_basis([(2, 1, 1)])
    target = (-1, 1, 1)
    found = False
    for coeffs in itertools.product(range(-6, 7), repeat=len(basis)):
        vec = tuple(
            sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(3)
        )
        if vec == target:
            found = True
            break
    assert found


def test_kernel_deterministic():
    rows = [(1, 2, 3, 4), (0, 1, 1, 0)]
    assert integer_kernel_basis(rows) == integer_kernel_basis(rows)


def test_full_column_rank_is_an_empty_kernel_basis():
    # the rank test against the basis it stands in for, on seeded random
    # matrices and on the cycle rows of every canonical system
    from test_synthesis import _canonical_instances
    from aptk.synthesis import _Engine, PropertySet

    rng = random.Random(20150601)
    cases = []
    for _ in range(3000):
        dim = rng.randint(1, 5)
        cases.append(([tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 8))], dim))
    for lts in _canonical_instances(3, 2):
        engine = _Engine(lts, PropertySet())
        cases.append((engine.cycle_rows, len(engine.labels)))
    verdicts = [linalg._full_column_rank(rows, dim) for rows, dim in cases]
    assert verdicts == [integer_kernel_basis(rows, dim=dim) == [] for rows, dim in cases]
    assert sum(verdicts[:3000]) > 1000 and sum(verdicts[3000:]) > 500
    assert not all(verdicts[:3000]) and not all(verdicts[3000:])


# -- integer feasibility ------------------------------------------------------


def test_infeasible_box():
    system = LinearSystem()
    system.add_variable("x", lower=0)
    system.add_constraint({"x": 1}, "<=", -1)
    assert system.solve() is None


def test_simple_cone_solution():
    system = LinearSystem()
    system.add_variable("x", lower=0)
    system.add_variable("y", lower=0)
    system.add_constraint({"x": 1, "y": -1}, "<=", -1)
    solution = system.solve()
    assert solution is not None
    assert solution["x"] - solution["y"] <= -1
    assert solution["x"] >= 0 and solution["y"] >= 0


def test_free_variables_cone():
    system = LinearSystem()
    system.add_variable("x")
    system.add_variable("y")
    system.add_constraint({"x": 2, "y": 1}, "=", 0)
    system.add_constraint({"x": 1}, "<=", -1)
    solution = system.solve()
    assert solution is not None
    assert 2 * solution["x"] + solution["y"] == 0
    assert solution["x"] <= -1


def test_branch_and_bound_equality():
    system = LinearSystem()
    system.add_variable("x", lower=0, upper=5)
    system.add_variable("y", lower=0, upper=5)
    system.add_constraint({"x": 2, "y": 3}, "=", 7)
    solution = system.solve()
    assert solution == {"x": 2, "y": 1}


def test_branch_and_bound_infeasible():
    system = LinearSystem()
    system.add_variable("x", lower=0, upper=4)
    system.add_constraint({"x": 2}, "=", 7)
    assert system.solve() is None


def test_objective_picks_minimum():
    system = LinearSystem()
    system.add_variable("x", lower=0, upper=10)
    system.add_variable("y", lower=0, upper=10)
    system.add_constraint({"x": 1, "y": 1}, ">=", 3)
    system.minimize_all_variables()
    solution = system.solve()
    assert solution["x"] + solution["y"] == 3


def test_unbounded_box_reported_distinctly():
    system = LinearSystem()
    system.add_variable("x", lower=0)  # no upper bound
    system.add_constraint({"x": 1}, "<=", 5)  # positive rhs forces tier 2
    with pytest.raises(BoundExceededError):
        system.solve()


def test_fixed_variables_are_substituted():
    system = LinearSystem()
    system.add_variable("x", lower=0, upper=0)
    system.add_variable("y", lower=0)
    system.add_constraint({"x": 5, "y": 1}, "=", 0)
    solution = system.solve()
    assert solution == {"x": 0, "y": 0}


def test_duplicate_variable_rejected():
    system = LinearSystem()
    system.add_variable("x")
    with pytest.raises(InternalError):
        system.add_variable("x")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LinearSystem().add_variable("x", lower=2, upper=1), "empty box for 'x'"),
        (lambda: LinearSystem().add_constraint({}, "<", 0), "bad relation '<'"),
        (lambda: integer_kernel_basis([[1, 0], [1]]), "kernel rows must share one dimension"),
        (lambda: integer_kernel_basis([[1, 0]], dim=3), "dim disagrees with row length"),
        (lambda: integer_kernel_basis([]), "dim required when no rows are given"),
        (lambda: minimal_semipositive_solutions([[1]], side="up"), "side must be 'right' or 'left'"),
        (lambda: minimal_semipositive_solutions([]), "dim required when the matrix is empty"),
    ],
    ids=[
        "empty box", "bad relation", "ragged kernel rows", "kernel dim mismatch",
        "kernel without rows or dim", "bad side", "empty matrix without dim",
    ],
)
def test_linalg_refuses_bad_arguments(call, message):
    with pytest.raises(InternalError, match=f"^{re.escape(message)}$"):
        call()


def test_objective_with_unknown_variable_rejected():
    system = LinearSystem()
    system.add_variable("x", lower=0, upper=3)
    system.add_variable("y", lower=0, upper=3)
    system.add_constraint({"x": 1, "y": 1}, ">=", 2)
    with pytest.raises(InternalError, match="'yy'"):
        system.set_objective({"x": 1, "yy": 5})


def test_objective_may_name_a_fixed_variable():
    system = LinearSystem()
    system.add_variable("x", lower=0, upper=3)
    system.add_variable("z", lower=2, upper=2)
    system.add_constraint({"x": 1, "z": 1}, ">=", 3)
    system.set_objective({"x": 1, "z": 4})
    assert system.solve() == {"x": 1, "z": 2}


def _parity_system():
    # 2x + 2y = 3 has no integer point, but its relaxation stays feasible
    # through several branchings
    system = LinearSystem()
    system.add_variable("x", lower=0, upper=3)
    system.add_variable("y", lower=0, upper=3)
    system.add_constraint({"x": 2, "y": 2}, "=", 3)
    return system


def test_branch_and_bound_stops_at_node_limit(monkeypatch):
    nodes = []
    solve_lp = linalg.solve_lp
    monkeypatch.setattr(linalg, "solve_lp", lambda *a, **k: nodes.append(1) or solve_lp(*a, **k))
    assert _parity_system().solve() is None
    needed = len(nodes)
    assert needed > 3
    monkeypatch.setattr(linalg, "DEFAULT_NODE_LIMIT", needed)
    assert _parity_system().solve() is None
    monkeypatch.setattr(linalg, "DEFAULT_NODE_LIMIT", needed - 1)
    with pytest.raises(BoundExceededError, match=f"limit of {needed - 1} nodes"):
        _parity_system().solve()


def test_node_lps_have_one_row_per_free_variable(monkeypatch):
    # each node LP goes to solve_lp as the dual of the node's LP: one row per
    # free variable however many rows the system has.  With c >= 0 (all
    # variables minimised, or no objective) every row is <= with rhs >= 0,
    # so the simplex starts from the slack basis and runs once: no phase 1.
    calls, runs = [], []
    solve_lp, run_simplex = linalg.solve_lp, linalg._run_simplex

    def recording(num_vars, rows, *args, **kwargs):
        calls.append(rows)
        return solve_lp(num_vars, rows, *args, **kwargs)

    monkeypatch.setattr(linalg, "solve_lp", recording)
    monkeypatch.setattr(linalg, "_run_simplex", lambda *a: runs.append(1) or run_simplex(*a))
    rng = random.Random(1983)
    verdicts, nodes = [], 0
    for trial in range(60):
        system = LinearSystem()
        names = [f"v{i}" for i in range(rng.randint(1, 4))]
        # the rows hold at this point, with slack 0-2, in two trials of three
        point = {"fixed": 1}
        for name in names:
            lower = rng.randint(-2, 0)
            system.add_variable(name, lower=lower, upper=lower + rng.randint(1, 4))
            point[name] = lower + rng.randint(0, 1)
        system.add_variable("fixed", lower=1, upper=1)
        num_rows = rng.randint(6, 12)
        for _ in range(num_rows):
            coeffs = {n: rng.randint(-3, 3) for n in point}
            at = sum(c * point[n] for n, c in coeffs.items())
            rel = rng.choice(["<=", ">=", "<=", ">=", "="])
            slack = 0 if rel == "=" else rng.randint(0, 2)
            rhs = at + (slack if rel == "<=" else -slack) if trial % 3 else rng.randint(-2, 4)
            system.add_constraint(coeffs, rel, rhs)
        if trial % 2:
            system.minimize_all_variables()
        del calls[:], runs[:]
        verdicts.append(system.solve() is not None)
        assert calls and all(len(rows) == len(names) < num_rows for rows in calls)
        assert all(rel == "<=" and rhs >= 0 for rows in calls for _, rel, rhs in rows)
        assert len(runs) == len(calls)
        nodes += len(calls)
    # both verdicts occur, and some systems branch
    assert 10 < sum(verdicts) < 50 and nodes > len(verdicts)


def _random_cone_system(rng):
    n_vars = rng.randint(1, 4)
    names = [f"v{i}" for i in range(n_vars)]
    bounds = {}
    system = LinearSystem()
    spec_constraints = []
    for name in names:
        free = rng.random() < 0.4
        bounds[name] = None if free else 0
        system.add_variable(name, lower=bounds[name])
    for _ in range(rng.randint(1, 5)):
        coeffs = {n: rng.randint(-3, 3) for n in names}
        coeffs = {n: c for n, c in coeffs.items() if c}
        if not coeffs:
            continue
        if rng.random() < 0.5:
            rel = rng.choice(["=", "<=", ">="])
            rhs = 0
        else:
            rel = "<="
            rhs = rng.randint(-3, -1)
        system.add_constraint(coeffs, rel, rhs)
        spec_constraints.append((coeffs, rel, rhs))
    return system, (names, bounds, spec_constraints)


def test_random_boxed_systems_match_brute_force_minimum():
    # branch and bound must agree with exhaustive box search on feasibility
    # AND return a true minimum when an objective is set
    rng = random.Random(90125)
    agreements = optima = 0
    for _ in range(150):
        n_vars = rng.randint(1, 3)
        names = [f"v{i}" for i in range(n_vars)]
        boxes = {}
        system = LinearSystem()
        for name in names:
            lo = rng.randint(-2, 1)
            hi = lo + rng.randint(0, 4)
            boxes[name] = (lo, hi)
            system.add_variable(name, lower=lo, upper=hi)
        constraints = []
        for _ in range(rng.randint(1, 4)):
            coeffs = {n: rng.randint(-3, 3) for n in names}
            coeffs = {n: c for n, c in coeffs.items() if c}
            if not coeffs:
                continue
            rel = rng.choice(["=", "<=", ">="])
            rhs = rng.randint(-4, 4)
            system.add_constraint(coeffs, rel, rhs)
            constraints.append((coeffs, rel, rhs))
        weights = {n: rng.randint(0, 2) for n in names}
        system.set_objective(weights)

        best = None
        for point in itertools.product(
            *(range(boxes[n][0], boxes[n][1] + 1) for n in names)
        ):
            values = dict(zip(names, point))
            ok = True
            for coeffs, rel, rhs in constraints:
                left = sum(c * values[n] for n, c in coeffs.items())
                if (
                    (rel == "=" and left != rhs)
                    or (rel == "<=" and left > rhs)
                    or (rel == ">=" and left < rhs)
                ):
                    ok = False
                    break
            if ok:
                value = sum(weights[n] * values[n] for n in names)
                if best is None or value < best:
                    best = value
        solution = system.solve()
        assert (solution is None) == (best is None)
        agreements += 1
        if solution is not None:
            got = sum(weights[n] * solution[n] for n in names)
            assert got == best, f"suboptimal: {got} vs {best}"
            optima += 1
    assert agreements == 150 and optima > 40


def test_random_cone_systems_match_brute_force():
    rng = random.Random(20240811)
    checked = 0
    for _ in range(200):
        system, spec = _random_cone_system(rng)
        solution = system.solve()
        brute = brute_force_feasible(spec, box=6)
        if brute is not None:
            assert solution is not None, f"missed feasible point {brute}"
        if solution is not None:
            names, bounds, constraints = spec
            for coeffs, rel, rhs in constraints:
                left = sum(c * solution[n] for n, c in coeffs.items())
                if rel == "=":
                    assert left == rhs
                elif rel == "<=":
                    assert left <= rhs
                else:
                    assert left >= rhs
        checked += 1
    assert checked == 200


# -- minimal semipositive solutions -------------------------------------------


def brute_force_minimal(matrix, box):
    n = len(matrix[0])
    points = []
    for point in itertools.product(range(box + 1), repeat=n):
        if all(v == 0 for v in point):
            continue
        if all(
            sum(c * v for c, v in zip(row, point)) == 0 for row in matrix
        ):
            points.append(point)
    return [
        p
        for p in points
        if not any(
            q != p and all(a <= b for a, b in zip(q, p)) for q in points
        )
    ]


def test_minimal_solutions_zero_matrix():
    assert minimal_semipositive_solutions([[0, 0]]) == [(0, 1), (1, 0)]


def test_minimal_solutions_only_trivial():
    assert minimal_semipositive_solutions([[1, 0], [0, 1]]) == []


def test_minimal_solutions_hilbert_point():
    # (1,1,1) is minimal for 2x = y + z but is not an extreme ray
    solutions = minimal_semipositive_solutions([[2, -1, -1]])
    assert (1, 1, 1) in solutions
    assert solutions == brute_force_minimal([[2, -1, -1]], box=4)


def test_minimal_solutions_left_side():
    ring = [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
    assert minimal_semipositive_solutions(ring, side="left") == [(1, 1, 1)]
    assert minimal_semipositive_solutions(ring, side="right") == [(1, 1, 1)]


def test_minimal_solutions_antichain_and_complete():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 4)
        matrix = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        solutions = minimal_semipositive_solutions(matrix)
        for s1 in solutions:
            for s2 in solutions:
                if s1 != s2:
                    assert not all(a <= b for a, b in zip(s1, s2))
        for point in brute_force_minimal(matrix, box=3):
            assert point in solutions


def test_minimal_solutions_stop_at_frontier_limit(monkeypatch):
    # the completion for this row holds 8 partial vectors in one level
    matrix = [[3, -2, -5, 1]]
    monkeypatch.setattr(linalg, "DEFAULT_FRONTIER_LIMIT", 8)
    assert minimal_semipositive_solutions(matrix) == brute_force_minimal(matrix, box=5)
    monkeypatch.setattr(linalg, "DEFAULT_FRONTIER_LIMIT", 7)
    with pytest.raises(BoundExceededError, match="limit of 7 vectors"):
        minimal_semipositive_solutions(matrix)
