"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision integers; no floating point
enters any computation.  The simplex tableau is fraction-free: each row is
an integer vector that stands for a rational row up to a positive factor,
reduced by its gcd after every elimination (integer-preserving elimination
in the manner of Bareiss).  Rational values appear only at the boundary, as
fractions.Fraction inputs and solution points.  Pivoting and branching rules
are fixed (smallest index first) so results are identical run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .common import BoundExceededError, InternalError

Coeffs = Dict[str, int]


# ---------------------------------------------------------------------------
# Exact two-phase simplex over nonnegative variables, on integer rows.
# ---------------------------------------------------------------------------


def _nonzeros(line: List[int]) -> List[Tuple[int, int]]:
    return [(j, v) for j, v in enumerate(line) if v]


def _eliminate(
    line: List[int], col: int, piv: int, pivot_terms: List[Tuple[int, int]]
) -> List[int]:
    """piv * line - line[col] * pivot row, divided by its gcd.

    piv > 0 is the pivot row's entry in col and pivot_terms its nonzero
    (index, value) pairs; tableaus are sparse, so only those are visited.
    """
    factor = line[col]
    out = [piv * v for v in line] if piv != 1 else line[:]
    for j, p in pivot_terms:
        out[j] -= factor * p
    g = math.gcd(*out)
    return [v // g for v in out] if g > 1 else out


def _pivot(
    tableau: List[List[int]], basis: List[int], row: int, col: int
) -> List[Tuple[int, int]]:
    """Make col basic in row, whose entry there must be positive; returns
    the pivot row's nonzero terms."""
    piv = tableau[row][col]
    terms = _nonzeros(tableau[row])
    for r, line in enumerate(tableau):
        if r != row and line[col]:
            tableau[r] = _eliminate(line, col, piv, terms)
    basis[row] = col
    return terms


def _run_simplex(tableau, basis, cost, num_cols) -> Tuple[str, int]:
    """Minimise cost over the current tableau with Bland's rule.

    cost is a full row (length num_cols + 1, last entry the running value,
    stored negated as usual), kept only up to a positive factor: its signs
    pick the pivots.  Returns ('optimal', v) or ('unbounded', v), where v is
    that positive multiple of minus the optimum.
    """
    m = len(tableau)
    # price out basic variables
    for r in range(m):
        b = basis[r]
        if cost[b]:
            cost = _eliminate(cost, b, tableau[r][b], _nonzeros(tableau[r]))
    while True:
        col = -1
        for c in range(num_cols):
            if cost[c] < 0:
                col = c
                break
        if col < 0:
            return "optimal", cost[num_cols]
        # smallest ratio rhs / entry, ties to the smallest basic index;
        # the ratios are compared by cross-multiplying
        row = -1
        for r in range(m):
            a = tableau[r][col]
            if a > 0:
                if row < 0:
                    row = r
                    continue
                left = tableau[r][num_cols] * tableau[row][col]
                right = tableau[row][num_cols] * a
                if left < right or (left == right and basis[r] < basis[row]):
                    row = r
        if row < 0:
            return "unbounded", cost[num_cols]
        terms = _pivot(tableau, basis, row, col)
        if cost[col]:
            cost = _eliminate(cost, col, tableau[row][col], terms)


def _integer_row(values) -> Tuple[List[int], int]:
    """(the values, ints or Fractions, times the lcm L of their
    denominators, L)."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_lp(
    num_vars: int,
    rows: Sequence[Tuple[Sequence[Fraction], str, Fraction]],
    objective: Optional[Sequence[Fraction]] = None,
) -> Tuple[str, Optional[List[Fraction]]]:
    """Exact LP over x >= 0: rows are (coeffs, rel, rhs) with rel in <=, =, >=
    and every number an int or a Fraction.

    Returns ('infeasible', None), ('optimal', x) or ('unbounded', x) where in
    the unbounded case x is still a feasible point.

    The tableau is fraction-free: row r holds integers and stands for the
    rational row tableau[r] / tableau[r][basis[r]], whose basic coefficient
    is kept positive; every elimination divides the row by its gcd.  Pivots
    follow Bland's smallest-index rule on that rational tableau, so the
    pivot sequence, and with it the returned point, is the one of the
    textbook rational simplex.
    """
    work: List[Tuple[List[int], str, int]] = []
    for coeffs, rel, rhs in rows:
        line, scale = _integer_row(list(coeffs) + [rhs])
        if line[-1] < 0:
            line = [-v for v in line]
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        work.append((line, rel, scale))

    m = len(work)
    num_slack = sum(1 for _, rel, _ in work if rel != "=")
    total = num_vars + num_slack
    grand = total + sum(1 for _, rel, _ in work if rel != "<=")
    tableau: List[List[int]] = []
    basis: List[int] = []
    slack_idx = num_vars
    art_idx = total
    for line, rel, scale in work:
        # slack and artificial entries are +-scale, i.e. +-1 in the rational
        # row; phase 1 weighs the artificials by these entries
        full = line[:-1] + [0] * (grand - num_vars) + line[-1:]
        if rel == "<=":
            full[slack_idx] = scale
            basis.append(slack_idx)
            slack_idx += 1
        else:
            if rel == ">=":
                full[slack_idx] = -scale
                slack_idx += 1
            full[art_idx] = scale
            basis.append(art_idx)
            art_idx += 1
        g = math.gcd(*full)
        tableau.append([v // g for v in full] if g > 1 else full)

    if grand > total:
        cost = [0] * total + [1] * (grand - total) + [0]
        _, value = _run_simplex(tableau, basis, cost, grand)
        if value != 0:
            return "infeasible", None
        # drive surviving artificials out of the basis
        for r in range(m):
            if basis[r] >= total:
                for c in range(total):
                    if tableau[r][c] != 0:
                        if tableau[r][c] < 0:
                            tableau[r] = [-v for v in tableau[r]]
                        _pivot(tableau, basis, r, c)
                        break
        # artificial columns may never enter again: drop them
        rows_keep = [r for r in range(m) if basis[r] < total]
        tableau = [tableau[r][:total] + tableau[r][grand:] for r in rows_keep]
        basis = [basis[r] for r in rows_keep]

    cost = [0] * (total + 1)
    if objective is not None:
        weights, _ = _integer_row(objective)
        cost[: len(weights)] = weights
    status, _ = _run_simplex(tableau, basis, cost, total)

    solution = [Fraction(0)] * num_vars
    for r, b in enumerate(basis):
        if b < num_vars:
            solution[b] = Fraction(tableau[r][total], tableau[r][b])
    return status, solution


# ---------------------------------------------------------------------------
# Integer feasibility of mixed systems.
# ---------------------------------------------------------------------------


@dataclass
class _Var:
    name: str
    lower: Optional[int]
    upper: Optional[int]


class LinearSystem:
    """Constraint system over named integer variables.

    Relations are =, <= and >= with exact rational right-hand sides; strict
    inequalities are not representable, encode a < b as a <= b - 1.  Solving
    uses a scaling argument when the system is a zero-anchored cone (every
    right-hand side is 0 or at most -1 and no variable has an upper bound),
    and exact-LP branch and bound over the variable boxes otherwise.
    """

    def __init__(self):
        self._vars: List[_Var] = []
        self._index: Dict[str, int] = {}
        self._rows: List[Tuple[Coeffs, str, Fraction]] = []
        self._objective: Optional[Coeffs] = None

    def add_variable(
        self, name: str, lower: Optional[int] = None, upper: Optional[int] = None
    ) -> None:
        if name in self._index:
            raise InternalError(f"variable {name!r} declared twice")
        if lower is not None and upper is not None and lower > upper:
            raise InternalError(f"empty box for {name!r}")
        self._index[name] = len(self._vars)
        self._vars.append(_Var(name, lower, upper))

    def add_constraint(self, coeffs: Coeffs, rel: str, rhs) -> None:
        if rel not in ("<=", ">=", "="):
            raise InternalError(f"bad relation {rel!r}")
        for name in coeffs:
            if name not in self._index:
                raise InternalError(f"unknown variable {name!r}")
        if rel == ">=":
            coeffs = {n: -c for n, c in coeffs.items()}
            rhs = -Fraction(rhs)
            rel = "<="
        self._rows.append((dict(coeffs), rel, Fraction(rhs)))

    def set_objective(self, coeffs: Coeffs) -> None:
        self._objective = dict(coeffs)

    def minimize_all_variables(self) -> None:
        self.set_objective({v.name: 1 for v in self._vars})

    # -- solving ----------------------------------------------------------

    def solve(self) -> Optional[Dict[str, int]]:
        """Feasible integer assignment, or None when provably infeasible.

        Raises BoundExceededError when branch and bound would be needed but
        some variable has no finite box.
        """
        fixed = {
            v.name: v.lower
            for v in self._vars
            if v.lower is not None and v.lower == v.upper
        }
        free_vars = [v for v in self._vars if v.name not in fixed]
        rows: List[Tuple[Dict[str, Fraction], str, Fraction]] = []
        for coeffs, rel, rhs in self._rows:
            adjusted = {n: Fraction(c) for n, c in coeffs.items() if n not in fixed}
            shift = sum(Fraction(c) * fixed[n] for n, c in coeffs.items() if n in fixed)
            rows.append((adjusted, rel, rhs - shift))

        solution = self._solve_reduced(free_vars, rows)
        if solution is None:
            return None
        solution.update(fixed)
        self._verify(solution)
        return solution

    def _solve_reduced(self, variables, rows) -> Optional[Dict[str, int]]:
        if not variables:
            for coeffs, rel, rhs in rows:
                if rel == "=" and rhs != 0:
                    return None
                if rel == "<=" and rhs < 0:
                    return None
            return {}
        if self._tier1_applicable(variables, rows):
            return self._solve_scaling(variables, rows)
        for v in variables:
            if v.lower is None or v.upper is None:
                raise BoundExceededError(
                    f"variable {v.name!r} has no finite box; cannot branch and bound"
                )
        return self._branch_and_bound(variables, rows)

    @staticmethod
    def _tier1_applicable(variables, rows) -> bool:
        for v in variables:
            if v.upper is not None or v.lower not in (None, 0):
                return False
        for _, rel, rhs in rows:
            if rhs == 0:
                continue
            if rel == "<=" and rhs <= -1:
                continue
            return False
        return True

    def _lp_columns(self, variables):
        """Map each variable to LP columns: x>=0 keeps one, free ones split."""
        columns: Dict[str, Tuple[int, Optional[int]]] = {}
        count = 0
        for v in variables:
            if v.lower == 0:
                columns[v.name] = (count, None)
                count += 1
            else:
                columns[v.name] = (count, count + 1)
                count += 2
        return columns, count

    def _solve_scaling(self, variables, rows) -> Optional[Dict[str, int]]:
        """Cone systems: a rational point scaled by the lcm of denominators
        stays feasible, since every constraint is invariant under scaling by
        factors >= 1; rational infeasibility settles integer infeasibility.
        """
        columns, num_cols = self._lp_columns(variables)
        lp_rows = []
        for coeffs, rel, rhs in rows:
            line = [Fraction(0)] * num_cols
            for name, c in coeffs.items():
                pos, neg = columns[name]
                line[pos] += Fraction(c)
                if neg is not None:
                    line[neg] -= Fraction(c)
            lp_rows.append((line, rel, rhs))
        objective = None
        if self._objective is not None:
            objective = [Fraction(0)] * num_cols
            for name, c in self._objective.items():
                if name not in columns:
                    continue
                pos, neg = columns[name]
                objective[pos] += Fraction(c)
                if neg is not None:
                    objective[neg] -= Fraction(c)
        status, point = solve_lp(num_cols, lp_rows, objective)
        if status == "infeasible":
            return None
        values: Dict[str, Fraction] = {}
        for v in variables:
            pos, neg = columns[v.name]
            values[v.name] = point[pos] - (point[neg] if neg is not None else 0)
        scale = math.lcm(*(f.denominator for f in values.values())) if values else 1
        return {name: int(f * scale) for name, f in values.items()}

    def _branch_and_bound(self, variables, rows) -> Optional[Dict[str, int]]:
        """DFS branch and bound over the finite boxes.

        Branches on the lowest-index fractional variable, floor side first;
        with an objective the first incumbent attaining the best bound wins.
        """
        names = [v.name for v in variables]
        base_lower = {v.name: v.lower for v in variables}
        base_upper = {v.name: v.upper for v in variables}
        objective = self._objective

        best_value: Optional[Fraction] = None
        best_point: Optional[Dict[str, int]] = None

        stack = [(dict(base_lower), dict(base_upper))]
        while stack:
            lower, upper = stack.pop()
            if any(lower[n] > upper[n] for n in names):
                continue
            relax = self._lp_relaxation(names, lower, upper, rows, objective)
            if relax is None:
                continue
            value, point = relax
            if objective is not None and best_value is not None and value >= best_value:
                continue
            frac_name = None
            for n in names:
                if point[n].denominator != 1:
                    frac_name = n
                    break
            if frac_name is None:
                candidate = {n: int(point[n]) for n in names}
                if objective is None:
                    return candidate
                if best_value is None or value < best_value:
                    best_value = value
                    best_point = candidate
                continue
            v = point[frac_name]
            floor_branch = (dict(lower), dict(upper))
            floor_branch[1][frac_name] = math.floor(v)
            ceil_branch = (dict(lower), dict(upper))
            ceil_branch[0][frac_name] = math.ceil(v)
            stack.append(ceil_branch)
            stack.append(floor_branch)  # explored first
        return best_point

    def _lp_relaxation(self, names, lower, upper, rows, objective):
        """Solve the relaxation with shifted variables y = x - lower >= 0."""
        index = {n: i for i, n in enumerate(names)}
        lp_rows = []
        for coeffs, rel, rhs in rows:
            line = [Fraction(0)] * len(names)
            shift = Fraction(0)
            for name, c in coeffs.items():
                line[index[name]] += Fraction(c)
                shift += Fraction(c) * lower[name]
            lp_rows.append((line, rel, rhs - shift))
        for n in names:
            width = upper[n] - lower[n]
            line = [Fraction(0)] * len(names)
            line[index[n]] = Fraction(1)
            lp_rows.append((line, "<=", Fraction(width)))
        lp_objective = None
        if objective is not None:
            lp_objective = [Fraction(0)] * len(names)
            for name, c in objective.items():
                if name in index:
                    lp_objective[index[name]] = Fraction(c)
        status, point = solve_lp(len(names), lp_rows, lp_objective)
        if status == "infeasible":
            return None
        values = {n: point[index[n]] + lower[n] for n in names}
        value = Fraction(0)
        if objective is not None:
            value = sum(Fraction(c) * values[n] for n, c in objective.items() if n in values)
        return value, values

    def _verify(self, solution: Dict[str, int]) -> None:
        for v in self._vars:
            x = solution[v.name]
            if v.lower is not None and x < v.lower:
                raise InternalError(f"solution violates lower bound of {v.name}")
            if v.upper is not None and x > v.upper:
                raise InternalError(f"solution violates upper bound of {v.name}")
        for coeffs, rel, rhs in self._rows:
            left = sum(Fraction(c) * solution[n] for n, c in coeffs.items())
            ok = left == rhs if rel == "=" else left <= rhs
            if not ok:
                raise InternalError("solution fails a constraint; solver bug")


# ---------------------------------------------------------------------------
# Integer kernel lattice basis.
# ---------------------------------------------------------------------------


def integer_kernel_basis(rows: Sequence[Sequence[int]], dim: Optional[int] = None) -> List[Tuple[int, ...]]:
    """Basis of the integer kernel lattice {x : row . x = 0 for all rows}.

    Computed by unimodular column reduction, so the result is not just a
    rational basis of the nullspace: every integer kernel vector is an
    integer combination of the returned vectors.  Vectors are primitive,
    sign-normalised to a positive leading entry, in deterministic order.
    Basis size equals dim - rank(rows).
    """
    rows = [list(r) for r in rows]
    if rows:
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InternalError("kernel rows must share one dimension")
        if dim is not None and dim != n:
            raise InternalError("dim disagrees with row length")
    else:
        if dim is None:
            raise InternalError("dim required when no rows are given")
        n = dim

    m = len(rows)
    # column-major working pair: each entry is (matrix column, unimodular column)
    cols = [([rows[r][c] for r in range(m)], [1 if i == c else 0 for i in range(n)]) for c in range(n)]

    active = list(range(n))
    for r in range(m):
        live = [c for c in active if cols[c][0][r] != 0]
        while len(live) > 1:
            live.sort(key=lambda c: (abs(cols[c][0][r]), c))
            piv = live[0]
            pv = cols[piv][0][r]
            for c in live[1:]:
                q = cols[c][0][r] // pv
                if q:
                    for i in range(m):
                        cols[c][0][i] -= q * cols[piv][0][i]
                    for i in range(n):
                        cols[c][1][i] -= q * cols[piv][1][i]
            live = [c for c in live if cols[c][0][r] != 0]
        if live:
            active.remove(live[0])

    basis: List[Tuple[int, ...]] = []
    for c in active:
        vec = list(cols[c][1])
        lead = next((v for v in vec if v != 0), 0)
        if lead < 0:
            vec = [-v for v in vec]
        basis.append(tuple(vec))
    return basis


# ---------------------------------------------------------------------------
# Minimal semipositive solutions (Contejean-Devie completion).
# ---------------------------------------------------------------------------


def minimal_semipositive_solutions(
    matrix: Sequence[Sequence[int]], side: str = "right", dim: Optional[int] = None
) -> List[Tuple[int, ...]]:
    """All minimal nonzero x >= 0 with M.x = 0 (side='right') or x.M = 0
    (side='left'), minimal under the strict componentwise order.

    Breadth-first completion from the unit vectors: a partial vector x with
    residual v = M.x is extended by e_j only when <v, M.e_j> < 0, which is
    complete for this problem.  Minimal solutions are automatically
    primitive.  Output is sorted lexicographically.  `dim` (the solution
    dimension) is only needed when it cannot be read off the matrix shape.
    """
    if side not in ("right", "left"):
        raise InternalError("side must be 'right' or 'left'")
    mat = [list(r) for r in matrix]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    if side == "left":
        mat = [list(col) for col in zip(*mat)]
        nrows, ncols = ncols, nrows
    n = ncols
    if nrows == 0 and n == 0:
        if dim is None:
            raise InternalError("dim required when the matrix is empty")
        n = dim
    if n == 0:
        return []
    columns = [tuple(mat[r][c] for r in range(nrows)) for c in range(n)]

    minimal: List[Tuple[int, ...]] = []

    def dominated(x: Tuple[int, ...]) -> bool:
        return any(all(mi <= xi for mi, xi in zip(m, x)) for m in minimal)

    frontier: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    zero = tuple(0 for _ in range(nrows))
    for j in range(n):
        x = tuple(1 if i == j else 0 for i in range(n))
        frontier[x] = columns[j]

    while frontier:
        next_frontier: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for x, v in frontier.items():
            if v == zero:
                if not dominated(x):
                    minimal.append(x)
                continue
            for j in range(n):
                if sum(a * b for a, b in zip(v, columns[j])) < 0:
                    y = tuple(xi + (1 if i == j else 0) for i, xi in enumerate(x))
                    if y not in next_frontier and not dominated(y):
                        next_frontier[y] = tuple(a + b for a, b in zip(v, columns[j]))
        frontier = next_frontier

    minimal.sort()
    return minimal
