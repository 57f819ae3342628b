"""The LinearSystem solvers that aptk.linalg replaced.

In `ReferenceLinearSystem` every branch-and-bound node rebuilt its LP rows
from the name-keyed constraint dicts in Fraction arithmetic.  Both hand
solve_lp rows that are equal as rationals, so on the cone path every
result (assignment, None or error type) must be identical; branch and
bound solves its nodes through their duals and is compared on the
verdict and the optimum.

`CompiledLinearSystem` is the solver that followed: each solve compiled
the named rows into coefficient lists over the free variables, scaled
them to integers and built the node dual of branch and bound from them,
once per solve.  aptk.linalg now builds that dual once per set of shared
rows and free columns (`RowSystem`), with the same pivots, so its results
must be exactly identical: the same point, None, or the same error type.
Its methods and `_integer_row` are kept verbatim, except that the node
limit is read from aptk.linalg and that the node multipliers, which
`solve_lp` now returns as integer numerators over one denominator, are
turned back into the Fractions it returned then.

`solve_cone` is the cone solver whose dual had one equality row for every
coordinate, touched or not.  aptk.linalg drops the all-zero ones, which
changes no pivot, so both must return identical (x, y).  It is kept
verbatim.

Declarations (add_variable, add_constraint, set_objective) are inherited,
so one set of calls builds any of these systems.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from aptk import linalg
from aptk.common import BoundExceededError, InternalError
from aptk.linalg import LinearSystem, _dot, solve_lp


class ReferenceLinearSystem(LinearSystem):
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


def _integer_row(values) -> Tuple[List[int], int]:
    """(the values, ints or Fractions, times the lcm L of their
    denominators, L)."""
    if all(type(v) is int for v in values):
        return list(values), 1
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


class CompiledLinearSystem(LinearSystem):
    # -- solving ----------------------------------------------------------

    def solve(self) -> Optional[Dict[str, int]]:
        """Feasible integer assignment, or None when provably infeasible.

        Raises BoundExceededError when branch and bound would be needed but
        some variable has no finite box, or when it passes
        DEFAULT_NODE_LIMIT nodes.
        """
        free = [v for v in self._vars if v.lower is None or v.lower != v.upper]
        rows, objective = self._compile(free)
        if not free:
            feasible = all(rhs == 0 if rel == "=" else rhs >= 0 for _, rel, rhs in rows)
            solution = {} if feasible else None
        elif self._is_cone(free, rows):
            solution = self._solve_scaling(free, rows, objective)
        else:
            for v in free:
                if v.lower is None or v.upper is None:
                    raise BoundExceededError(
                        f"variable {v.name!r} has no finite box; cannot branch and bound"
                    )
            solution = self._branch_and_bound(free, rows, objective)
        if solution is None:
            return None
        solution.update((v.name, v.lower) for v in self._vars if v.name not in solution)
        self._verify(solution)
        return solution

    def _compile(self, free):
        """Rows (coefficients over free in order, rel, rhs) with the fixed
        variables moved to the right, and the objective over free."""
        column = {v.name: j for j, v in enumerate(free)}
        rows = []
        for coeffs, rel, rhs in self._rows:
            line = [0] * len(free)
            for name, c in coeffs.items():
                j = column.get(name)
                if j is None:
                    rhs -= c * self._vars[self._index[name]].lower
                else:
                    line[j] = c
            rows.append((line, rel, rhs))
        objective = None
        if self._objective is not None:
            objective = [0] * len(free)
            for name, c in self._objective.items():
                j = column.get(name)
                if j is not None:
                    objective[j] = c
        return rows, objective

    @staticmethod
    def _is_cone(free, rows) -> bool:
        return all(v.upper is None and v.lower in (None, 0) for v in free) and all(
            rhs == 0 or (rel == "<=" and rhs <= -1) for _, rel, rhs in rows
        )

    @staticmethod
    def _solve_scaling(free, rows, objective) -> Optional[Dict[str, int]]:
        """Cone systems: a rational point scaled by the lcm of denominators
        stays feasible, since every constraint is invariant under scaling by
        factors >= 1; rational infeasibility settles integer infeasibility.
        A free variable is split into x+ - x- over two LP columns.
        """
        split = [v.lower is None for v in free]

        def columns(line):
            out = []
            for c, two in zip(line, split):
                out.append(c)
                if two:
                    out.append(-c)
            return out

        lp_rows = [(columns(line), rel, rhs) for line, rel, rhs in rows]
        objective = None if objective is None else columns(objective)
        status, point = solve_lp(len(free) + sum(split), lp_rows, objective)
        if status == "infeasible":
            return None
        values = []
        position = iter(point)
        for two in split:
            x = next(position)
            values.append(x - next(position) if two else x)
        scale = math.lcm(*[x.denominator for x in values])
        return {v.name: x.numerator * (scale // x.denominator) for v, x in zip(free, values)}

    @staticmethod
    def _branch_and_bound(free, rows, objective) -> Optional[Dict[str, int]]:
        """DFS branch and bound over the finite boxes.

        A node's LP over y = x - lower is  min c.y  s.t.  A y (<= or =)
        b - A.lower,  0 <= y <= upper - lower.  It is solved through one
        `solve_lp(..., duals=True)` call on its dual

            min (b - A.lower).(p - q) + (upper - lower).w
            s.t.  A^T (q - p) - w <= c,   p, q, w >= 0,

        with one column p per row, one more column q per = row, and one
        column w per box: one row per free variable however many rows the
        system has.  The dual's matrix is built once per solve; only its
        costs follow the node's box.  The box makes the dual feasible, so
        "unbounded" means the node is infeasible; with c >= 0 every dual
        row is <= with rhs >= 0, and the LP starts from its slack basis
        with no phase 1.  y is minus the dual rows' multipliers.  It is
        checked exactly against every row and box, in integers over one
        common denominator, before it is used.

        Branches on the lowest-index fractional variable, floor side
        first; with an objective the first incumbent attaining the best
        bound wins.
        """
        limit = linalg.DEFAULT_NODE_LIMIT
        n = len(free)
        # each row times the lcm of its denominators is the same constraint;
        # columns[j] holds variable j's coefficients, columns[n] the rhs
        lines = [_integer_row(line + [rhs])[0] for line, _, rhs in rows]
        columns = list(zip(*lines)) or [()] * (n + 1)
        rels = [rel for _, rel, _ in rows]
        signs = [(k, s) for k, rel in enumerate(rels) for s in ((-1, 1) if rel == "=" else (-1,))]
        dual = [
            (
                [s * columns[i][k] for k, s in signs] + [-int(i == j) for j in range(n)],
                "<=",
                0 if objective is None else objective[i],
            )
            for i in range(n)
        ]
        best_value = None
        best_point: Optional[Dict[str, int]] = None
        nodes = 0
        stack = [([v.lower for v in free], [v.upper for v in free])]
        while stack:
            lower, upper = stack.pop()
            if nodes == limit:
                raise BoundExceededError(f"branch and bound passed its limit of {limit} nodes")
            nodes += 1
            shifted = columns[n]
            for lo, column in zip(lower, columns):
                if lo:
                    shifted = [b - lo * c for b, c in zip(shifted, column)]
            widths = [hi - lo for lo, hi in zip(lower, upper)]
            costs = [-s * shifted[k] for k, s in signs] + widths
            status, _, multipliers = solve_lp(len(costs), dual, costs, duals=True)
            if status == "unbounded":
                continue
            if status != "optimal":
                raise InternalError(
                    f"node dual reported {status}, but the box makes it feasible; solver bug"
                )
            numerators, denominator = multipliers  # back to the Fractions it got
            ys, scale = _integer_row([-Fraction(u, denominator) for u in numerators])
            slack = [scale * b for b in shifted]
            for y, column in zip(ys, columns):
                if y:
                    slack = [t - y * c for t, c in zip(slack, column)]
            if any(y < 0 or y > scale * w for y, w in zip(ys, widths)) or any(
                t != 0 if rel == "=" else t < 0 for t, rel in zip(slack, rels)
            ):
                raise InternalError("node point fails a row or its box; solver bug")
            if objective is not None:
                value = Fraction(_dot(objective, ys), scale) + _dot(objective, lower)
                if best_value is not None and value >= best_value:
                    continue
            if scale == 1:
                candidate = {v.name: y + lo for v, y, lo in zip(free, ys, lower)}
                if objective is None:
                    return candidate
                best_value, best_point = value, candidate
                continue
            j = next(j for j, y in enumerate(ys) if y % scale)
            floor = ys[j] // scale + lower[j]
            floor_upper = upper[:]
            floor_upper[j] = floor
            ceil_lower = lower[:]
            ceil_lower[j] = floor + 1
            stack.append((ceil_lower, upper))
            stack.append((lower, floor_upper))  # explored first
        return best_point

    def _verify(self, solution: Dict[str, int]) -> None:
        for v in self._vars:
            x = solution[v.name]
            if v.lower is not None and x < v.lower:
                raise InternalError(f"solution violates lower bound of {v.name}")
            if v.upper is not None and x > v.upper:
                raise InternalError(f"solution violates upper bound of {v.name}")
        for coeffs, rel, rhs in self._rows:
            left = sum(c * solution[n] for n, c in coeffs.items())
            ok = left == rhs if rel == "=" else left <= rhs
            if not ok:
                raise InternalError("solution fails a constraint; solver bug")


def solve_cone(
    rows: Sequence[Sequence[int]], d: int
) -> Tuple[Optional[List[int]], Optional[List[Fraction]]]:
    """An integer x with p . x <= -1 for every row p (each of length d),
    returned as (x, None), or (None, y) with a Farkas certificate that no x
    exists: y >= 0, sum(y) = 1 and sum(y[i] * rows[i]) = 0.

    One `solve_lp` call on the dual  min -1.y  s.t.  P^T y = 0, 1.y <= 1,
    y >= 0, which has d + 1 rows however many rows P has.  Its optimum is 0
    or -1.  At -1, y is the certificate.  At 0, the multipliers x of the d
    equality rows and s of the last one meet p . x + s <= -1 for every row
    with s = 0, so x scaled to coprime integers keeps P x <= -1.  Both
    results are checked exactly.
    """
    m = len(rows)
    dual = [([p[i] for p in rows], "=", 0) for i in range(d)] + [([1] * m, "<=", 1)]
    status, y, multipliers = solve_lp(m, dual, [-1] * m, duals=True)
    if status != "optimal":
        raise InternalError(
            f"cone dual reported {status}, but y = 0 is feasible and 1.y <= 1 bounds it; solver bug"
        )
    if not any(y):
        x = multipliers[0][:d]
        g = math.gcd(*x)
        x = [v // g for v in x] if g > 1 else x
        if any(_dot(p, x) > -1 for p in rows):
            raise InternalError("cone point fails a row; solver bug")
        return x, None
    if any(v < 0 for v in y) or sum(y) != 1 or any(
        sum(v * p[i] for v, p in zip(y, rows) if v) for i in range(d)
    ):
        raise InternalError("Farkas certificate does not check; solver bug")
    return None, y
