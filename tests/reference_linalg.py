"""The LinearSystem solver that aptk.linalg replaced.

Every branch-and-bound node here rebuilt its LP rows from the name-keyed
constraint dicts in Fraction arithmetic; aptk.linalg compiles the rows once
per solve into coefficient lists.  The solving methods are kept verbatim as
the oracle of test_linalg_differential.py: both hand solve_lp rows that are
equal as rationals, so every result (assignment, None or error type) must
be identical.  Declarations (add_variable, add_constraint, set_objective)
are inherited, so one set of calls builds either system.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from aptk.common import BoundExceededError, InternalError
from aptk.linalg import LinearSystem, solve_lp


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
