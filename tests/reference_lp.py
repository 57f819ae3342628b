"""The exact Fraction-tableau simplex that aptk.linalg.solve_lp replaced.

Kept verbatim as the reference for the differential tests: the integer
tableau in aptk.linalg must return the same (status, point) on every input,
because both pivot by Bland's smallest-index rule on the same rational
tableau.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple


def _pivot(tableau: List[List[Fraction]], basis: List[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    if piv != 1:
        tableau[row] = [v / piv for v in tableau[row]]
    pivot_row = tableau[row]
    for r, line in enumerate(tableau):
        if r != row and line[col]:
            factor = line[col]
            # tableaus are sparse; skipping zero pivot-row entries pays off
            tableau[r] = [
                v if not p else v - factor * p for v, p in zip(line, pivot_row)
            ]
    basis[row] = col


def _run_simplex(tableau, basis, cost, num_cols, allowed) -> Tuple[str, Fraction]:
    """Minimise cost over the current tableau with Bland's rule.

    cost is a full row (length num_cols + 1, last entry the running value,
    stored negated as usual).  Returns ('optimal', value) or ('unbounded', _).
    """
    m = len(tableau)
    # price out basic variables
    for r in range(m):
        if cost[basis[r]]:
            factor = cost[basis[r]]
            line = tableau[r]
            for c in range(num_cols + 1):
                if line[c]:
                    cost[c] -= factor * line[c]
    while True:
        col = -1
        for c in range(num_cols):
            if allowed[c] and cost[c] < 0:
                col = c
                break
        if col < 0:
            return "optimal", -cost[num_cols]
        row = -1
        best: Optional[Fraction] = None
        for r in range(m):
            if tableau[r][col] > 0:
                ratio = tableau[r][num_cols] / tableau[r][col]
                if best is None or ratio < best or (ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row < 0:
            return "unbounded", Fraction(0)
        _pivot(tableau, basis, row, col)
        factor = cost[col]
        if factor:
            line = tableau[row]
            for c in range(num_cols + 1):
                if line[c]:
                    cost[c] -= factor * line[c]


def solve_lp(
    num_vars: int,
    rows: Sequence[Tuple[Sequence[Fraction], str, Fraction]],
    objective: Optional[Sequence[Fraction]] = None,
) -> Tuple[str, Optional[List[Fraction]]]:
    """Exact LP over x >= 0: rows are (coeffs, rel, rhs) with rel in <=, =, >=.

    Returns ('infeasible', None), ('optimal', x) or ('unbounded', x) where in
    the unbounded case x is still a feasible point.
    """
    work: List[Tuple[List[Fraction], str, Fraction]] = []
    for coeffs, rel, rhs in rows:
        coeffs = [Fraction(c) for c in coeffs]
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        work.append((coeffs, rel, rhs))

    m = len(work)
    num_slack = sum(1 for _, rel, _ in work if rel != "=")
    total = num_vars + num_slack
    artificial_of: Dict[int, int] = {}
    tableau: List[List[Fraction]] = []
    basis: List[int] = []
    slack_idx = num_vars
    art_cols: List[int] = []

    for r, (coeffs, rel, rhs) in enumerate(work):
        line = list(coeffs) + [Fraction(0)] * (num_slack)
        if rel == "<=":
            line[slack_idx] = Fraction(1)
            basic = slack_idx
            slack_idx += 1
        elif rel == ">=":
            line[slack_idx] = Fraction(-1)
            basic = -1
            slack_idx += 1
        else:
            basic = -1
        if basic < 0:
            artificial_of[r] = len(art_cols)
            art_cols.append(r)
            basic = None  # patched below once artificial columns exist
        tableau.append(line + [rhs])
        basis.append(basic if basic is not None else -1)

    num_art = len(art_cols)
    grand = total + num_art
    for r in range(m):
        line = tableau[r]
        art_part = [Fraction(0)] * num_art
        if basis[r] == -1:
            art_part[artificial_of[r]] = Fraction(1)
            basis[r] = total + artificial_of[r]
        tableau[r] = line[:total] + art_part + [line[total]]

    allowed = [True] * grand

    if num_art:
        cost = [Fraction(0)] * (grand + 1)
        for j in range(total, grand):
            cost[j] = Fraction(1)
        status, value = _run_simplex(tableau, basis, cost, grand, allowed)
        if value != 0:
            return "infeasible", None
        # drive surviving artificials out of the basis
        for r in range(m):
            if basis[r] >= total:
                for c in range(total):
                    if tableau[r][c] != 0:
                        _pivot(tableau, basis, r, c)
                        break
        rows_keep = [r for r in range(m) if basis[r] < total]
        tableau = [tableau[r] for r in rows_keep]
        basis = [basis[r] for r in rows_keep]
        for j in range(total, grand):
            allowed[j] = False

    cost = [Fraction(0)] * (grand + 1)
    if objective is not None:
        for j, c in enumerate(objective):
            cost[j] = Fraction(c)
    status, _ = _run_simplex(tableau, basis, cost, grand, allowed)

    solution = [Fraction(0)] * num_vars
    for r, b in enumerate(basis):
        if b < num_vars:
            solution[b] = tableau[r][grand]
    return status, solution
