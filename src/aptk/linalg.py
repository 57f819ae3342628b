"""Exact integer and rational linear algebra.

Everything here runs on arbitrary-precision integers; no floating point
enters any computation.  The simplex tableau is fraction-free: each row is
an integer vector that stands for a rational row up to a positive factor,
reduced by its gcd after every elimination (integer-preserving elimination
in the manner of Bareiss).  Rational values appear only at the boundary, as
fractions.Fraction inputs and solution points; branch-and-bound nodes do
integer work only.  Pivoting and branching rules are fixed (smallest index
first) so results are identical run to run.  Exponential searches stop at
a budget with BoundExceededError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Any, Dict, List, Optional, Sequence, Tuple

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


def _run_simplex(tableau, basis, cost, num_cols) -> Tuple[str, List[int]]:
    """Minimise cost over the current tableau with Bland's rule.

    cost is a full row (entry num_cols is the running value, stored negated
    as usual; columns behind it never enter but are updated), kept only up
    to a positive factor: its signs pick the pivots.  Returns ('optimal',
    cost) or ('unbounded', cost) with the final cost row, whose entry
    num_cols is that positive multiple of minus the optimum.
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
            return "optimal", cost
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
            return "unbounded", cost
        terms = _pivot(tableau, basis, row, col)
        if cost[col]:
            cost = _eliminate(cost, col, tableau[row][col], terms)


def _integer_row(values) -> Tuple[List[int], int]:
    """(the values, ints or Fractions, times the lcm L of their
    denominators, L); ints are told apart by a C-level map of their types."""
    if set(map(type, values)) <= {int}:
        return list(values), 1
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def solve_lp(
    num_vars: int,
    rows: Sequence[Tuple[Sequence[Fraction], str, Fraction]],
    objective: Optional[Sequence[Fraction]] = None,
    duals: bool = False,
) -> Tuple:
    """Exact LP over x >= 0: rows are (coeffs, rel, rhs) with rel in <=, =, >=
    and every number an int or a Fraction.

    Returns ('infeasible', None), ('optimal', x) or ('unbounded', x) where in
    the unbounded case x is still a feasible point.  With duals, a third
    item follows: at an optimum, multipliers u, one per row, with
    u . rhs = the optimum and objective - u^T A >= 0 on every column (u <= 0
    on <= rows, u >= 0 on >= rows), as integer numerators over their least
    positive common denominator: (numerators, denominator); else None.
    Asking for them changes no pivot.

    The tableau is fraction-free: row r holds integers and stands for the
    rational row tableau[r] / tableau[r][basis[r]], whose basic coefficient
    is kept positive; every elimination divides the row by its gcd.  Pivots
    follow Bland's smallest-index rule on that rational tableau, so the
    pivot sequence, and with it the returned point, is the one of the
    textbook rational simplex.  The multipliers come from one unit column
    per row behind the rhs column, which never enters but every pivot
    updates: minus its reduced cost is that row's multiplier.
    """
    work: List[Tuple[List[int], str, int]] = []
    for coeffs, rel, rhs in rows:
        line, scale = _integer_row([*coeffs, rhs])
        if line[-1] < 0:
            line = [-v for v in line]
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        work.append((line, rel, scale))

    m = len(work)
    num_slack = sum(1 for _, rel, _ in work if rel != "=")
    total = num_vars + num_slack
    grand = total + sum(1 for _, rel, _ in work if rel != "<=")
    units = m if duals else 0
    pad = [0] * (grand - num_vars)
    behind = [0] * units
    tableau: List[List[int]] = []
    basis: List[int] = []
    slack_idx = num_vars
    art_idx = total
    for r, (line, rel, scale) in enumerate(work):
        # slack and artificial entries are +-scale, i.e. +-1 in the rational
        # row; phase 1 weighs the artificials by these entries.  scale is
        # the lcm of the row's denominators, so it and the scaled row have
        # gcd 1 and the row needs no division
        line[-1:] = [*pad, line[-1], *behind]
        if rel == "<=":
            line[slack_idx] = scale
            basis.append(slack_idx)
            slack_idx += 1
        else:
            if rel == ">=":
                line[slack_idx] = -scale
                slack_idx += 1
            line[art_idx] = scale
            basis.append(art_idx)
            art_idx += 1
        if duals:  # row r's unit column, +-1 in its rational row as given
            line[grand + 1 + r] = -scale if rows[r][2] < 0 else scale
        tableau.append(line)

    if grand > total:
        cost = [0] * total + [1] * (grand - total) + [0] * (1 + units)
        _, cost = _run_simplex(tableau, basis, cost, grand)
        if cost[grand] != 0:
            return ("infeasible", None, None) if duals else ("infeasible", None)
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

    cost = [0] * (total + 1 + units)
    scale = 1
    if objective is not None:
        weights, scale = _integer_row(objective)
        cost[: len(weights)] = weights
    if duals:  # one more entry keeps the cost row's positive factor
        cost.append(scale)
    status, cost = _run_simplex(tableau, basis, cost, total)

    solution = [Fraction(0)] * num_vars
    for r, b in enumerate(basis):
        if b < num_vars:
            solution[b] = Fraction(tableau[r][total], tableau[r][b])
    if not duals:
        return status, solution
    if status != "optimal":
        return status, solution, None
    g = math.gcd(*cost[total + 1 :])  # of the numerators and the cost row's factor
    return status, solution, ([-v // g for v in cost[total + 1 : -1]], cost[-1] // g)


def solve_cone(
    rows: Sequence[Sequence[int]], d: int
) -> Tuple[Optional[List[int]], Optional[List[Fraction]]]:
    """An integer x with p . x <= -1 for every row p (each of length d),
    returned as (x, None), or (None, y) with a Farkas certificate that no x
    exists: y >= 0, sum(y) = 1 and sum(y[i] * rows[i]) = 0.

    One `solve_lp` call on the dual  min -1.y  s.t.  P^T y = 0, 1.y <= 1,
    y >= 0, with one equality row per coordinate that some row of P
    touches, plus the last row; x is 0 at every other coordinate.  An
    all-zero equality row would change no pivot: its artificial never
    leaves the basis, phase 1 drops the row, and its multiplier stays 0.
    The optimum is 0 or -1.  At -1, y is the certificate.  At 0, the
    multipliers x of the equality rows and s of the last one meet
    p . x + s <= -1 for every row with s = 0, so x scaled to coprime
    integers keeps P x <= -1.  Both results are checked exactly.
    """
    m = len(rows)
    columns = list(zip(*rows))  # none for m = 0
    kept = [i for i, column in enumerate(columns) if any(column)]
    dual = [(columns[i], "=", 0) for i in kept] + [([1] * m, "<=", 1)]
    status, y, multipliers = solve_lp(m, dual, [-1] * m, duals=True)
    if status != "optimal":
        raise InternalError(
            f"cone dual reported {status}, but y = 0 is feasible and 1.y <= 1 bounds it; solver bug"
        )
    if not any(y):
        x = [0] * d
        for i, v in zip(kept, multipliers[0]):
            x[i] = v
        g = math.gcd(*x)
        x = [v // g for v in x] if g > 1 else x
        if any(_dot(p, x) > -1 for p in rows):
            raise InternalError("cone point fails a row; solver bug")
        return x, None
    if any(v < 0 for v in y) or sum(y) != 1 or any(_dot(y, column) for column in columns):
        raise InternalError("Farkas certificate does not check; solver bug")
    return None, y


# ---------------------------------------------------------------------------
# Integer feasibility of mixed systems.
# ---------------------------------------------------------------------------


# Most node LPs branch and bound may solve for one system; read at call time.
DEFAULT_NODE_LIMIT = 10_000


@dataclass
class _Var:
    name: str
    lower: Optional[int]
    upper: Optional[int]


def _exact(value):
    """value as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


class LinearSystem:
    """Constraint system over named integer variables.

    Relations are =, <= and >= with exact rational right-hand sides; strict
    inequalities are not representable, encode a < b as a <= b - 1.  Each
    solve compiles the named rows into coefficient lists over the variables
    in declaration order (a >= row negated into a <= row) and solves them
    through `RowSystem`: by scaling when the system is a zero-anchored cone,
    else by exact-LP branch and bound over the variable boxes.
    """

    def __init__(self):
        self._vars: List[_Var] = []
        self._index: Dict[str, int] = {}
        # (coefficients, "<=" or "=", rhs); a >= row is stored negated
        self._rows: List[Tuple[Dict[str, Any], str, Any]] = []
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

    def _check_names(self, coeffs: Coeffs) -> None:
        for name in coeffs:
            if name not in self._index:
                raise InternalError(f"unknown variable {name!r}")

    def add_constraint(self, coeffs: Coeffs, rel: str, rhs) -> None:
        if rel not in ("<=", ">=", "="):
            raise InternalError(f"bad relation {rel!r}")
        self._check_names(coeffs)
        sign = -1 if rel == ">=" else 1
        self._rows.append((
            {n: sign * _exact(c) for n, c in coeffs.items()},
            "=" if rel == "=" else "<=",
            sign * _exact(rhs),
        ))

    def set_objective(self, coeffs: Coeffs) -> None:
        self._check_names(coeffs)
        self._objective = {n: _exact(c) for n, c in coeffs.items()}

    def minimize_all_variables(self) -> None:
        self.set_objective({v.name: 1 for v in self._vars})

    def solve(self) -> Optional[Dict[str, int]]:
        """Feasible integer assignment, or None when provably infeasible.

        Raises BoundExceededError when branch and bound would be needed but
        some variable has no finite box, or when it passes
        DEFAULT_NODE_LIMIT nodes.
        """

        def line(coeffs):
            out = [0] * len(self._vars)
            for name, c in coeffs.items():
                out[self._index[name]] = c
            return out

        rows = [(line(coeffs), rel, rhs) for coeffs, rel, rhs in self._rows]
        system = RowSystem(rows, None if self._objective is None else line(self._objective))
        point = system.solve([v.lower for v in self._vars], [v.upper for v in self._vars])
        return None if point is None else {v.name: x for v, x in zip(self._vars, point)}


class RowSystem:
    """Integer feasibility of rows over the columns 0..n-1: the row-level
    entry under `LinearSystem` and the synthesis engine.

    A row is (coefficients over every column, "<=" or "=", rhs), each
    number an int or a Fraction; the objective, if any, weighs each column
    and is minimised.  `solve` takes per-column bounds (None for none) and
    rows that hold for that solve only, after these: a caller whose
    systems differ only in their boxes and last rows builds one RowSystem.
    A column whose box is one value is fixed and moves to the right.
    Solving uses a scaling argument when the system is a zero-anchored
    cone (every right-hand side is 0 or at most -1 and every free column
    has no upper bound and a lower bound of 0 or none), and exact-LP branch
    and bound over the boxes otherwise.  Every point is checked exactly
    against every row and box before it is returned.
    """

    def __init__(self, rows, objective=None):
        self.rows, self.objective = rows, objective
        self._columns = None  # the rows scaled to integers, by column
        self._duals: Dict[Tuple[int, ...], list] = {}

    def solve(self, lower, upper, extra=()) -> Optional[List[int]]:
        """An integer point, one value per column, or None when provably
        infeasible.

        Raises BoundExceededError when branch and bound would be needed but
        some free column has no finite box, or when it passes
        DEFAULT_NODE_LIMIT nodes.
        """
        rows = self.rows + list(extra) if extra else self.rows
        free = [j for j, (lo, hi) in enumerate(zip(lower, upper)) if lo is None or lo != hi]
        cone = all(upper[j] is None and lower[j] in (None, 0) for j in free)
        if cone:  # so also when nothing is free: the rows over the free columns
            fixed = [(j, lo) for j, (lo, hi) in enumerate(zip(lower, upper)) if lo and lo == hi]
            compiled = [
                ([coeffs[j] for j in free], rel, rhs - sum(coeffs[j] * lo for j, lo in fixed))
                for coeffs, rel, rhs in rows
            ]
            cone = all(rhs == 0 or (rel == "<=" and rhs <= -1) for _, rel, rhs in compiled)
        if not free:
            feasible = all(rhs == 0 if rel == "=" else rhs >= 0 for _, rel, rhs in compiled)
            values = [] if feasible else None
        elif cone:
            values = self._solve_scaling(free, lower, compiled)
        else:
            for j in free:
                if lower[j] is None or upper[j] is None:
                    raise BoundExceededError(f"column {j} has no finite box; cannot branch and bound")
            values = self._branch_and_bound(free, lower, upper, rows)
        if values is None:
            return None
        point = list(lower)
        for j, x in zip(free, values):
            point[j] = x
        slack = [(sum(map(mul, coeffs, point)) - rhs, rel) for coeffs, rel, rhs in rows]
        boxes = zip(point, lower, upper)
        if any((lo is not None and x < lo) or (hi is not None and x > hi) for x, lo, hi in boxes) or any(
            t != 0 if rel == "=" else t > 0 for t, rel in slack
        ):
            raise InternalError("solution fails a row or its box; solver bug")
        return point

    def _solve_scaling(self, free, lower, rows) -> Optional[List[int]]:
        """Cone systems: a rational point scaled by the lcm of denominators
        stays feasible, since every constraint is invariant under scaling by
        factors >= 1; rational infeasibility settles integer infeasibility.
        A column without a lower bound is split into x+ - x- over two LP
        columns.
        """
        split = [lower[j] is None for j in free]
        columns = lambda line: [v for c, two in zip(line, split) for v in ((c, -c) if two else (c,))]
        lp_rows = [(columns(line), rel, rhs) for line, rel, rhs in rows]
        objective = None if self.objective is None else columns([self.objective[j] for j in free])
        status, point = solve_lp(len(free) + sum(split), lp_rows, objective)
        if status == "infeasible":
            return None
        position = iter(point)
        values = [x - next(position) if two else x for x, two in zip(position, split)]
        scale = math.lcm(*[x.denominator for x in values])
        return [x.numerator * (scale // x.denominator) for x in values]

    def _branch_and_bound(self, free, lower, upper, rows) -> Optional[List[int]]:
        """DFS branch and bound over the finite boxes; returns the values of
        the free columns.

        A node's LP over y = x - lower is  min c.y  s.t.  A y (<= or =)
        b - A.lower,  0 <= y <= upper - lower.  It is solved through one
        `solve_lp(..., duals=True)` call on its dual

            min (b - A.lower).(p - q) + (upper - lower).w
            s.t.  A^T (q - p) - w <= c,   p, q, w >= 0,

        with one column p per row (each row scaled to integers), one more
        column q per = row, and one column w per box: one row per free
        column however many rows the system has.  Its entries under this
        RowSystem's rows are built once per set of free columns, a solve
        inserts its extra rows' columns before the box columns, and a node
        only sets the costs.  The box makes the dual feasible, so
        "unbounded" means the node is infeasible; with c >= 0 every dual
        row is <= with rhs >= 0, and the LP starts from its slack basis.
        y is minus the dual rows' multipliers, checked exactly against
        every row and box in integers before it is used.  Branches on the
        lowest-index fractional column, floor side first; with an
        objective the first incumbent attaining the best bound wins.
        """
        limit = DEFAULT_NODE_LIMIT
        if self._columns is None:
            lines = [_integer_row([*coeffs, rhs])[0] for coeffs, _, rhs in self.rows]
            self._columns = list(zip(*lines)) or [()] * (len(lower) + 1)
        columns = self._columns
        lines = [_integer_row([*coeffs, rhs])[0] for coeffs, _, rhs in rows[len(self.rows) :]]
        if lines:
            columns = [column + added for column, added in zip(columns, zip(*lines))]
        rels = [rel for _, rel, _ in rows]
        signs = [(k, s) for k, rel in enumerate(rels) for s in ((-1, 1) if rel == "=" else (-1,))]
        key = tuple(free)
        if key not in self._duals:
            own = [(k, s) for k, s in signs if k < len(self.rows)]
            self._duals[key] = [
                ([s * columns[j][k] for k, s in own], [-int(i == h) for h in range(len(free))],
                 0 if self.objective is None else self.objective[j])
                for i, j in enumerate(free)
            ]
        dual = self._duals[key]
        added = signs[len(dual[0][0]) :]
        dual = [
            (head + [s * columns[j][k] for k, s in added] + tail, "<=", c)
            for (head, tail, c), j in zip(dual, free)
        ]
        rhs = columns[-1]  # with the fixed columns moved to it
        for j, (lo, hi) in enumerate(zip(lower, upper)):
            if lo and lo == hi:
                rhs = [b - lo * c for b, c in zip(rhs, columns[j])]
        columns = [columns[j] for j in free]
        objective = None if self.objective is None else [self.objective[j] for j in free]
        best_value = None
        best_point: Optional[List[int]] = None
        nodes = 0
        stack = [([lower[j] for j in free], [upper[j] for j in free])]
        while stack:
            lower, upper = stack.pop()
            if nodes == limit:
                raise BoundExceededError(f"branch and bound passed its limit of {limit} nodes")
            nodes += 1
            shifted = rhs
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
            ys, scale = [-u for u in multipliers[0]], multipliers[1]
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
                candidate = [y + lo for y, lo in zip(ys, lower)]
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


def _full_column_rank(rows: Sequence[Sequence[int]], dim: int) -> bool:
    """Whether the rows span all `dim` coordinates, that is whether
    `integer_kernel_basis(rows, dim)` is empty.  Fraction-free (Bareiss)
    elimination, one column at a time, stopping at the first column that no
    remaining row has a pivot in; each step's division is exact."""
    if len(rows) < dim:
        return False
    rows, last = list(rows), 1
    for column in range(dim):
        at = next((r for r, row in enumerate(rows) if row[0]), None)
        if at is None:
            return False
        pivot = rows.pop(at)
        if column + 1 < dim:
            p = pivot[0]
            rows = [[(p * v - row[0] * w) // last for v, w in zip(row[1:], pivot[1:])] for row in rows]
            last = p
    return True


# ---------------------------------------------------------------------------
# Minimal semipositive solutions (Contejean-Devie completion).
# ---------------------------------------------------------------------------

# Most partial vectors one level of the completion may hold; read at call time.
DEFAULT_FRONTIER_LIMIT = 100_000


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
    Raises BoundExceededError once a level of the completion holds more
    than DEFAULT_FRONTIER_LIMIT vectors.
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

    limit = DEFAULT_FRONTIER_LIMIT
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
                        if len(next_frontier) == limit:
                            raise BoundExceededError(
                                f"minimal solutions: frontier passed its limit of {limit} vectors"
                            )
                        next_frontier[y] = tuple(a + b for a, b in zip(v, columns[j]))
        frontier = next_frontier

    minimal.sort()
    return minimal
