"""The basis-space solvers that aptk.synthesis._Engine.solve_basis replaced,
kept verbatim as the reference for its differential tests.

`solve_fast_none` served the property-free case, `solve_fast_pure` with
`_fast_pure_solve` the pure and the plain pure cases.  They were methods of
`_Engine`; here each takes the engine as `self`, and the one method call
between them became a function call.  `solve_basis` must return the same
`Region`, or None, for every separation problem.

`separation_pass` is the loop that `aptk.synthesis._run_engine` ran before
`_separation_pass` replaced it: it asks `solves` (the old `_Engine.solves`,
here a function of the engine) once per (found region, problem) pair.
`minimize_regions` is the set-based version of the function of that name.
Both must give the same solved sets, failures and kept regions.

`spanning_tree` (from aptk.lts) walked the input twice, once through
`reachable_states`; `_cycle_rows` built the engine's cycle rows from the
tree's Parikh vectors; `_is_acyclic` was a Kahn loop over the reachable
states.  The engine's set-up must give the same tree, rows and basis, and
`aptk.synthesis._is_acyclic` the same verdict.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

from aptk.common import InternalError, PreconditionError
from aptk.linalg import LinearSystem
from aptk.lts import Lts, ParikhVector, SpanningTree, reachable_states
from aptk.synthesis import (
    Region,
    SeparationProblem,
    _coefficient_boxes,
    _combine,
    _dot,
    check_region,
)


def solve_fast_none(self, problem: SeparationProblem) -> Optional[Region]:
    """Property-free solving over basis coefficients.

    Event/state: find an effect with strictly smaller value at the
    problem state than at every state enabling the label, build the
    canonical pure region, then raise both weights of the label until it
    is disabled exactly there.  State pairs: a basis region separates, or
    nothing does.
    """
    if problem.kind == "ssp":
        diff = tuple(
            a - b for a, b in zip(self.psi[problem.state], self.psi[problem.other])
        )
        for vector in self.basis:
            if _dot(vector, diff) != 0:
                return self.region_from_effects(vector)
        return None

    t = problem.label
    rows = []
    psi_s = self.psi[problem.state]
    for enabled_state in self.enabled_states[t]:
        rows.append(
            tuple(a - b for a, b in zip(psi_s, self.psi[enabled_state]))
        )
    system = LinearSystem()
    for j in range(len(self.basis)):
        system.add_variable(f"x{j}")
    for row in rows:
        coeffs = {
            f"x{j}": _dot(vector, row) for j, vector in enumerate(self.basis)
        }
        coeffs = {n: c for n, c in coeffs.items() if c}
        system.add_constraint(coeffs, "<=", -1)
    solution = system.solve()
    if solution is None:
        return None
    effects = _combine(self.basis, [solution[f"x{j}"] for j in range(len(self.basis))], len(self.labels))
    region = self.region_from_effects(effects)
    values = self.region_values(region)
    index = self.lab_index[t]
    raise_by = max(0, values[problem.state] - region.backward[index] + 1)
    if raise_by:
        backward = list(region.backward)
        forward = list(region.forward)
        backward[index] += raise_by
        forward[index] += raise_by
        region = Region(self.labels, region.initial, tuple(backward), tuple(forward))
    check_region(self.lts, region)
    if not self.solves(region, problem):
        raise InternalError(f"fast path failed to separate {problem}")
    return region


def solve_fast_pure(self, problem: SeparationProblem, plain: bool) -> Optional[Region]:
    """Pure (optionally plain) solving over basis coefficients.

    Event/state: the pure inequality asks the effect of (path difference
    plus the label) to be negative against every state.  Plainness caps
    the per-label effects at one; the coefficient box then comes from an
    exact pseudo-inverse bound, keeping branch and bound complete.
    """
    if problem.kind == "ssp":
        diff = tuple(
            a - b for a, b in zip(self.psi[problem.state], self.psi[problem.other])
        )
        for vector in self.basis:
            if _dot(vector, diff) != 0 and (
                not plain or all(abs(e) <= 1 for e in vector)
            ):
                return self.region_from_effects(vector)
        if not plain:
            return None
        return _fast_pure_solve(self, rows=[], separation=diff, plain=True)

    t = problem.label
    psi_s = self.psi[problem.state]
    unit = tuple(1 if u == t else 0 for u in self.labels)
    rows = []
    for other in self.states:
        rows.append(
            tuple(
                a - b + u for a, b, u in zip(psi_s, self.psi[other], unit)
            )
        )
    return _fast_pure_solve(self, rows=rows, separation=None, plain=plain)


def _fast_pure_solve(self, rows, separation, plain: bool) -> Optional[Region]:
    system = LinearSystem()
    boxes = _coefficient_boxes(self.basis) if plain else [None] * len(self.basis)
    for j, box in enumerate(boxes):
        if box is None:
            system.add_variable(f"x{j}")
        else:
            system.add_variable(f"x{j}", lower=-box, upper=box)
    for row in rows:
        coeffs = {f"x{j}": _dot(v, row) for j, v in enumerate(self.basis)}
        coeffs = {n: c for n, c in coeffs.items() if c}
        system.add_constraint(coeffs, "<=", -1)
    if separation is not None:
        coeffs = {f"x{j}": _dot(v, separation) for j, v in enumerate(self.basis)}
        coeffs = {n: c for n, c in coeffs.items() if c}
        if not coeffs:
            return None
        system.add_constraint(coeffs, "<=", -1)
    if plain:
        for i, label in enumerate(self.labels):
            coeffs = {f"x{j}": v[i] for j, v in enumerate(self.basis) if v[i]}
            if not coeffs:
                continue
            system.add_constraint(coeffs, "<=", 1)
            system.add_constraint(coeffs, ">=", -1)
    solution = system.solve()
    if solution is None:
        return None
    effects = _combine(
        self.basis, [solution[f"x{j}"] for j in range(len(self.basis))], len(self.labels)
    )
    region = self.region_from_effects(effects)
    check_region(self.lts, region)
    if not region.is_pure():
        raise InternalError("pure fast path produced an impure region")
    return region


def solves(self, region: Region, problem: SeparationProblem) -> bool:
    values = self.region_values(region)
    if problem.kind == "essp":
        return values[problem.state] < region.b(problem.label)
    return values[problem.state] != values[problem.other]


def separation_pass(engine, problems: List[SeparationProblem]):
    """(found region, indices of the problems it solves) pairs, and the
    unsolvable problems."""
    solved: List[Tuple[Region, Set[int]]] = []
    covered: Set[int] = set()
    failed: List[SeparationProblem] = []
    for i, problem in enumerate(problems):
        if i in covered:
            continue
        region = engine.solve(problem)
        if region is None:
            failed.append(problem)
            continue
        problem_set = {j for j, other in enumerate(problems) if solves(engine, region, other)}
        solved.append((region, problem_set))
        covered |= problem_set
    return solved, failed


def minimize_regions(
    problems: Sequence[SeparationProblem],
    solved: Sequence[Tuple[Region, Set[int]]],
) -> List[Region]:
    """Heuristic place reduction: a region uniquely solving some problem is
    required; problems covered by required regions are discarded; remaining
    problems greedily take the first region that solves them."""
    keep: List[int] = []
    covered: Set[int] = set()
    for i in range(len(problems)):
        solvers = [j for j, (_, s) in enumerate(solved) if i in s]
        if len(solvers) == 1 and solvers[0] not in keep:
            keep.append(solvers[0])
    for j in keep:
        covered |= solved[j][1]
    for i in range(len(problems)):
        if i in covered:
            continue
        for j, (_, problem_set) in enumerate(solved):
            if i in problem_set:
                if j not in keep:
                    keep.append(j)
                covered |= problem_set
                break
        else:
            raise InternalError(f"problem {problems[i]} solved by no region")
    keep.sort()
    return [solved[j][0] for j in keep]


def spanning_tree(lts: Lts) -> SpanningTree:
    """BFS spanning tree from the initial state; arcs explored in insertion order."""
    reachable = set(reachable_states(lts))
    unreachable = [s for s in lts.states if s not in reachable]
    if unreachable:
        raise PreconditionError(f"state {unreachable[0]} is unreachable; no spanning tree")
    tree = SpanningTree()
    tree.path_parikh[lts.initial] = ParikhVector()
    tree.order.append(lts.initial)
    queue = deque([lts.initial])
    visited = {lts.initial}
    tree_arcs = set()
    while queue:
        state = queue.popleft()
        for arc in lts.arcs_from(state):
            if arc.target not in visited:
                visited.add(arc.target)
                tree.parent_arc[arc.target] = arc
                tree.path_parikh[arc.target] = tree.path_parikh[state].added(arc.label)
                tree.order.append(arc.target)
                tree_arcs.add(arc)
                queue.append(arc.target)
    for arc in lts.arcs:
        if arc not in tree_arcs and arc.source in visited:
            tree.chords.append(arc)
    return tree


def _cycle_rows(tree: SpanningTree, labels: Sequence[str]) -> List[Tuple[int, ...]]:
    """Distinct nonzero Parikh vectors of the fundamental cycles that the
    chords of a spanning tree close; a region's effects are zero on each."""
    rows: List[Tuple[int, ...]] = []
    for arc in tree.chords:
        row = (
            tree.path_parikh[arc.source].added(arc.label)
            - tree.path_parikh[arc.target]
        ).as_tuple(labels)
        if any(row) and row not in rows:
            rows.append(row)
    return rows


def _is_acyclic(lts: Lts) -> bool:
    reach = reachable_states(lts)
    indegree = {s: 0 for s in reach}
    reach_set = set(reach)
    for s in reach:
        for arc in lts.arcs_from(s):
            if arc.target in reach_set:
                indegree[arc.target] += 1
    queue = [s for s in reach if indegree[s] == 0]
    seen = 0
    while queue:
        state = queue.pop()
        seen += 1
        for arc in lts.arcs_from(state):
            indegree[arc.target] -= 1
            if indegree[arc.target] == 0:
                queue.append(arc.target)
    return seen == len(reach)
