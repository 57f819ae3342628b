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

`_check_synthesis_input` walked the input twice before the engine's own
walk; the engine must still raise its messages, and in its order.
`value_array` valued a region by dot products with the states' Parikh
vectors; the values `check_region` returns must equal it.  `_solve_with`
built every row of its system again for each orientation, through a local
`effect_coeffs`, and called `_initial_upper_bound` (here a function of the
engine); the systems handed to `LinearSystem.solve` must be the same.

`enumerate_separation_problems` and `_event_state_problems` listed the
problems on a walk of their own, through `reachable_states` and
`enabled_labels`; `index_problems` is the loop that opened the separation
pass and turned each problem back into state indices through
`_Engine.index` (here it returns the per-label lists in label order).
`_Engine.problems` must give the same problems and the same indices.
"""

from __future__ import annotations

from collections import deque
from operator import sub
from typing import Dict, List, Optional, Sequence, Set, Tuple

from aptk.common import InternalError, PreconditionError
from aptk.linalg import LinearSystem
from aptk.lts import (
    Lts,
    ParikhVector,
    SpanningTree,
    is_deterministic,
    is_totally_reachable,
    reachable_states,
)
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


def _check_synthesis_input(lts: Lts) -> None:
    det = is_deterministic(lts)
    if not det:
        raise PreconditionError(f"synthesis needs a deterministic input: {det.detail}")
    tot = is_totally_reachable(lts)
    if not tot:
        raise PreconditionError(f"synthesis needs a totally reachable input: {tot.detail}")


def value_array(self, region: Region) -> List[int]:
    """The region's token count at every state, in `states` order."""
    cached = self._values_cache.get(region)
    if cached is None:
        effects = region.effects()
        cached = [region.initial + _dot(effects, self.psi[s]) for s in self.states]
        self._values_cache[region] = cached
    return cached


def _solve_with(
    self,
    problem: SeparationProblem,
    scope: Optional[Set[str]],
    nonneg_effects: bool,
) -> Optional[Region]:
    """One exact integer solve.  Variables are the initial value and the
    backward/forward weights; with `pure` the event/state inequality is
    the effect form and the solution is afterwards decomposed into its
    canonical side-condition-free weights."""
    props = self.props
    weight_ub: Optional[int] = None
    if props.plain:
        weight_ub = 1
    if props.k is not None:
        weight_ub = props.k if weight_ub is None else min(weight_ub, props.k)

    orientations = [(problem.state, problem.other), (problem.other, problem.state)] if (
        problem.kind == "ssp"
    ) else [(problem.state, None)]

    for low_state, high_state in orientations:
        include_r0 = problem.kind == "essp" or props.k is not None
        system = LinearSystem()
        if include_r0:
            r0_ub = _initial_upper_bound(self, problem, weight_ub)
            system.add_variable("r0", lower=0, upper=r0_ub)
        for t in self.labels:
            b_ub = weight_ub
            if scope is not None and t not in scope:
                b_ub = 0
            system.add_variable(f"b_{t}", lower=0, upper=b_ub)
            system.add_variable(f"f_{t}", lower=0, upper=weight_ub)

        def effect_coeffs(vector: Sequence[int], extra: Optional[Dict[str, int]] = None):
            coeffs: Dict[str, int] = dict(extra or {})
            for t, c in zip(self.labels, vector):
                if c:
                    coeffs[f"f_{t}"] = coeffs.get(f"f_{t}", 0) + c
                    coeffs[f"b_{t}"] = coeffs.get(f"b_{t}", 0) - c
            return coeffs

        for row in self.cycle_rows:
            system.add_constraint(effect_coeffs(row), "=", 0)
        if include_r0:
            for s in self.states:
                system.add_constraint(
                    effect_coeffs(self.psi[s], {"r0": 1}), ">=", 0
                )
            for s, t in self.arc_pairs:
                coeffs = effect_coeffs(self.psi[s], {"r0": 1})
                coeffs[f"b_{t}"] = coeffs.get(f"b_{t}", 0) - 1
                system.add_constraint(coeffs, ">=", 0)
            if props.k is not None:
                for s in self.states:
                    system.add_constraint(
                        effect_coeffs(self.psi[s], {"r0": 1}), "<=", props.k
                    )
        if props.tnet:
            system.add_constraint({f"f_{t}": 1 for t in self.labels}, "<=", 1)
            system.add_constraint({f"b_{t}": 1 for t in self.labels}, "<=", 1)
        if nonneg_effects:
            for t in self.labels:
                system.add_constraint({f"f_{t}": 1, f"b_{t}": -1}, ">=", 0)

        if problem.kind == "essp":
            t = problem.label
            if props.pure:
                coeffs = effect_coeffs(self.psi[problem.state], {"r0": 1})
                coeffs[f"f_{t}"] = coeffs.get(f"f_{t}", 0) + 1
                coeffs[f"b_{t}"] = coeffs.get(f"b_{t}", 0) - 1
            else:
                coeffs = effect_coeffs(self.psi[problem.state], {"r0": 1})
                coeffs[f"b_{t}"] = coeffs.get(f"b_{t}", 0) - 1
            system.add_constraint(coeffs, "<=", -1)
        else:
            diff = tuple(
                a - b for a, b in zip(self.psi[low_state], self.psi[high_state])
            )
            system.add_constraint(effect_coeffs(diff), "<=", -1)

        system.minimize_all_variables()
        solution = system.solve()
        if solution is None:
            continue
        backward = tuple(solution[f"b_{t}"] for t in self.labels)
        forward = tuple(solution[f"f_{t}"] for t in self.labels)
        if props.pure:
            region = self.region_from_effects(tuple(map(sub, forward, backward)))
        else:
            region = self.region(backward, forward)
        return self._checked(region, problem)
    return None


def _initial_upper_bound(self, problem, weight_ub: Optional[int]) -> Optional[int]:
    """Finite box for the initial value whenever the weights are boxed.

    Any solution satisfies r0 <= B(t) - 1 - E(psisep) <= wub - 1 + wub*|psi|,
    so clamping there keeps at least one solution whenever any exists.
    """
    bounds: List[int] = []
    if self.props.k is not None:
        bounds.append(self.props.k)
    if weight_ub is not None and problem.kind == "essp":
        psi = self.psi[problem.state]
        bounds.append(weight_ub - 1 + weight_ub * sum(psi))
    return min(bounds) if bounds else None


def enumerate_separation_problems(lts: Lts) -> List[SeparationProblem]:
    """Event/state problems for every reachable state and disabled label,
    then all unordered pairs of distinct reachable states; both in the
    deterministic state/label order."""
    reach = reachable_states(lts)
    problems = _event_state_problems(lts, reach)
    for i, state in enumerate(reach):
        for other in reach[i + 1 :]:
            problems.append(SeparationProblem("ssp", state, other=other))
    return problems


def _event_state_problems(lts: Lts, states: Sequence[str]) -> List[SeparationProblem]:
    """An event/state problem per given state and label it does not enable."""
    problems: List[SeparationProblem] = []
    for state in states:
        enabled = set(lts.enabled_labels(state))
        for label in lts.labels:
            if label not in enabled:
                problems.append(SeparationProblem("essp", state, label=label))
    return problems


def index_problems(engine, problems: List[SeparationProblem]):
    index = engine.index
    by_label: Dict[str, List[Tuple[int, int]]] = {t: [] for t in engine.labels}
    pairs: List[Tuple[int, int, int]] = []
    for p, problem in enumerate(problems):
        if problem.kind == "essp":
            by_label[problem.label].append((p, index[problem.state]))
        else:
            pairs.append((p, index[problem.state], index[problem.other]))
    return [by_label[t] for t in engine.labels], pairs
