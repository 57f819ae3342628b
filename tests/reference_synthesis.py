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
engine); the systems it handed to `LinearSystem.solve` must be the ones
the engine hands to `RowSystem.solve`, written over its columns.

`enumerate_separation_problems` and `_event_state_problems` listed the
problems on a walk of their own, through `reachable_states` and
`enabled_labels`; `index_problems` is the loop that opened the separation
pass and turned each problem back into state indices through
`_Engine.index` (here it returns the per-label lists in label order).
`_Engine.problems` must give the same problems and the same indices.

`_Engine`, `_separation_pass` and `_run_engine` are the engine and the
pass that listed one `SeparationProblem` per problem, one (problem, state,
state) tuple per state pair, and each state's Parikh vector as a
`ParikhVector`, and took one dot product per state in `region`.  The
functions above take this engine as `self`; inside it, `spanning_tree`,
`_check_synthesis_input` and `minimize_regions` are the versions above,
checked to give the same results.  The engine on integer indices must give
the same regions, failures and reports on every input.

`_verify_success` checked a synthesized net by building its reachability
graph, within a state budget, and searching for an isomorphism to the
input (under `language`, comparing the languages), then `bounded` for a
k-bounded request; `_run_engine` above calls it.  The lockstep replay of
aptk.synthesis must give the same verdict on every synthesized net and
reject the same mutated nets.
"""

from __future__ import annotations

from collections import deque
from operator import sub
from typing import Dict, List, Optional, Sequence, Set, Tuple

from aptk.common import InternalError, PreconditionError
from aptk.linalg import LinearSystem, integer_kernel_basis, solve_cone
from aptk import petri as _petri
from aptk.lts import (
    Lts,
    ParikhVector,
    SpanningTree,
    is_deterministic,
    is_totally_reachable,
    isomorphic,
    language_equivalent,
    reachable_states,
)
from aptk.petri import PetriNet, bounded, reachability_graph
from aptk.synthesis import (
    PropertySet,
    Region,
    SeparationProblem,
    SynthesisOutcome,
    _build_net,
    _coefficient_boxes,
    _combine,
    _dot,
    check_region,
)


def _verify_success(lts: Lts, net: PetriNet, props: PropertySet) -> None:
    limit = max(256, 8 * len(lts.states) + 64)
    graph = reachability_graph(net, state_limit=limit)
    if props.language:
        check = language_equivalent(lts, graph.lts)
        if not check:
            raise InternalError(f"synthesized net is not language-equivalent: {check.detail}")
    else:
        check = isomorphic(graph.lts, lts)
        if not check:
            raise InternalError(f"synthesized net does not solve the input: {check.detail}")
    if props.pure and not _petri.is_pure(net):
        raise InternalError("requested pure, produced an impure net")
    if props.plain and not _petri.is_plain(net):
        raise InternalError("requested plain, produced a weighted net")
    if props.on and not _petri.is_output_nonbranching(net):
        raise InternalError("requested output-nonbranching, got branching place")
    if props.tnet and not _petri.is_tnet(net):
        raise InternalError("requested t-net, constraint violated")
    if props.cf and not _petri.is_conflict_free(net):
        raise InternalError("requested conflict-free, constraint violated")
    if props.k is not None and not bounded(net, props.k):
        raise InternalError(f"requested {props.k}-bounded, bound exceeded")


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


class _Engine:
    """Per-input context: spanning tree, Parikh vectors, cycle rows, basis,
    and the solvers for individual separation problems."""

    def __init__(self, lts: Lts, props: PropertySet):
        self.lts = lts
        self.props = props
        self.labels = lts.labels
        self.lab_index = {t: i for i, t in enumerate(self.labels)}
        try:  # the one walk; on a defect, the input check names the first
            self.tree = spanning_tree(lts)
        except PreconditionError:
            _check_synthesis_input(lts)
            raise
        self.states = list(self.tree.order)
        # states enabling each label, and the (state, label) pairs of all
        # arcs; a repeated pair (equal arcs are one arc) is a nondeterministic
        # state, and a label no state enables is unused
        self.enabled_states: Dict[str, List[str]] = {t: [] for t in self.labels}
        self.arc_pairs: List[Tuple[str, str]] = []
        for s in self.states:
            for arc in lts.arcs_from(s):
                self.enabled_states[arc.label].append(s)
                self.arc_pairs.append((s, arc.label))
        self.enabled = set(self.arc_pairs)
        if len(self.enabled) < len(self.arc_pairs) or not all(self.enabled_states.values()):
            _check_synthesis_input(lts)
        # the basis solver serves no property, `pure` and `plain,pure`
        # without locations; the general solver everything else
        self.general = bool(lts.locations) or props.k is not None or (
            props.on or props.tnet or props.cf or (props.plain and not props.pure)
        )
        psi = self.psi = {
            s: self.tree.path_parikh[s].as_tuple(self.labels) for s in self.states
        }
        # each chord closes a cycle with Parikh vector psi(source) + label -
        # psi(target); a region's effects are zero on each distinct nonzero one
        rows = []
        for arc in self.tree.chords:
            row = list(map(sub, psi[arc.source], psi[arc.target]))
            row[self.lab_index[arc.label]] += 1
            rows.append(tuple(row))
        self.cycle_rows = [row for row in dict.fromkeys(rows) if any(row)]
        self.basis = integer_kernel_basis(self.cycle_rows, dim=len(self.labels))
        self.index = {s: i for i, s in enumerate(self.states)}
        self._values_cache: Dict[Region, List[int]] = {}
        self._projected: Optional[Dict[str, Tuple[int, ...]]] = None

    # -- generic helpers ---------------------------------------------------

    def problems(self):
        """The separation problems in order: an event/state problem per state,
        in `states` order, and label it does not enable, then (unless
        language-only) every unordered pair of distinct states.  Also their
        state indices, as the separation pass reads them: per label index
        the (problem, state) pairs, and (problem, state, state) per pair."""
        problems: List[SeparationProblem] = []
        pairs: List[Tuple[int, int, int]] = []
        by_label: List[List[Tuple[int, int]]] = [[] for _ in self.labels]
        for i, s in enumerate(self.states):
            for k, t in enumerate(self.labels):
                if (s, t) not in self.enabled:
                    by_label[k].append((len(problems), i))
                    problems.append(SeparationProblem("essp", s, label=t))
        if not self.props.language:
            for i, s in enumerate(self.states):
                for j, other in enumerate(self.states[i + 1 :], i + 1):
                    pairs.append((len(problems), i, j))
                    problems.append(SeparationProblem("ssp", s, other=other))
        return problems, by_label, pairs

    def value_array(self, region: Region) -> List[int]:
        """The region's token count at every state, in `states` order, as
        `check_region` returns it; `_checked` keeps it for found regions."""
        cached = self._values_cache.get(region)
        if cached is None:
            cached = list(check_region(self.lts, region).values())
            self._values_cache[region] = cached
        return cached

    def region_values(self, region: Region) -> Dict[str, int]:
        return dict(zip(self.states, self.value_array(region)))

    def solves(self, region: Region, problem: SeparationProblem) -> bool:
        values = self.value_array(region)
        value = values[self.index[problem.state]]
        if problem.kind == "essp":
            return value < region.b(problem.label)
        return value != values[self.index[problem.other]]

    def region(self, backward: Tuple[int, ...], forward: Tuple[int, ...]) -> Region:
        """The region with these weights and the smallest initial value that
        keeps every state's count nonnegative and every arc enabled."""
        effects = tuple(map(sub, forward, backward))
        need = 0
        for s in self.states:
            drift = _dot(effects, self.psi[s])
            need = max(need, -drift)
            for arc in self.lts.arcs_from(s):
                need = max(need, backward[self.lab_index[arc.label]] - drift)
        return Region(self.labels, need, backward, forward)

    def region_from_effects(self, effects: Sequence[int]) -> Region:
        return self.region(
            tuple(max(0, -e) for e in effects), tuple(max(0, e) for e in effects)
        )

    # -- location scopes ---------------------------------------------------

    def _location_scopes(self, problem: SeparationProblem) -> List[Optional[Set[str]]]:
        """Label sets allowed to consume from the region's place.

        Differently-located labels must end up with disjoint presets, so the
        consumers of any one place must stay within a single location; labels
        without a location conflict with nothing and are always allowed.
        """
        locations = self.lts.locations
        if not locations:
            return [None]
        unlocated = {t for t in self.labels if t not in locations}
        if problem.kind == "essp" and problem.label in locations:
            homes = [locations[problem.label]]
        else:
            homes = list(dict.fromkeys(locations[t] for t in self.labels if t in locations))
        return [unlocated | {t for t in self.labels if locations.get(t) == loc} for loc in homes]

    def _on_scopes(self, problem: SeparationProblem) -> List[Set[str]]:
        """Unique synthetic location per label: at most one consumer."""
        if problem.kind == "essp":
            return [{problem.label}]
        return [{t} for t in self.labels]

    # -- general solver ----------------------------------------------------

    def solve_general(self, problem: SeparationProblem) -> Optional[Region]:
        if self.props.cf:
            # output-nonbranching region first, then nonnegative effects
            attempts = [(scope, False) for scope in self._on_scopes(problem)]
            attempts += [(scope, True) for scope in self._location_scopes(problem)]
        elif self.props.on:
            attempts = [(scope, False) for scope in self._on_scopes(problem)]
        else:
            attempts = [(scope, False) for scope in self._location_scopes(problem)]
        for scope, nonneg in attempts:
            region = self._solve_with(problem, scope, nonneg)
            if region is not None:
                return region
        return None

    def _effect_coeffs(self, vector: Sequence[int], extra: Optional[Dict[str, int]] = None):
        """`extra` (no weight variables), then the effect along `vector`."""
        coeffs: Dict[str, int] = dict(extra or {})
        for t, c in zip(self.labels, vector):
            if c:
                coeffs[f"f_{t}"] = c
                coeffs[f"b_{t}"] = -c
        return coeffs

    def _solve_with(
        self,
        problem: SeparationProblem,
        scope: Optional[Set[str]],
        nonneg_effects: bool,
    ) -> Optional[Region]:
        """One exact integer solve per orientation (two for a state pair; the
        first feasible one wins).  Variables are the initial value and the
        backward/forward weights; with `pure` the event/state inequality is
        the effect form and the solution is afterwards decomposed into its
        canonical side-condition-free weights.  Only the separating row
        depends on the orientation; all other rows are built once."""
        props = self.props
        weight_ub = 1 if props.plain else props.k
        include_r0 = problem.kind == "essp" or props.k is not None

        r0_ub = self._initial_upper_bound(problem, weight_ub)
        rows = [(self._effect_coeffs(row), "=", 0) for row in self.cycle_rows]
        if include_r0:
            at = {s: self._effect_coeffs(self.psi[s], {"r0": 1}) for s in self.states}
            rows += [(at[s], ">=", 0) for s in self.states]
            for s, t in self.arc_pairs:
                coeffs = dict(at[s])
                coeffs[f"b_{t}"] = coeffs.get(f"b_{t}", 0) - 1
                rows.append((coeffs, ">=", 0))
            if props.k is not None:
                rows += [(at[s], "<=", props.k) for s in self.states]
        if props.tnet:
            rows.append(({f"f_{t}": 1 for t in self.labels}, "<=", 1))
            rows.append(({f"b_{t}": 1 for t in self.labels}, "<=", 1))
        if nonneg_effects:
            rows += [({f"f_{t}": 1, f"b_{t}": -1}, ">=", 0) for t in self.labels]

        if problem.kind == "essp":
            t = problem.label
            coeffs = dict(at[problem.state])
            if props.pure:
                coeffs[f"f_{t}"] = coeffs.get(f"f_{t}", 0) + 1
            coeffs[f"b_{t}"] = coeffs.get(f"b_{t}", 0) - 1
            separating = [coeffs]
        else:  # the state's count below the other's, then above it
            low = self._effect_coeffs(map(sub, self.psi[problem.state], self.psi[problem.other]))
            separating = [low, {name: -c for name, c in low.items()}]

        for separation in separating:
            system = LinearSystem()
            if include_r0:
                system.add_variable("r0", lower=0, upper=r0_ub)
            for t in self.labels:
                b_ub = 0 if scope is not None and t not in scope else weight_ub
                system.add_variable(f"b_{t}", lower=0, upper=b_ub)
                system.add_variable(f"f_{t}", lower=0, upper=weight_ub)
            for coeffs, rel, rhs in rows:
                system.add_constraint(coeffs, rel, rhs)
            system.add_constraint(separation, "<=", -1)
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
        k = self.props.k
        if weight_ub is None or problem.kind != "essp":
            return k
        bound = weight_ub - 1 + weight_ub * sum(self.psi[problem.state])
        return bound if k is None else min(bound, k)

    # -- basis solver --------------------------------------------------------

    def solve_basis(self, problem: SeparationProblem) -> Optional[Region]:
        """Solving over basis coefficients x: effects = sum of x[j] * basis[j].

        Serves the property-free case and `pure`, optionally with `plain`.
        An empty basis solves nothing: every region then has zero effects,
        so its value is the same at every state, and the cycle rows have
        full rank, so every label occurs on an arc and is enabled
        somewhere, hence everywhere.
        State pairs: the first basis region whose values differ at the two
        states, else (plain only) one boxed solve.  Event/state: every row
        must have a negative effect.  The rows are the path difference to
        each state enabling the label; with `pure`, to every state, plus
        the label itself; each is taken as a difference of the states'
        projections onto the basis.  Without `pure` both weights of the
        label are then raised until it is disabled exactly there.
        Plainness caps the per-label effects at one; the coefficient box
        then comes from an exact pseudo-inverse bound, keeping branch and
        bound complete.
        """
        if not self.basis:
            return None
        pure, plain = self.props.pure, self.props.plain
        projection = self._projection()
        at = projection[problem.state]
        if problem.kind == "ssp":
            dots = tuple(map(sub, at, projection[problem.other]))
            for vector, dot in zip(self.basis, dots):
                if dot and not (plain and any(abs(e) > 1 for e in vector)):
                    return self._checked(self.region_from_effects(vector), problem)
            if not (plain and any(dots)):
                return None
            rows = [dots]
        elif pure:
            k = self.lab_index[problem.label]
            at = tuple([a + v[k] for a, v in zip(at, self.basis)])
            rows = [tuple(map(sub, at, projection[other])) for other in self.states]
        else:
            rows = [
                tuple(map(sub, at, projection[enabled_state]))
                for enabled_state in self.enabled_states[problem.label]
            ]
        effects = self._basis_effects(rows, plain)
        if effects is None:
            return None
        region = self.region_from_effects(effects)
        if problem.kind == "essp" and not pure:
            index = self.lab_index[problem.label]
            value = region.initial + _dot(effects, self.psi[problem.state])
            raise_by = max(0, value - region.backward[index] + 1)
            if raise_by:
                backward = list(region.backward)
                forward = list(region.forward)
                backward[index] += raise_by
                forward[index] += raise_by
                region = Region(self.labels, region.initial, tuple(backward), tuple(forward))
        return self._checked(region, problem)

    def _projection(self) -> Dict[str, Tuple[int, ...]]:
        """psi(s) projected onto the basis, per state, computed on first use.
        Projection is linear: a path difference psi(s) - psi(e) projects to
        the difference of the two projections."""
        if self._projected is None:
            self._projected = {
                s: tuple([_dot(v, self.psi[s]) for v in self.basis]) for s in self.states
            }
        return self._projected

    def _basis_effects(self, rows, plain: bool) -> Optional[Tuple[int, ...]]:
        """Effects of an integer x with every row's effect at most -1 and,
        under `plain`, every effect in [-1, 1]; None when there is none.

        The rows come projected onto the basis (row p stands for the effect
        constraint p . x <= -1); a repeated row is the same constraint, so
        only distinct ones are kept.  Under `plain` they go into one boxed
        system for branch and bound.  Otherwise the system is a cone, and
        one `solve_cone` call on its Farkas dual, with d + 1 tableau rows
        for a basis of d vectors, returns a checked x or a checked
        certificate that there is none.
        """
        projected = list(dict.fromkeys(rows))
        if plain:
            x = self._coefficients(projected)
        else:
            x, _ = solve_cone(projected, len(self.basis))
        return None if x is None else _combine(self.basis, x, len(self.labels))

    def _coefficients(self, projected) -> Optional[List[int]]:
        """Integer basis coefficients x with p . x <= -1 for every projected
        row p, |x[j]| <= its pseudo-inverse box and every effect in [-1, 1]."""
        system = LinearSystem()
        names = [f"x{j}" for j in range(len(self.basis))]
        for name, box in zip(names, _coefficient_boxes(self.basis)):
            system.add_variable(name, lower=-box, upper=box)
        for p in projected:
            system.add_constraint({n: c for n, c in zip(names, p) if c}, "<=", -1)
        for i in range(len(self.labels)):
            coeffs = {n: v[i] for n, v in zip(names, self.basis) if v[i]}
            if not coeffs:
                continue
            system.add_constraint(coeffs, "<=", 1)
            system.add_constraint(coeffs, ">=", -1)
        solution = system.solve()
        return None if solution is None else [solution[n] for n in names]

    def _checked(self, region: Region, problem: SeparationProblem) -> Region:
        """Every solver's exit: the region must be valid, pure under `pure`,
        and solve its problem.  `check_region` replays it in `states` order,
        so its values are the region's value array."""
        self._values_cache[region] = list(check_region(self.lts, region).values())
        if self.props.pure and not region.is_pure():
            raise InternalError("solver produced an impure region")
        if not self.solves(region, problem):
            raise InternalError(f"solver failed to separate {problem}")
        return region

    # -- dispatch ------------------------------------------------------------

    def solve(self, problem: SeparationProblem) -> Optional[Region]:
        """The solver `__init__` picked for this input and property set."""
        return self.solve_general(problem) if self.general else self.solve_basis(problem)


def _separation_pass(engine: _Engine) -> Tuple[
    List[SeparationProblem], List[Tuple[Region, Set[int]]], List[SeparationProblem]
]:
    """Solve the engine's problems in order, skipping those that a region
    found earlier solves; returns the problems, each found region with the
    indices of the problems it solves, and the unsolvable problems.

    Each found region is evaluated once, as a value array, and read at the
    state indices `_Engine.problems` lists: it solves the (problem, state)
    pairs of each label with backward weight b > 0 at states valued below
    b, and the (problem, state, state) pairs whose values differ.  It
    solves its own problem, which no earlier region solves, so it is
    always a new one."""
    problems, by_label, pairs = engine.problems()
    essp = [(k, group) for k, group in enumerate(by_label) if group]
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
        values, b = engine.value_array(region), region.backward
        problem_set = {p for k, group in essp if b[k] for p, s in group if values[s] < b[k]}
        problem_set.update([p for p, s, o in pairs if values[s] != values[o]])
        solved.append((region, problem_set))
        covered |= problem_set
    return problems, solved, failed


def _run_engine(engine: _Engine) -> SynthesisOutcome:
    """Run the separation pass.  On failure, report the unsolvable problems
    with every region found; on success, keep the regions that
    `minimize_regions` picks, build their net and verify it."""
    lts, props = engine.lts, engine.props
    problems, solved, failed = _separation_pass(engine)
    outcome = SynthesisOutcome(success=not failed, properties=props, lts=lts)
    if failed:
        outcome.regions = [region for region, _ in solved]
        for problem in failed:
            if problem.kind == "ssp":
                outcome.failed_ssp.append((problem.state, problem.other))
            else:
                outcome.failed_essp.setdefault(problem.label, []).append(problem.state)
        return outcome

    minimized = minimize_regions(problems, solved) if solved else []
    name = f"synthesized from {lts.name}" if lts.name else "synthesized"
    net = _build_net(lts, minimized, name=name)
    outcome.regions = minimized
    outcome.net = net
    _verify_success(lts, net, props)
    return outcome
