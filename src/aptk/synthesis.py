"""Region-based synthesis of Petri nets from labelled transition systems.

A region assigns a token count to every state and backward/forward weights
to every label, consistently with all arcs; each region becomes a place of
the synthesized net.  Synthesis solves one small integer system per
separation problem: event/state problems make a region that disables a label
where the input disables it, state problems make a region whose token counts
tell two states apart.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .common import (
    AptError,
    InternalError,
    PreconditionError,
    StateLimitExceededError,
    UnsupportedInputError,
)
from .linalg import LinearSystem, _dot, integer_kernel_basis
from .lts import (
    Lts,
    SpanningTree,
    is_deterministic,
    is_totally_reachable,
    isomorphic,
    language_equivalent,
    reachable_states,
    spanning_tree,
)
from .petri import PetriNet, bounded, reachability_graph
from . import petri as _petri


# ---------------------------------------------------------------------------
# Domain types.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Token assignment for one place-to-be: initial count plus per-label
    backward (consumed) and forward (produced) weights."""

    labels: Tuple[str, ...]
    initial: int
    backward: Tuple[int, ...]
    forward: Tuple[int, ...]

    def b(self, label: str) -> int:
        return self.backward[self.labels.index(label)]

    def f(self, label: str) -> int:
        return self.forward[self.labels.index(label)]

    def effect(self, label: str) -> int:
        i = self.labels.index(label)
        return self.forward[i] - self.backward[i]

    def effects(self) -> Tuple[int, ...]:
        return tuple(f - b for f, b in zip(self.forward, self.backward))

    def is_pure(self) -> bool:
        return all(b == 0 or f == 0 for b, f in zip(self.backward, self.forward))

    def __str__(self) -> str:
        weights = ", ".join(
            f"{b}:{t}:{f}" for t, b, f in zip(self.labels, self.backward, self.forward)
        )
        return f"Region {{ init={self.initial}, {weights} }}" if weights else (
            f"Region {{ init={self.initial} }}"
        )


@dataclass(frozen=True)
class SeparationProblem:
    """Either an event/state problem (disable `label` at `state`) or a state
    pair that needs different token counts."""

    kind: str  # "essp" | "ssp"
    state: str
    label: Optional[str] = None
    other: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "essp":
            return f"event {self.label} at state {self.state}"
        return f"states {self.state} and {self.other}"


@dataclass
class PropertySet:
    """Requested properties of the synthesized net.

    safe is 1-bounded; t-net and conflict-free imply plain.  `language`
    switches to prefix-language equivalence (no state separation).
    """

    pure: bool = False
    plain: bool = False
    on: bool = False
    tnet: bool = False
    cf: bool = False
    k: Optional[int] = None
    language: bool = False
    verbose: bool = False

    def __post_init__(self):
        if self.tnet or self.cf:
            self.plain = True
        if self.k is not None and self.k < 1:
            raise AptError("k-bounded needs k >= 1")

    @classmethod
    def parse(cls, text: str) -> "PropertySet":
        props = cls()
        for raw in text.split(","):
            token = raw.strip()
            if not token:
                continue
            if token == "none":
                continue
            elif token == "pure":
                props.pure = True
            elif token == "plain":
                props.plain = True
            elif token == "output-nonbranching":
                props.on = True
            elif token == "t-net":
                props.tnet = True
            elif token == "conflict-free":
                props.cf = True
            elif token == "safe":
                if props.k is not None and props.k != 1:
                    raise AptError("conflicting boundedness requests")
                props.k = 1
            elif token == "language":
                props.language = True
            elif token == "verbose":
                props.verbose = True
            elif token.endswith("-bounded") and token[: -len("-bounded")].isdigit():
                k = int(token[: -len("-bounded")])
                if props.k is not None and props.k != k:
                    raise AptError("conflicting boundedness requests")
                props.k = k
            else:
                raise AptError(f"unknown property {token!r}")
        props.__post_init__()
        return props

    def describe(self) -> str:
        parts = []
        if self.pure:
            parts.append("pure")
        if self.plain:
            parts.append("plain")
        if self.on:
            parts.append("output-nonbranching")
        if self.tnet:
            parts.append("t-net")
        if self.cf:
            parts.append("conflict-free")
        if self.k == 1:
            parts.append("safe")
        elif self.k is not None:
            parts.append(f"{self.k}-bounded")
        if self.language:
            parts.append("language")
        return ",".join(parts) if parts else "none"


@dataclass
class SynthesisOutcome:
    success: bool
    properties: PropertySet
    net: Optional[PetriNet] = None
    regions: List[Region] = field(default_factory=list)
    failed_ssp: List[Tuple[str, str]] = field(default_factory=list)
    failed_essp: Dict[str, List[str]] = field(default_factory=dict)
    separation_failure_points: Optional[str] = None
    lts: Optional[Lts] = None


# ---------------------------------------------------------------------------
# Basic region machinery.
# ---------------------------------------------------------------------------


def region_basis(lts: Lts) -> List[Tuple[int, ...]]:
    """Lattice basis of label-effect vectors with zero effect around every
    cycle, from the fundamental-cycle rows of a fixed spanning tree.  Every
    valid region's effect vector is an integer combination of it."""
    _check_synthesis_input(lts)
    rows = _cycle_rows(spanning_tree(lts), lts.labels)
    return integer_kernel_basis(rows, dim=len(lts.labels))


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


def enumerate_separation_problems(lts: Lts) -> List[SeparationProblem]:
    """Event/state problems for every reachable state and disabled label,
    then all unordered pairs of distinct reachable states; both in the
    deterministic state/label order."""
    reach = reachable_states(lts)
    problems: List[SeparationProblem] = []
    for state in reach:
        enabled = set(lts.enabled_labels(state))
        for label in lts.labels:
            if label not in enabled:
                problems.append(SeparationProblem("essp", state, label=label))
    for i, state in enumerate(reach):
        for other in reach[i + 1 :]:
            problems.append(SeparationProblem("ssp", state, other=other))
    return problems


def _check_synthesis_input(lts: Lts) -> None:
    det = is_deterministic(lts)
    if not det:
        raise PreconditionError(f"synthesis needs a deterministic input: {det.detail}")
    tot = is_totally_reachable(lts)
    if not tot:
        raise PreconditionError(f"synthesis needs a totally reachable input: {tot.detail}")


def check_region(lts: Lts, region: Region) -> None:
    """Replay the region over every reachable arc; raises on any violation.

    This is the definitional validity check and is independent of how the
    region was computed.
    """
    values = {lts.initial: region.initial}
    if region.initial < 0:
        raise InternalError("region has negative initial value")
    order = reachable_states(lts)
    for state in order:
        value = values[state]
        for arc in lts.arcs_from(state):
            if value < region.b(arc.label):
                raise InternalError(
                    f"region blocks {arc.label} at {state}: {value} < {region.b(arc.label)}"
                )
            nxt = value - region.b(arc.label) + region.f(arc.label)
            if nxt < 0:
                raise InternalError(f"region goes negative at {arc.target}")
            known = values.get(arc.target)
            if known is None:
                values[arc.target] = nxt
            elif known != nxt:
                raise InternalError(f"region value at {arc.target} is path-dependent")


class _Engine:
    """Per-input context: spanning tree, Parikh vectors, cycle rows, basis,
    and the solvers for individual separation problems."""

    def __init__(self, lts: Lts, props: PropertySet):
        _check_synthesis_input(lts)
        self.lts = lts
        self.props = props
        self.labels = lts.labels
        self.lab_index = {t: i for i, t in enumerate(self.labels)}
        self.tree = spanning_tree(lts)
        self.states = list(self.tree.order)
        self.psi = {
            s: self.tree.path_parikh[s].as_tuple(self.labels) for s in self.states
        }
        self.cycle_rows = _cycle_rows(self.tree, self.labels)
        self.basis = integer_kernel_basis(self.cycle_rows, dim=len(self.labels))
        # states enabling each label, and the (state, label) pairs of all arcs
        self.enabled_states: Dict[str, List[str]] = {t: [] for t in self.labels}
        self.arc_pairs: List[Tuple[str, str]] = []
        seen_pairs = set()
        for s in self.states:
            for arc in lts.arcs_from(s):
                if (s, arc.label) not in seen_pairs:
                    seen_pairs.add((s, arc.label))
                    self.enabled_states[arc.label].append(s)
                    self.arc_pairs.append((s, arc.label))
        self._values_cache: Dict[Region, Dict[str, int]] = {}

    # -- generic helpers ---------------------------------------------------

    def region_values(self, region: Region) -> Dict[str, int]:
        cached = self._values_cache.get(region)
        if cached is None:
            effects = region.effects()
            cached = {
                s: region.initial + _dot(effects, self.psi[s]) for s in self.states
            }
            self._values_cache[region] = cached
        return cached

    def solves(self, region: Region, problem: SeparationProblem) -> bool:
        values = self.region_values(region)
        if problem.kind == "essp":
            return values[problem.state] < region.b(problem.label)
        return values[problem.state] != values[problem.other]

    def minimal_initial(self, backward: Sequence[int], effects: Sequence[int]) -> int:
        """Smallest initial value making the weights a valid region."""
        need = 0
        for s in self.states:
            drift = _dot(effects, self.psi[s])
            need = max(need, -drift)
            for arc in self.lts.arcs_from(s):
                need = max(need, backward[self.lab_index[arc.label]] - drift)
        return need

    def region_from_effects(self, effects: Sequence[int]) -> Region:
        backward = tuple(max(0, -e) for e in effects)
        forward = tuple(max(0, e) for e in effects)
        initial = self.minimal_initial(backward, effects)
        return Region(self.labels, initial, backward, forward)

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
        ordered = list(dict.fromkeys(locations[t] for t in self.labels if t in locations))
        scopes: List[Optional[Set[str]]] = [
            unlocated | {t for t in self.labels if locations.get(t) == loc}
            for loc in ordered
        ]
        if problem.kind == "essp" and problem.label in locations:
            home = locations[problem.label]
            return [unlocated | {u for u in self.labels if locations.get(u) == home}]
        return scopes

    def _on_scopes(self, problem: SeparationProblem) -> List[Set[str]]:
        """Unique synthetic location per label: at most one consumer."""
        if problem.kind == "essp":
            return [{problem.label}]
        return [{t} for t in self.labels]

    # -- general solver ----------------------------------------------------

    def solve_general(self, problem: SeparationProblem) -> Optional[Region]:
        attempts: List[Tuple[Optional[Set[str]], bool]] = []
        if self.props.cf:
            # output-nonbranching region first, then nonnegative effects
            for scope in self._on_scopes(problem):
                attempts.append((scope, False))
            for scope in self._location_scopes(problem):
                attempts.append((scope, True))
        elif self.props.on:
            for scope in self._on_scopes(problem):
                attempts.append((scope, False))
        else:
            for scope in self._location_scopes(problem):
                attempts.append((scope, False))
        for scope, nonneg in attempts:
            region = self._solve_with(problem, scope, nonneg)
            if region is not None:
                return region
        return None

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
                r0_ub = self._initial_upper_bound(problem, weight_ub)
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
                effects = tuple(f - b for f, b in zip(forward, backward))
                backward = tuple(max(0, -e) for e in effects)
                forward = tuple(max(0, e) for e in effects)
            effects = tuple(f - b for f, b in zip(forward, backward))
            initial = self.minimal_initial(backward, effects)
            region = Region(self.labels, initial, backward, forward)
            check_region(self.lts, region)
            if not self.solves(region, problem):
                raise InternalError(f"solver produced a non-separating region for {problem}")
            return region
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

    # -- basis solver --------------------------------------------------------

    def solve_basis(self, problem: SeparationProblem) -> Optional[Region]:
        """Solving over basis coefficients x: effects = sum of x[j] * basis[j].

        Serves the property-free case and `pure`, optionally with `plain`.
        State pairs: the first basis region whose values differ at the two
        states, else (plain only) one boxed solve.  Event/state: every row
        must have a negative effect.  The rows are the path difference to
        each state enabling the label; with `pure`, to every state, plus
        the label itself.  Without `pure` both weights of the label are then
        raised until it is disabled exactly there.  Plainness caps the
        per-label effects at one; the coefficient box then comes from an
        exact pseudo-inverse bound, keeping branch and bound complete.
        `_basis_effects` keeps one copy of rows with equal projections onto
        the basis and, without `plain`, solves the unboxed system by row
        generation: few of the rows are active in any LP.
        """
        pure, plain = self.props.pure, self.props.plain
        psi_s = self.psi[problem.state]
        if problem.kind == "ssp":
            diff = tuple(a - b for a, b in zip(psi_s, self.psi[problem.other]))
            dots = [_dot(vector, diff) for vector in self.basis]
            for vector, dot in zip(self.basis, dots):
                if dot and not (plain and any(abs(e) > 1 for e in vector)):
                    return self._checked(self.region_from_effects(vector), problem)
            if not (plain and any(dots)):
                return None
            rows = [diff]
        elif pure:
            unit = tuple(int(u == problem.label) for u in self.labels)
            rows = [
                tuple(a - b + u for a, b, u in zip(psi_s, self.psi[other], unit))
                for other in self.states
            ]
        else:
            rows = [
                tuple(a - b for a, b in zip(psi_s, self.psi[enabled_state]))
                for enabled_state in self.enabled_states[problem.label]
            ]
        effects = self._basis_effects(rows, plain)
        if effects is None:
            return None
        region = self.region_from_effects(effects)
        if problem.kind == "essp" and not pure:
            index = self.lab_index[problem.label]
            values = self.region_values(region)
            raise_by = max(0, values[problem.state] - region.backward[index] + 1)
            if raise_by:
                backward = list(region.backward)
                forward = list(region.forward)
                backward[index] += raise_by
                forward[index] += raise_by
                region = Region(self.labels, region.initial, tuple(backward), tuple(forward))
        return self._checked(region, problem)

    def _basis_effects(self, rows, plain: bool) -> Optional[Tuple[int, ...]]:
        """Effects of an integer x with every row's effect at most -1 and,
        under `plain`, every effect in [-1, 1]; None when there is none.

        Each row is projected onto the basis once; a repeated projection is
        the same constraint, so only distinct ones are kept.  Under `plain`
        all of them are active at once: one boxed system.  Otherwise rows
        are generated (Dantzig-Fulkerson-Johnson): solve on an active subset,
        seeded with the first d distinct rows (a vertex in d unknowns is
        fixed by d tight rows; with d = 0 one row already decides), check
        every row against the integer x and add the violated ones, until
        none is.  An infeasible subset proves the whole system infeasible,
        and the active set grows every round (the rows it holds are
        satisfied), so the loop ends.
        """
        projected = list(dict.fromkeys(tuple(_dot(v, row) for v in self.basis) for row in rows))
        boxes = _coefficient_boxes(self.basis) if plain else None
        active = projected if plain else projected[: max(1, len(self.basis))]
        while True:
            x = self._coefficients(active, boxes)
            if x is None:
                return None
            violated = [p for p in projected if _dot(p, x) > -1]
            if not violated:
                return _combine(self.basis, x, len(self.labels))
            active = active + violated

    def _coefficients(self, projected, boxes) -> Optional[List[int]]:
        """Integer basis coefficients x with p . x <= -1 for every projected
        row p; with boxes, |x[j]| <= boxes[j] and every effect in [-1, 1]."""
        system = LinearSystem()
        names = [f"x{j}" for j in range(len(self.basis))]
        for j, name in enumerate(names):
            if boxes is None:
                system.add_variable(name)
            else:
                system.add_variable(name, lower=-boxes[j], upper=boxes[j])
        for p in projected:
            system.add_constraint({n: c for n, c in zip(names, p) if c}, "<=", -1)
        if boxes is not None:
            for i in range(len(self.labels)):
                coeffs = {n: v[i] for n, v in zip(names, self.basis) if v[i]}
                if not coeffs:
                    continue
                system.add_constraint(coeffs, "<=", 1)
                system.add_constraint(coeffs, ">=", -1)
        solution = system.solve()
        return None if solution is None else [solution[n] for n in names]

    def _checked(self, region: Region, problem: SeparationProblem) -> Region:
        check_region(self.lts, region)
        if self.props.pure and not region.is_pure():
            raise InternalError("basis solver produced an impure region")
        if not self.solves(region, problem):
            raise InternalError(f"basis solver failed to separate {problem}")
        return region

    # -- dispatch ------------------------------------------------------------

    def solve(self, problem: SeparationProblem) -> Optional[Region]:
        """The basis solver without locations for no property, `pure` and
        `plain,pure`; the general solver for everything else."""
        props = self.props
        if (
            self.lts.locations
            or props.on
            or props.tnet
            or props.cf
            or props.k is not None
            or (props.plain and not props.pure)
        ):
            return self.solve_general(problem)
        return self.solve_basis(problem)


def _combine(basis, coefficients, dim: int) -> Tuple[int, ...]:
    out = [0] * dim
    for coeff, vector in zip(coefficients, basis):
        if coeff:
            for i, v in enumerate(vector):
                out[i] += coeff * v
    return tuple(out)


def _coefficient_boxes(basis) -> List[int]:
    """Box |x_j| <= sum_u |pinv[j][u]| valid for any effect with entries in
    [-1, 1]: coefficients are uniquely determined by the effect since the
    basis has full column rank, via the exact pseudo-inverse."""
    if not basis:
        return []
    m = len(basis)
    n = len(basis[0])
    gram = [[Fraction(_dot(basis[i], basis[j])) for j in range(m)] for i in range(m)]
    rhs = [[Fraction(basis[i][u]) for u in range(n)] for i in range(m)]
    # solve gram * X = rhs by Gauss-Jordan; gram is invertible
    for col in range(m):
        pivot = next(r for r in range(col, m) if gram[r][col] != 0)
        gram[col], gram[pivot] = gram[pivot], gram[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = Fraction(1) / gram[col][col]
        gram[col] = [v * inv for v in gram[col]]
        rhs[col] = [v * inv for v in rhs[col]]
        for r in range(m):
            if r != col and gram[r][col] != 0:
                factor = gram[r][col]
                gram[r] = [v - factor * p for v, p in zip(gram[r], gram[col])]
                rhs[r] = [v - factor * p for v, p in zip(rhs[r], rhs[col])]
    boxes = []
    for j in range(m):
        bound = sum(abs(v) for v in rhs[j])
        boxes.append(int(bound) if bound == int(bound) else int(bound) + 1)
    return boxes


# ---------------------------------------------------------------------------
# Public solving entry point and the separation pass.
# ---------------------------------------------------------------------------


def solve_separation(
    lts: Lts, problem: SeparationProblem, props: Optional[PropertySet] = None
) -> Optional[Region]:
    """A region of the requested properties that solves one separation
    problem, or None when there is none."""
    return _Engine(lts, props or PropertySet()).solve(problem)


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


def _build_net(lts: Lts, regions: Sequence[Region], name: str = "") -> PetriNet:
    net = PetriNet(name=name, description="")
    locations = lts.locations
    for i, region in enumerate(regions):
        net.add_place(f"p{i}", tokens=region.initial)
    for t in lts.labels:
        net.add_transition(t, location=locations.get(t))
    for i, region in enumerate(regions):
        for t in lts.labels:
            b = region.b(t)
            f = region.f(t)
            if b:
                net.add_flow(f"p{i}", t, b)
            if f:
                net.add_flow(t, f"p{i}", f)
    return net


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


def _run_engine(engine: _Engine, problems: List[SeparationProblem]) -> SynthesisOutcome:
    """One separation pass: solve the problems in order, skipping those that
    a region found earlier solves.  Each region's solved-problem set is
    computed once, when the region is found; a found region solves its own
    problem, which no earlier region solves, so it is always a new one."""
    lts, props = engine.lts, engine.props
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
        problem_set = {j for j, other in enumerate(problems) if engine.solves(region, other)}
        solved.append((region, problem_set))
        covered |= problem_set

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


def synthesize(lts: Lts, props: Optional[PropertySet] = None) -> SynthesisOutcome:
    """Find an injectively labelled net whose reachability graph is
    isomorphic to the input (language-equal under the language property).

    On failure, all unsolvable separation problems are reported, together
    with the regions that were found.
    """
    props = props or PropertySet()
    if props.language:
        return synthesize_language_only(lts, props)
    engine = _Engine(lts, props)  # checks the input before the quadratic enumeration
    return _run_engine(engine, enumerate_separation_problems(lts))


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


def _unfold_to_tree(lts: Lts) -> Lts:
    """Tree unfolding of an acyclic system: one fresh state per path.

    Reconvergent states would otherwise force both paths onto one token
    count, a constraint language-only synthesis must not impose.  Inputs
    that already are trees come back unchanged.  The tree can be
    exponentially larger than the input (a chain of k diamonds has 2^k
    paths), so past DEFAULT_STATE_LIMIT states it raises
    StateLimitExceededError.
    """
    limit = _petri.DEFAULT_STATE_LIMIT
    incoming: Dict[str, int] = {s: 0 for s in lts.states}
    for arc in lts.arcs:
        incoming[arc.target] += 1
    if incoming[lts.initial] == 0 and all(
        n <= 1 for s, n in incoming.items() if s != lts.initial
    ):
        return lts
    tree = Lts(name=lts.name, description=lts.description)
    tree.add_state("u0", initial=True)
    for t in lts.labels:
        tree.add_label(t, location=lts.location(t))
    queue = deque([("u0", lts.initial)])
    count = 1
    while queue:
        node, original = queue.popleft()
        for arc in lts.arcs_from(original):
            if count >= limit:
                raise StateLimitExceededError(
                    f"the tree unfolding has more than {limit} states"
                )
            fresh = f"u{count}"
            count += 1
            tree.add_state(fresh)
            tree.add_arc(node, arc.label, fresh)
            queue.append((fresh, arc.target))
    return tree


def synthesize_language_only(lts: Lts, props: Optional[PropertySet] = None) -> SynthesisOutcome:
    """Synthesis up to prefix-language equivalence; only acyclic inputs are
    supported (cyclic ones would need an unfolding construction that is out
    of scope here).  State separation is not enforced."""
    props = replace(props) if props is not None else PropertySet()
    props.language = True
    _check_synthesis_input(lts)
    if not _is_acyclic(lts):
        raise UnsupportedInputError(
            "language-only synthesis supports acyclic inputs only"
        )
    tree = _unfold_to_tree(lts)
    problems = [p for p in enumerate_separation_problems(tree) if p.kind == "essp"]
    return _run_engine(_Engine(tree, props), problems)


def word_lts(word: Sequence[str]) -> Lts:
    """The linear system of a word: states s0..sn, arc s(i-1) -a(i)-> s(i)."""
    lts = Lts(name="word")
    lts.add_state("s0", initial=True)
    for t in dict.fromkeys(word):
        lts.add_label(t)
    for i, letter in enumerate(word, start=1):
        lts.add_state(f"s{i}")
        lts.add_arc(f"s{i - 1}", letter, f"s{i}")
    return lts


def word_synthesize(props: Optional[PropertySet], word: Sequence[str]) -> SynthesisOutcome:
    """Synthesize a net whose firing sequences are exactly the prefixes of
    the word.  Failures are rendered as the word with each spuriously
    enabled letter bracketed before the position where it appears."""
    props = replace(props) if props is not None else PropertySet()
    props.language = True
    word = list(word)
    if not word:
        outcome = SynthesisOutcome(success=True, properties=props, net=PetriNet(name="empty"))
        outcome.lts = word_lts(word)
        return outcome
    outcome = synthesize_language_only(word_lts(word), props)
    if not outcome.success:
        failures_at: Dict[int, List[str]] = {}
        for label, states in outcome.failed_essp.items():
            for state in states:
                failures_at.setdefault(int(state[1:]), []).append(label)
        parts: List[str] = []
        for i, letter in enumerate(word):
            prefix = "".join(f"[{t}] " for t in failures_at.get(i, []))
            parts.append(prefix + letter)
        for t in failures_at.get(len(word), []):
            parts.append(f"[{t}]")
        outcome.separation_failure_points = ", ".join(parts)
    return outcome


# ---------------------------------------------------------------------------
# Report rendering.
# ---------------------------------------------------------------------------


def format_report(outcome: SynthesisOutcome) -> List[str]:
    """Report lines in the key/value output style."""
    lines = [f"success: {'Yes' if outcome.success else 'No'}"]
    if outcome.properties.verbose and outcome.regions and outcome.lts is not None:
        lines.append("solvedEventStateSeparationProblems:")
        engine = _Engine(outcome.lts, outcome.properties)
        for region in outcome.regions:
            lines.append(f"{region}:")
            values = engine.region_values(region)
            for label in engine.labels:
                disabled = [s for s in engine.states if values[s] < region.b(label)]
                if disabled:
                    lines.append(
                        f"\tseparates event {label} at states [{', '.join(disabled)}]"
                    )
    if outcome.separation_failure_points is not None:
        lines.append(f"separationFailurePoints: {outcome.separation_failure_points}")
        return lines
    ssp = ", ".join(f"[{a}, {b}]" for a, b in outcome.failed_ssp)
    lines.append(f"failedStateSeparationProblems: [{ssp}]")
    essp_parts = ", ".join(
        f"{label}=[{', '.join(states)}]"
        for label, states in outcome.failed_essp.items()
    )
    lines.append(f"failedEventStateSeparationProblems: {{{essp_parts}}}")
    return lines
