"""Region-based synthesis of Petri nets from labelled transition systems.

A region assigns a token count to every state and backward/forward weights
to every label, consistently with all arcs; each region becomes a place of
the synthesized net.  Synthesis solves one small integer system per
separation problem: event/state problems make a region that disables a label
where the input disables it, state problems make a region whose token counts
tell two states apart.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import ceil
from operator import add, sub
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .common import (
    AptError,
    InternalError,
    PreconditionError,
    StateLimitExceededError,
    UnsupportedInputError,
)
from .linalg import RowSystem, _dot, _full_column_rank, integer_kernel_basis, solve_cone
from .lts import (
    Lts,
    is_deterministic,
    is_totally_reachable,
    isomorphic,  # uncalled, as is bounded: tracers patch them here
    reachable_states,
    spanning_tree,
    state_name,
    strongly_connected_components,
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


# the property tokens that set a flag, net properties first in `describe` order
_FLAGS = {"pure": "pure", "plain": "plain", "output-nonbranching": "on", "t-net": "tnet",
          "conflict-free": "cf", "language": "language", "verbose": "verbose"}


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
        for token in filter(None, map(str.strip, text.split(","))):
            bound = token[: -len("-bounded")] if token.endswith("-bounded") else ""
            if token in _FLAGS:
                setattr(props, _FLAGS[token], True)
            elif token == "safe" or bound.isdecimal():
                k = 1 if token == "safe" else int(bound)
                if props.k is not None and props.k != k:
                    raise AptError("conflicting boundedness requests")
                props.k = k
            elif token != "none":
                raise AptError(f"unknown property {token!r}")
        props.__post_init__()
        return props

    def describe(self) -> str:
        parts = [token for token, name in list(_FLAGS.items())[:5] if getattr(self, name)]
        if self.k is not None:
            parts.append("safe" if self.k == 1 else f"{self.k}-bounded")
        if self.language:
            parts.append("language")
        return ",".join(parts) or "none"


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
    # language-only synthesis of an input that is not a tree: the tree
    # unfolding that was solved, and the input state each of its states copies
    unfolding: Optional[Tuple[Lts, Dict[str, str]]] = None


# ---------------------------------------------------------------------------
# Basic region machinery.
# ---------------------------------------------------------------------------


def region_basis(lts: Lts) -> List[Tuple[int, ...]]:
    """Lattice basis of label-effect vectors with zero effect around every
    cycle, from the fundamental-cycle rows of a fixed spanning tree.  Every
    valid region's effect vector is an integer combination of it."""
    return _Engine(lts, PropertySet()).basis


def enumerate_separation_problems(lts: Lts) -> List[SeparationProblem]:
    """Event/state problems for every reachable state and disabled label,
    then all unordered pairs of distinct reachable states; both in the
    deterministic state/label order.  Raises PreconditionError on an input
    synthesis rejects."""
    engine = _Engine(lts, PropertySet())
    return list(engine.listed(engine.problems()[0]))


def _check_synthesis_input(lts: Lts) -> None:
    det = is_deterministic(lts)
    if not det:
        raise PreconditionError(f"synthesis needs a deterministic input: {det.detail}")
    tot = is_totally_reachable(lts)
    if not tot:
        raise PreconditionError(f"synthesis needs a totally reachable input: {tot.detail}")


def check_region(lts: Lts, region: Region) -> Dict[str, int]:
    """Replay the region over every reachable arc; raises on any violation,
    else returns the region's token count at each reachable state, in
    breadth-first order.

    This is the definitional validity check and is independent of how the
    region was computed.
    """
    weights = {t: (b, f - b) for t, b, f in zip(region.labels, region.backward, region.forward)}
    values = {lts.initial: region.initial}
    if region.initial < 0:
        raise InternalError("region has negative initial value")
    order = [lts.initial]
    for state in order:
        value = values[state]
        for arc in lts.arcs_from(state):
            b, effect = weights[arc.label]
            if value < b:
                raise InternalError(f"region blocks {arc.label} at {state}: {value} < {b}")
            nxt = value + effect
            if nxt < 0:
                raise InternalError(f"region goes negative at {arc.target}")
            known = values.get(arc.target)
            if known is None:
                values[arc.target] = nxt
                order.append(arc.target)
            elif known != nxt:
                raise InternalError(f"region value at {arc.target} is path-dependent")
    return values


class _Engine:
    """Per-input context: spanning tree, Parikh vectors, cycle rows, basis,
    and the solvers for individual separation problems, all on indices: a
    state is its place in `states`, a label in `labels`, and a problem is
    ("essp", state, label) or ("ssp", state, later state)."""

    def __init__(self, lts: Lts, props: PropertySet):
        self.lts = lts
        self.props = props
        labels = self.labels = lts.labels
        lab = self.lab_index = {t: i for i, t in enumerate(labels)}
        try:  # the one walk; on a defect, the input check names the first
            self.tree = spanning_tree(lts)
        except PreconditionError:
            _check_synthesis_input(lts)
            raise
        states, parent = self.tree.order, self.tree.parent_arc
        self.states, self.index = states, {s: i for i, s in enumerate(states)}
        # states enabling each label and, per state, the (label, target) pair
        # of each arc, read off the input's own arc lists; a parent arc is
        # also its target's `parents` entry, and gives its Parikh vector as
        # the parent's plus that label's unit.  A (state, label) key, as
        # `problems` lists them, on two arcs is a nondeterministic state,
        # and a label no state enables is unused
        n, index, out = len(labels), self.index, lts._out
        enabled_states, successors = self.enabled_states, self.successors = [[] for _ in labels], []
        parents, psi = self.parents, self.psi = [], [[0] * n]
        for i, s in enumerate(states):
            successors.append(arcs := [])
            for arc in out[s]:
                k = lab[arc.label]
                enabled_states[k].append(i)
                arcs.append((k, index[arc.target]))
                if parent.get(arc.target) is arc:
                    parents.append((i, k))
                    psi.append(row := psi[i][:])
                    row[k] += 1
        self.enabled = {i * n + k for i, arcs in enumerate(successors) for k, _ in arcs}
        if len(self.enabled) < len(lts._arcs) or not all(enabled_states):
            _check_synthesis_input(lts)
        # the basis solver serves no property, `pure` and `plain,pure`
        # without locations; the general solver everything else
        located = any(loc is not None for loc in lts._labels.values())
        self.general = located or props.k is not None or (
            props.on or props.tnet or props.cf or (props.plain and not props.pure)
        )
        # each chord closes a cycle with Parikh vector psi(source) + label -
        # psi(target); a region's effects are zero on each distinct nonzero one
        rows = []
        for arc in self.tree.chords:
            row = list(map(sub, psi[index[arc.source]], psi[index[arc.target]]))
            row[lab[arc.label]] += 1
            rows.append(tuple(row))
        self.cycle_rows = [row for row in dict.fromkeys(rows) if any(row)]
        self._systems: Dict[Tuple[bool, bool], RowSystem] = {}
        self._basis: Optional[List[Tuple[int, ...]]] = None

    @property
    def basis(self) -> List[Tuple[int, ...]]:
        """The cycle rows' kernel lattice basis, built when the basis solver
        first reads it (a `cached_property` would slow tiny inputs)."""
        if self._basis is None:
            self._basis = integer_kernel_basis(self.cycle_rows, dim=len(self.labels))
        return self._basis

    # -- generic helpers ---------------------------------------------------

    def problems(self):
        """The event/state problems in order, per state each label it does
        not enable, as keys state * len(labels) + label; and per label the
        (problem, state) index pairs.  Unless language-only, the state pairs
        (i, j), i < j, follow in order, numbered by rank without a list."""
        width = len(self.labels)
        keys: List[int] = []
        by_label: List[List[Tuple[int, int]]] = [[] for _ in self.labels]
        for key in range(len(self.states) * width):
            if key not in self.enabled:
                by_label[key % width].append((len(keys), key // width))
                keys.append(key)
        return keys, by_label

    def problem(self, kind: str, i: int, x: int) -> SeparationProblem:
        if kind == "essp":
            return SeparationProblem(kind, self.states[i], label=self.labels[x])
        return SeparationProblem(kind, self.states[i], other=self.states[x])

    def listed(self, keys: List[int]):
        """Every problem as an object, in order, from the keys of `problems`."""
        for key in keys:
            yield self.problem("essp", *divmod(key, len(self.labels)))
        for i, j in combinations(range(0 if self.props.language else len(self.states)), 2):
            yield self.problem("ssp", i, j)

    def locate(self, problem: SeparationProblem) -> Tuple[str, int, int]:
        """The kind and indices of a problem object, as the solvers take them."""
        if problem.kind == "essp":
            return "essp", self.index[problem.state], self.lab_index[problem.label]
        return "ssp", self.index[problem.state], self.index[problem.other]

    def _replay(self, region: Region) -> List[int]:
        """`check_region` on indices, with its errors in its order: the value
        array of the region, its token count at every state in `states`
        order, replayed over every arc of `successors`.  A state's tree
        parent comes first, so it is valued before its arcs."""
        if region.initial < 0:
            raise InternalError("region has negative initial value")
        states, labels = self.states, self.labels
        weights = list(zip(region.backward, region.effects()))
        values: List[Optional[int]] = [region.initial] + [None] * (len(states) - 1)
        for i, arcs in enumerate(self.successors):
            value = values[i]
            for k, j in arcs:
                b, effect = weights[k]
                if value < b:
                    raise InternalError(f"region blocks {labels[k]} at {states[i]}: {value} < {b}")
                nxt = value + effect
                if nxt < 0:
                    raise InternalError(f"region goes negative at {states[j]}")
                known = values[j]
                if known is None:
                    values[j] = nxt
                elif known != nxt:
                    raise InternalError(f"region value at {states[j]} is path-dependent")
        return values

    def region(self, backward: Tuple[int, ...], forward: Tuple[int, ...]) -> Region:
        """The region with these weights and the smallest initial value that
        keeps every state's count nonnegative and every arc enabled: the
        largest backward weight among the labels a state enables (or 0)
        minus its drift, its tree parent's plus its parent arc's effect."""
        effects = tuple(map(sub, forward, backward))
        drift = [0]
        for u, k in self.parents:
            drift.append(drift[u] + effects[k])
        top = [0] * len(drift)
        for b, group in zip(backward, self.enabled_states):
            if b:
                for i in group:
                    if top[i] < b:
                        top[i] = b
        return Region(self.labels, max(0, max(map(sub, top, drift))), backward, forward)

    def region_from_effects(self, effects: Sequence[int]) -> Region:
        return self.region(
            tuple(max(0, -e) for e in effects), tuple(max(0, e) for e in effects)
        )

    # -- location scopes ---------------------------------------------------

    def _location_scopes(
        self, kind: str, x: int, locations: Dict[str, str]
    ) -> List[Optional[Set[str]]]:
        """Label sets allowed to consume from the region's place.

        Differently-located labels must end up with disjoint presets, so the
        consumers of any one place must stay within a single location; labels
        without a location conflict with nothing and are always allowed.
        With every label its own location, a place has at most one consumer.
        """
        if not locations:
            return [None]
        unlocated = {t for t in self.labels if t not in locations}
        if kind == "essp" and self.labels[x] in locations:
            homes = [locations[self.labels[x]]]
        else:
            homes = list(dict.fromkeys(locations[t] for t in self.labels if t in locations))
        return [unlocated | {t for t in self.labels if locations.get(t) == loc} for loc in homes]

    @cached_property
    def _locations(self) -> Dict[str, str]:
        """The input's label locations, read once per engine."""
        return self.lts.locations

    # -- general solver ----------------------------------------------------

    def solve_general(self, kind: str, i: int, x: int) -> Optional[Tuple[Region, List[int]]]:
        # output-nonbranching regions first, then (under cf with nonnegative
        # effects) the input's locations
        attempts = []
        if self.props.on or self.props.cf:
            own = {t: t for t in self.labels}
            attempts = [(scope, False) for scope in self._location_scopes(kind, x, own)]
        if self.props.cf or not self.props.on:
            located = self._location_scopes(kind, x, self._locations)
            attempts += [(scope, self.props.cf) for scope in located]
        for scope, nonneg in attempts:
            found = self._solve_with(kind, i, x, scope, nonneg)
            if found is not None:
                return found
        return None

    def _effect_row(self, vector: Sequence[int], r0: int = 0) -> List[int]:
        """A row over the columns r0, then b_t and f_t per label: r0 times
        the initial value plus the effect along `vector`."""
        return [r0] + [v for c in vector for v in (-c, c)]

    def _system(self, include_r0: bool, nonneg_effects: bool) -> RowSystem:
        """The rows no problem changes, built once per engine for each
        variant: the cycle rows; with r0, the rows that keep each count,
        r0 + psi(s) . effects, >= 0 and each arc enabled (under k-bounded
        also each count <= k); the t-net rows; the nonnegative effects.
        Every variable is minimised; without r0 its column is fixed at 0
        and weighs nothing."""
        key = (include_r0, nonneg_effects)
        system = self._systems.get(key)
        if system is None:
            rows = [(self._effect_row(row), "=", 0) for row in self.cycle_rows]
            if include_r0:
                at = [self._effect_row(row, 1) for row in self.psi]  # each state's count
                rows += [([-c for c in row], "<=", 0) for row in at]
                for i, arcs in enumerate(self.successors):
                    for k, _ in arcs:
                        row = [-c for c in at[i]]
                        row[1 + 2 * k] += 1
                        rows.append((row, "<=", 0))
                if self.props.k is not None:
                    rows += [(row, "<=", self.props.k) for row in at]
            n = len(self.labels)
            if self.props.tnet:  # the forward weights sum to at most 1, then the backward ones
                rows += [([0] + [0, 1] * n, "<=", 1), ([0] + [1, 0] * n, "<=", 1)]
            if nonneg_effects:  # each effect f_t - b_t >= 0, negated
                rows += [(self._effect_row([-int(k == t) for k in range(n)]), "<=", 0) for t in range(n)]
            system = self._systems[key] = RowSystem(rows, [int(include_r0)] + [1] * 2 * n)
        return system

    def _solve_with(
        self, kind: str, i: int, x: int, scope: Optional[Set[str]], nonneg_effects: bool
    ) -> Optional[Tuple[Region, List[int]]]:
        """One exact integer solve per orientation (two for a state pair; the
        first feasible one wins).  Variables are the initial value and the
        backward/forward weights; with `pure` the event/state inequality is
        the effect form and the solution is afterwards decomposed into its
        canonical side-condition-free weights.  Only the separating row
        and the boxes depend on the problem and orientation; `_system`
        builds the other rows once per engine."""
        props = self.props
        weight_ub = 1 if props.plain else props.k
        include_r0 = kind == "essp" or props.k is not None
        upper = [self._initial_upper_bound(kind, i, weight_ub) if include_r0 else 0]
        for t in self.labels:
            upper += (0 if scope is not None and t not in scope else weight_ub, weight_ub)
        lower = [0] * len(upper)
        system = self._system(include_r0, nonneg_effects)

        if kind == "essp":
            row = self._effect_row(self.psi[i], 1)
            if props.pure:
                row[2 + 2 * x] += 1  # f_t
            row[1 + 2 * x] -= 1  # b_t
            separating = [row]
        else:  # the state's count below the other's, then above it
            low = self._effect_row(map(sub, self.psi[i], self.psi[x]))
            separating = [low, [-c for c in low]]

        for row in separating:
            point = system.solve(lower, upper, [(row, "<=", -1)])
            if point is None:
                continue
            backward, forward = tuple(point[1::2]), tuple(point[2::2])
            if props.pure:
                region = self.region_from_effects(tuple(map(sub, forward, backward)))
            else:
                region = self.region(backward, forward)
            return self._checked(region, kind, i, x)
        return None

    def _initial_upper_bound(self, kind: str, i: int, weight_ub: Optional[int]) -> Optional[int]:
        """Finite box for the initial value whenever the weights are boxed.

        Any solution satisfies r0 <= B(t) - 1 - E(psisep) <= wub - 1 + wub*|psi|,
        so clamping there keeps at least one solution whenever any exists.
        """
        k = self.props.k
        if weight_ub is None or kind != "essp":
            return k
        bound = weight_ub - 1 + weight_ub * sum(self.psi[i])
        return bound if k is None else min(bound, k)

    # -- basis solver --------------------------------------------------------

    def solve_basis(self, kind: str, i: int, x: int) -> Optional[Tuple[Region, List[int]]]:
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
        projection = self._projection
        at = projection[i]
        if kind == "ssp":
            dots = tuple(map(sub, at, projection[x]))
            for vector, dot in zip(self.basis, dots):
                if dot and not (plain and any(abs(e) > 1 for e in vector)):
                    return self._checked(self.region_from_effects(vector), kind, i, x)
            if not (plain and any(dots)):
                return None
            rows = [dots]
        elif pure:
            at = tuple([a + v[x] for a, v in zip(at, self.basis)])
            rows = [tuple(map(sub, at, other)) for other in projection]
        else:
            rows = [tuple(map(sub, at, projection[e])) for e in self.enabled_states[x]]
        effects = self._basis_effects(rows, plain)
        if effects is None:
            return None
        region = self.region_from_effects(effects)
        if kind == "essp" and not pure:
            value = region.initial + _dot(effects, self.psi[i])
            raise_by = max(0, value - region.backward[x] + 1)
            if raise_by:
                backward = list(region.backward)
                forward = list(region.forward)
                backward[x] += raise_by
                forward[x] += raise_by
                region = Region(self.labels, region.initial, tuple(backward), tuple(forward))
        return self._checked(region, kind, i, x)

    @cached_property
    def _projection(self) -> List[Tuple[int, ...]]:
        """psi(s) projected onto the basis, per state index, computed on
        first use down the tree, as psi is: a state's projection is its
        parent's plus the basis column of its parent arc's label.
        Projection is linear: a path difference psi(s) - psi(e) projects to
        the difference of the two projections."""
        columns = list(zip(*self.basis))
        projection = [(0,) * len(self.basis)]
        for u, k in self.parents:
            projection.append(tuple(map(add, projection[u], columns[k])))
        return projection

    def _basis_effects(self, rows, plain: bool) -> Optional[Tuple[int, ...]]:
        """Effects of an integer x with every row's effect at most -1 and,
        under `plain`, every effect in [-1, 1]; None when there is none.

        The rows come projected onto the basis (row p stands for the effect
        constraint p . x <= -1); a repeated row is the same constraint, so
        only distinct ones are kept.  Under `plain` they go into one boxed
        system for branch and bound.  Otherwise the system is a cone, and
        one `solve_cone` call on its Farkas dual returns a checked x or a
        checked certificate that there is none.  The dual has one tableau
        row per basis coordinate that some projected row touches, plus
        one; x is 0 at every other coordinate.
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
        rows = [(list(p), "<=", -1) for p in projected]
        for effects in zip(*self.basis):  # none for a label no vector moves
            if any(effects):
                rows += [(list(effects), "<=", 1), ([-c for c in effects], "<=", 1)]
        return RowSystem(rows).solve([-box for box in self._boxes], self._boxes)

    @cached_property
    def _boxes(self) -> List[int]:
        return _coefficient_boxes(self.basis)

    def _checked(self, region: Region, kind: str, i: int, x: int) -> Tuple[Region, List[int]]:
        """Every solver's exit: the region must be valid, pure under `pure`,
        and solve its problem.  Returns it with its value array, the values
        of its one replay."""
        values = self._replay(region)
        if self.props.pure and not region.is_pure():
            raise InternalError("solver produced an impure region")
        if not (values[i] < region.backward[x] if kind == "essp" else values[i] != values[x]):
            raise InternalError(f"solver failed to separate {self.problem(kind, i, x)}")
        return region, values

    # -- dispatch ------------------------------------------------------------

    def solve(self, kind: str, i: int, x: int) -> Optional[Tuple[Region, List[int]]]:
        """The solver `__init__` picked for this input and property set: a
        region that solves the problem, with its value array, or None."""
        return (self.solve_general if self.general else self.solve_basis)(kind, i, x)


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
    m = len(basis)
    # solve gram * X = basis by Gauss-Jordan on [gram | basis]; gram is invertible
    rows = [[Fraction(_dot(u, v)) for v in basis] + list(map(Fraction, u)) for u in basis]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = Fraction(1) / rows[col][col]
        rows[col] = [v * inv for v in rows[col]]
        for r in range(m):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [v - factor * p for v, p in zip(rows[r], rows[col])]
    return [ceil(sum(map(abs, row[m:]))) for row in rows]


# ---------------------------------------------------------------------------
# Public solving entry point and the separation pass.
# ---------------------------------------------------------------------------


def solve_separation(
    lts: Lts, problem: SeparationProblem, props: Optional[PropertySet] = None
) -> Optional[Region]:
    """A region of the requested properties that solves one separation
    problem, or None when there is none."""
    engine = _Engine(lts, props or PropertySet())
    found = engine.solve(*engine.locate(problem))
    return None if found is None else found[0]


def minimize_regions(
    engine: _Engine, found: Sequence[Tuple[Region, List[int], Set[int]]], keys: List[int]
) -> List[Region]:
    """Heuristic place reduction: a region uniquely solving some problem is
    required; problems covered by required regions are discarded; remaining
    problems, in order, greedily take the lowest-indexed region that solves
    them.  `found` holds each region with its value array and the indices
    into `keys` of the event/state problems it solves; the kept regions
    come back in that order.

    `twos` collects the event/state problems solved at least twice.  A
    state pair is read off blocks of equal values: region j alone solves
    it iff its states share a block under every other region and j splits
    it.  Uncovered pairs are walked in (i, j) order inside the blocks."""
    m = 0 if engine.props.language else len(engine.states)  # states in pairs
    ones, twos = set(), set()
    prefix = [[0] * m]  # the blocks of the regions before j, for each j
    for _, values, problem_set in found:
        twos |= ones & problem_set
        ones |= problem_set
        prefix.append(_refine(prefix[-1], values))
    keep, suffix = [], [0] * m
    for j in reversed(range(len(found))):
        others = _refine(prefix[j], suffix)
        if found[j][2] - twos or _refine(others, found[j][1]) != others:
            keep.append(j)
        suffix = _refine(suffix, found[j][1])
    covered = set().union(*[found[j][2] for j in keep])
    for p in (p for p in range(len(keys)) if p not in covered):
        j = next((j for j, (_, _, problem_set) in enumerate(found) if p in problem_set), None)
        if j is None:
            problem = engine.problem("essp", *divmod(keys[p], len(engine.labels)))
            raise InternalError(f"problem {problem} solved by no region")
        keep.append(j)
        covered |= found[j][2]
    block = prefix[0]
    for j in keep:
        block = _refine(block, found[j][1])
    sizes = Counter(block)
    for i in range(m):  # every pair of an earlier state is split: i is first in its block
        while sizes[block[i]] > 1:
            x = block.index(block[i], i + 1)
            j = next((j for j, (_, values, _) in enumerate(found) if values[i] != values[x]), None)
            if j is None:
                raise InternalError(f"problem {engine.problem('ssp', i, x)} solved by no region")
            keep.append(j)
            block = _refine(block, found[j][1])
            sizes = Counter(block)
    keep.sort()
    return [found[j][0] for j in keep]


def _refine(block: Sequence[int], values: Sequence[int]) -> List[int]:
    """The blocks split by the values (read up to the blocks' length), with
    ids in order of first appearance, so equal partitions give equal lists."""
    ids: Dict[Tuple[int, int], int] = {}
    return [ids.setdefault(key, len(ids)) for key in zip(block, values)]


def _build_net(lts: Lts, regions: Sequence[Region], name: str = "") -> PetriNet:
    net = PetriNet(name=name, description="")
    locations = lts.locations
    for i, region in enumerate(regions):
        net.add_place(f"p{i}", tokens=region.initial)
    for t in lts.labels:
        net.add_transition(t, location=locations.get(t))
    for i, region in enumerate(regions):
        for t, b, f in zip(region.labels, region.backward, region.forward):
            if b:
                net.add_flow(f"p{i}", t, b)
            if f:
                net.add_flow(t, f"p{i}", f)
    return net


def _verify_success(engine: _Engine, net: PetriNet) -> None:
    """Raise InternalError unless the net's reachability graph is isomorphic
    to the engine's input (under `language`, has its language) and the net
    has every requested property.  A matching graph has no more states than
    the input, and the input is deterministic, so one breadth-first walk of
    the input matches them: each state's labels must be those of its graph
    state's arcs, one arc each, each arc must lead to its target's graph
    state, and distinct states must get distinct graph states.  Under
    `language` the input is a tree, and equal labels suffice."""
    props, states, labels = engine.props, engine.states, engine.labels
    what = "is not language-equivalent" if props.language else "does not solve the input"
    try:
        graph = reachability_graph(net, state_limit=len(states))
    except StateLimitExceededError:
        raise InternalError(f"synthesized net {what}: it reaches more markings than the input has states")
    matched: List[Optional[str]] = [graph.lts.initial] + [None] * (len(states) - 1)
    first = {matched[0]: 0}  # the first state matched to each graph state
    for i, arcs in enumerate(engine.successors):
        out = graph.lts.arcs_from(matched[i])
        target = {arc.label: arc.target for arc in out}
        if len(target) < len(out) or target.keys() != {labels[k] for k, _ in arcs}:
            raise InternalError(f"synthesized net {what}: its enabled labels differ at {states[i]}")
        for k, j in arcs:
            reached = target[labels[k]]
            if matched[j] is None:
                if not props.language and first.setdefault(reached, j) != j:
                    raise InternalError(f"synthesized net {what}: {states[j]} repeats a marking")
                matched[j] = reached
            elif matched[j] != reached:
                raise InternalError(f"synthesized net {what}: {states[j]} is reached with two markings")
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
    if props.k is not None and any(c > props.k for m in graph.markings.values() for c in m.counts):
        raise InternalError(f"requested {props.k}-bounded, bound exceeded")


def _separation_pass(engine: _Engine) -> Tuple[
    List[int], List[Tuple[Region, List[int], Set[int]]], List[Tuple[str, int, int]]
]:
    """Solve the engine's problems in order, skipping those that a region
    found earlier solves; returns the event/state problem keys, each found
    region with its value array and the indices of the event/state
    problems it solves, and the unsolvable (kind, i, x).

    Each found region comes with the value array of its one replay, read
    at state indices: it solves the (problem, state) pairs of each label
    with backward weight b > 0 at states valued below b, and the state
    pairs whose values differ.  A pair is solved once its states fall in
    different blocks: two states share one while every found region values
    them alike.  Past `petri.DEFAULT_STATE_LIMIT` failed pairs, read at call
    time, it raises StateLimitExceededError."""
    keys, by_label = engine.problems()
    m = 0 if engine.props.language else len(engine.states)  # states in pairs
    essp = [(k, group) for k, group in enumerate(by_label) if group]
    found: List[Tuple[Region, List[int], Set[int]]] = []
    covered: Set[int] = set()
    failed: List[Tuple[str, int, int]] = []
    block = [0] * m  # the found regions' blocks
    limit, pairs_failed = _petri.DEFAULT_STATE_LIMIT, 0

    def unsolved():  # lazy, so each check sees every region found before it
        for p, key in enumerate(keys):
            if p not in covered:
                yield ("essp", *divmod(key, len(engine.labels)))
        for i, j in combinations(range(m), 2):
            if block[i] == block[j]:
                yield "ssp", i, j

    for problem in unsolved():
        solved = engine.solve(*problem)
        if solved is None:
            if problem[0] == "ssp":
                pairs_failed += 1
                if pairs_failed > limit:
                    raise _too_many_pairs(limit)
            failed.append(problem)
            continue
        region, values = solved
        b = region.backward
        problem_set = {p for k, group in essp if b[k] for p, s in group if values[s] < b[k]}
        covered.update(problem_set)
        block[:] = _refine(block, values)
        found.append((region, values, problem_set))
    return keys, found, failed


def _too_many_pairs(limit: int) -> StateLimitExceededError:
    """The error for a report that would list more failed state pairs than
    the budget, `petri.DEFAULT_STATE_LIMIT` read at call time, allows."""
    return StateLimitExceededError(f"more than {limit} state pairs fail to separate")


def _run_engine(engine: _Engine) -> SynthesisOutcome:
    """Run the separation pass.  On failure, report the unsolvable problems
    with every region found; on success, keep the regions that
    `minimize_regions` picks, build their net and verify it.

    If the cycle rows span every label, every region's effects are 0,
    whatever the property set, so its count is the same at every state and
    it solves no problem: the report lists every problem, in the pass's
    order, and nothing is solved."""
    lts, props, states, labels = engine.lts, engine.props, engine.states, engine.labels
    outcome = SynthesisOutcome(success=False, properties=props, lts=lts)
    if _full_column_rank(engine.cycle_rows, len(labels)):
        keys, found = engine.problems()[0], []
        for key in keys:
            i, x = divmod(key, len(labels))
            outcome.failed_essp.setdefault(labels[x], []).append(states[i])
        if not props.language:
            if len(states) * (len(states) - 1) // 2 > _petri.DEFAULT_STATE_LIMIT:
                raise _too_many_pairs(_petri.DEFAULT_STATE_LIMIT)
            outcome.failed_ssp = list(combinations(states, 2))
    else:
        keys, found, failed = _separation_pass(engine)
        for kind, i, x in failed:
            if kind == "ssp":
                outcome.failed_ssp.append((states[i], states[x]))
            else:
                outcome.failed_essp.setdefault(labels[x], []).append(states[i])
    if outcome.failed_ssp or outcome.failed_essp:
        outcome.regions = [region for region, _, _ in found]
        return outcome

    minimized = minimize_regions(engine, found, keys) if found else []
    name = f"synthesized from {lts.name}" if lts.name else "synthesized"
    net = _build_net(lts, minimized, name=name)
    outcome.success = True
    outcome.regions = minimized
    outcome.net = net
    _verify_success(engine, net)
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
    return _run_engine(_Engine(lts, props))  # checks the input before listing problems


def _is_acyclic(lts: Lts) -> bool:
    """Whether a totally reachable input has no cycle: no self-loop, and no
    strongly connected component of more than one state."""
    return all(arc.source != arc.target for arc in lts.arcs) and all(
        len(component) == 1 for component in strongly_connected_components(lts)
    )


def _unfold_to_tree(lts: Lts) -> Tuple[Lts, Dict[str, str]]:
    """Tree unfolding of an acyclic system: one fresh state per path, named
    by `lts.state_name`, and the input state each tree state copies.

    Reconvergent states would otherwise force both paths onto one token
    count, a constraint language-only synthesis must not impose.  The tree
    can be exponentially larger than the input (a chain of k diamonds has
    2^k paths), so past DEFAULT_STATE_LIMIT states it raises
    StateLimitExceededError.
    """
    limit, labels = _petri.DEFAULT_STATE_LIMIT, set(lts.labels)
    tree = Lts(name=lts.name, description=lts.description)
    root = state_name(0, labels)
    tree.add_state(root, initial=True)
    for t in lts.labels:
        tree.add_label(t, location=lts.location(t))
    queue = deque([(root, lts.initial)])
    origin = {root: lts.initial}
    count = 1
    while queue:
        node, original = queue.popleft()
        for arc in lts.arcs_from(original):
            if count >= limit:
                raise StateLimitExceededError(
                    f"the tree unfolding has more than {limit} states"
                )
            fresh = state_name(count, labels)
            count += 1
            tree.add_state(fresh)
            tree.add_arc(node, arc.label, fresh)
            origin[fresh] = arc.target
            queue.append((fresh, arc.target))
    return tree, origin


def _input_states(order: Sequence[str], origin: Dict[str, str], states: Sequence[str]) -> List[str]:
    """The input states that the given tree states copy, once each, in
    `order`, the input's breadth-first order (the order synthesis reports
    states in, which the tree's order of first copies need not follow)."""
    hit = {origin[s] for s in states}
    return [s for s in order if s in hit]


def synthesize_language_only(lts: Lts, props: Optional[PropertySet] = None) -> SynthesisOutcome:
    """Synthesis up to prefix-language equivalence; only acyclic inputs are
    supported (cyclic ones would need an unfolding construction that is out
    of scope here).  State separation is not enforced, so only event/state
    problems are built.  The engine's walk checks every input; a tree (every
    word) is solved as it is, any other on its tree unfolding, and failures
    name the input states in the walk's order."""
    props = replace(props) if props is not None else PropertySet()
    props.language = True
    engine = _Engine(lts, props)  # checks the input on its walk
    if not engine.tree.chords:  # every arc a tree arc: the input is a tree
        return _run_engine(engine)
    if not _is_acyclic(lts):
        raise UnsupportedInputError("language-only synthesis supports acyclic inputs only")
    tree, origin = _unfold_to_tree(lts)
    outcome = _run_engine(_Engine(tree, props))
    outcome.lts, outcome.unfolding = lts, (tree, origin)
    for label, states in outcome.failed_essp.items():
        outcome.failed_essp[label] = _input_states(engine.states, origin, states)
    return outcome


def word_lts(word: Sequence[str]) -> Lts:
    """The linear system of a word: states s0..sn, arc s(i-1) -a(i)-> s(i),
    each named by `lts.state_name` (ss1 where a letter is s1)."""
    letters = set(word)
    names = [state_name(i, letters) for i in range(len(word) + 1)]
    return Lts.from_data(names[0], zip(names, word, names[1:]), name="word")


def word_synthesize(props: Optional[PropertySet], word: Sequence[str]) -> SynthesisOutcome:
    """Synthesize a net whose firing sequences are exactly the prefixes of
    the word.  Failures are rendered as the word with each spuriously
    enabled letter bracketed before the position where it appears."""
    props = replace(props) if props is not None else PropertySet()
    props.language = True
    word = list(word)
    lts = word_lts(word)
    if not word:
        return SynthesisOutcome(success=True, properties=props, net=PetriNet(name="empty"), lts=lts)
    outcome = synthesize_language_only(lts, props)
    if not outcome.success:
        position = {state: i for i, state in enumerate(lts.states)}
        failures_at: Dict[int, List[str]] = {}
        for label, states in outcome.failed_essp.items():
            for state in states:
                failures_at.setdefault(position[state], []).append(label)
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
        tree, origin = outcome.unfolding or (outcome.lts, None)
        order = None if origin is None else reachable_states(outcome.lts)
        for region in outcome.regions:
            lines.append(f"{region}:")
            values = check_region(tree, region)
            for label, b in zip(region.labels, region.backward):
                disabled = [s for s, value in values.items() if value < b]
                if origin is not None:
                    disabled = _input_states(order, origin, disabled)
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
