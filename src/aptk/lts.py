"""Labelled transition systems and their behavioural analyses.

States, labels and arcs keep their insertion order; every analysis iterates
in that order so witnesses and outputs are reproducible run to run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .common import AptError, Check, CycleCapExceededError, PreconditionError

DEFAULT_CYCLE_CAP = 10 ** 6


class ParikhVector:
    """Per-label occurrence counts; absent labels count as zero."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Optional[Dict[str, int]] = None):
        self._counts = {t: n for t, n in (counts or {}).items() if n != 0}

    def get(self, label: str) -> int:
        return self._counts.get(label, 0)

    def items(self):
        return self._counts.items()

    def support(self) -> frozenset:
        return frozenset(self._counts)

    def added(self, label: str, n: int = 1) -> "ParikhVector":
        counts = dict(self._counts)
        counts[label] = counts.get(label, 0) + n
        return ParikhVector(counts)

    def __add__(self, other: "ParikhVector") -> "ParikhVector":
        counts = dict(self._counts)
        for t, n in other.items():
            counts[t] = counts.get(t, 0) + n
        return ParikhVector(counts)

    def __sub__(self, other: "ParikhVector") -> "ParikhVector":
        counts = dict(self._counts)
        for t, n in other.items():
            counts[t] = counts.get(t, 0) - n
        return ParikhVector(counts)

    def __le__(self, other: "ParikhVector") -> bool:
        return all(n <= other.get(t) for t, n in self._counts.items())

    def strictly_below(self, other: "ParikhVector") -> bool:
        return self <= other and self != other

    def __eq__(self, other) -> bool:
        return isinstance(other, ParikhVector) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def as_tuple(self, labels: Sequence[str]) -> Tuple[int, ...]:
        return tuple(self._counts.get(t, 0) for t in labels)

    def __repr__(self) -> str:
        inner = ", ".join(f"{t}:{n}" for t, n in sorted(self._counts.items()))
        return f"ParikhVector({{{inner}}})"


@dataclass(frozen=True)
class Arc:
    source: str
    label: str
    target: str

    def __repr__(self) -> str:
        return f"{self.source} --{self.label}--> {self.target}"


class Lts:
    """Finite labelled transition system with a designated initial state.

    Built incrementally via add_state/add_label/add_arc; analyses treat a
    built instance as read-only, so it can be shared freely.
    """

    def __init__(self, name: str = "", description: str = ""):
        self.name = name
        self.description = description
        self._states: Dict[str, None] = {}
        self._labels: Dict[str, Optional[str]] = {}
        self._arcs: List[Arc] = []
        self._arc_set: set = set()
        self._initial: Optional[str] = None
        self._out: Dict[str, List[Arc]] = {}
        self._in: Dict[str, List[Arc]] = {}

    # -- construction -----------------------------------------------------

    def add_state(self, name: str, initial: bool = False) -> None:
        if name in self._states:
            raise AptError(f"duplicate state {name!r}")
        if name in self._labels:
            raise AptError(f"{name!r} is already a label; states and labels must be disjoint")
        self._states[name] = None
        self._out[name] = []
        self._in[name] = []
        if initial:
            if self._initial is not None:
                raise AptError(f"initial state already set to {self._initial!r}")
            self._initial = name

    def add_label(self, name: str, location: Optional[str] = None) -> None:
        if name in self._labels:
            raise AptError(f"duplicate label {name!r}")
        if name in self._states:
            raise AptError(f"{name!r} is already a state; states and labels must be disjoint")
        self._labels[name] = location

    def add_arc(self, source: str, label: str, target: str) -> None:
        for state in (source, target):
            if state not in self._states:
                raise AptError(f"unknown state {state!r}")
        if label not in self._labels:
            raise AptError(f"unknown label {label!r}")
        arc = Arc(source, label, target)
        if arc in self._arc_set:
            return
        self._arc_set.add(arc)
        self._arcs.append(arc)
        self._out[source].append(arc)
        self._in[target].append(arc)

    @classmethod
    def from_data(
        cls,
        initial: str,
        arcs: Iterable[Tuple[str, str, str]],
        states: Iterable[str] = (),
        labels: Iterable[str] = (),
        locations: Optional[Dict[str, str]] = None,
        name: str = "",
    ) -> "Lts":
        """Convenience constructor; declares states/labels in first-seen order."""
        arcs = list(arcs)
        lts = cls(name=name)
        seen_states: Dict[str, None] = {initial: None}
        seen_labels: Dict[str, None] = {}
        for s, t, s2 in arcs:
            seen_states.setdefault(s, None)
            seen_states.setdefault(s2, None)
            seen_labels.setdefault(t, None)
        for s in states:
            seen_states.setdefault(s, None)
        for t in labels:
            seen_labels.setdefault(t, None)
        for s in seen_states:
            lts.add_state(s, initial=(s == initial))
        locations = locations or {}
        for t in seen_labels:
            lts.add_label(t, location=locations.get(t))
        for arc in arcs:
            lts.add_arc(*arc)
        return lts

    # -- read access ------------------------------------------------------

    @property
    def states(self) -> Tuple[str, ...]:
        return tuple(self._states)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self._labels)

    @property
    def arcs(self) -> Tuple[Arc, ...]:
        return tuple(self._arcs)

    @property
    def initial(self) -> str:
        if self._initial is None:
            raise AptError("no initial state was declared")
        return self._initial

    @property
    def locations(self) -> Dict[str, str]:
        return {t: loc for t, loc in self._labels.items() if loc is not None}

    def location(self, label: str) -> Optional[str]:
        return self._labels[label]

    def arcs_from(self, state: str) -> Tuple[Arc, ...]:
        return tuple(self._out[state])

    def arcs_to(self, state: str) -> Tuple[Arc, ...]:
        return tuple(self._in[state])

    def successors(self, state: str, label: str) -> Tuple[str, ...]:
        return tuple(a.target for a in self._out[state] if a.label == label)

    def enabled_labels(self, state: str) -> Tuple[str, ...]:
        present = {a.label for a in self._out[state]}
        return tuple(t for t in self._labels if t in present)

    def __repr__(self) -> str:
        return (
            f"Lts({len(self._states)} states, {len(self._labels)} labels, "
            f"{len(self._arcs)} arcs)"
        )


@dataclass
class SpanningTree:
    """BFS tree of the reachable part rooted at the initial state."""

    parent_arc: Dict[str, Arc] = field(default_factory=dict)
    path_parikh: Dict[str, ParikhVector] = field(default_factory=dict)
    chords: List[Arc] = field(default_factory=list)
    order: List[str] = field(default_factory=list)


def reachable_states(lts: Lts) -> List[str]:
    """Forward closure of the initial state, in BFS discovery order."""
    seen = {lts.initial: None}
    queue = deque([lts.initial])
    while queue:
        state = queue.popleft()
        for arc in lts.arcs_from(state):
            if arc.target not in seen:
                seen[arc.target] = None
                queue.append(arc.target)
    return list(seen)


def is_totally_reachable(lts: Lts) -> Check:
    """All states reachable and every label used on an arc from a reachable state."""
    reach = set(reachable_states(lts))
    for state in lts.states:
        if state not in reach:
            return Check(False, state, f"state {state} is unreachable")
    used = {a.label for s in reach for a in lts.arcs_from(s)}
    for label in lts.labels:
        if label not in used:
            return Check(False, label, f"label {label} occurs on no arc")
    return Check(True)


def is_deterministic(lts: Lts) -> Check:
    for state in reachable_states(lts):
        by_label: Dict[str, str] = {}
        for arc in lts.arcs_from(state):
            other = by_label.get(arc.label)
            if other is not None and other != arc.target:
                return Check(
                    False,
                    (state, arc.label, other, arc.target),
                    f"state {state} has {arc.label}-arcs to both {other} and {arc.target}",
                )
            by_label[arc.label] = arc.target
    return Check(True)


def is_persistent(lts: Lts) -> Check:
    """Whether enabled labels can never disable each other.

    Only defined on deterministic systems (otherwise the diamond endpoint is
    ambiguous); nondeterministic input raises PreconditionError.
    """
    det = is_deterministic(lts)
    if not det:
        raise PreconditionError(f"persistence needs a deterministic input: {det.detail}")
    for state in reachable_states(lts):
        enabled = lts.enabled_labels(state)
        for i, t in enumerate(enabled):
            for u in enabled[i + 1 :]:
                via_t = lts.successors(state, t)[0]
                via_u = lts.successors(state, u)[0]
                r_tu = lts.successors(via_t, u)
                r_ut = lts.successors(via_u, t)
                if not r_tu or not r_ut or r_tu[0] != r_ut[0]:
                    return Check(
                        False,
                        (state, t, u),
                        f"no common state completes the {t}/{u} diamond at {state}",
                    )
    return Check(True)


def is_reversible(lts: Lts) -> Check:
    """Whether the initial state stays reachable from every reachable state."""
    reach = reachable_states(lts)
    back: Dict[str, None] = {lts.initial: None}
    queue = deque([lts.initial])
    reach_set = set(reach)
    while queue:
        state = queue.popleft()
        for arc in lts.arcs_to(state):
            if arc.source in reach_set and arc.source not in back:
                back[arc.source] = None
                queue.append(arc.source)
    for state in reach:
        if state not in back:
            return Check(False, state, f"initial state not reachable from {state}")
    return Check(True)


def strongly_connected_components(lts: Lts) -> List[List[str]]:
    """Tarjan SCCs; components ordered by their earliest-declared state."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    stack: List[str] = []
    counter = [0]
    components: List[List[str]] = []
    state_pos = {s: i for i, s in enumerate(lts.states)}

    for root in lts.states:
        if root in index:
            continue
        work = [(root, iter(lts.arcs_from(root)))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            state, it = work[-1]
            advanced = False
            for arc in it:
                w = arc.target
                if w not in index:
                    index[w] = lowlink[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(lts.arcs_from(w))))
                    advanced = True
                    break
                if on_stack.get(w):
                    lowlink[state] = min(lowlink[state], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[state])
            if lowlink[state] == index[state]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    component.append(w)
                    if w == state:
                        break
                component.sort(key=state_pos.__getitem__)
                components.append(component)
    components.sort(key=lambda c: state_pos[c[0]])
    return components


def weakly_connected_components(lts: Lts) -> List[List[str]]:
    state_pos = {s: i for i, s in enumerate(lts.states)}
    seen: Dict[str, None] = {}
    components: List[List[str]] = []
    for root in lts.states:
        if root in seen:
            continue
        component = [root]
        seen[root] = None
        queue = deque([root])
        while queue:
            state = queue.popleft()
            neighbours = [a.target for a in lts.arcs_from(state)]
            neighbours += [a.source for a in lts.arcs_to(state)]
            for w in neighbours:
                if w not in seen:
                    seen[w] = None
                    component.append(w)
                    queue.append(w)
        component.sort(key=state_pos.__getitem__)
        components.append(component)
    components.sort(key=lambda c: state_pos[c[0]])
    return components


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


def _elementary_cycles(lts: Lts, cap: int):
    """Yield Parikh vectors of all simple cycles in the reachable part.

    Cycles are enumerated per anchor state using only states that come later
    in discovery order, so each cycle is produced exactly once (up to
    rotation).  Parallel arcs with different labels give distinct cycles.
    """
    reach = reachable_states(lts)
    pos = {s: i for i, s in enumerate(reach)}
    produced = 0
    for root in reach:
        root_pos = pos[root]
        # path holds the current simple path from root; stack drives the DFS
        stack: List[Tuple[str, Iterable[Arc]]] = [(root, iter(lts.arcs_from(root)))]
        on_path = {root}
        labels: List[str] = []
        while stack:
            state, it = stack[-1]
            for arc in it:
                tgt = arc.target
                if pos.get(tgt, -1) < root_pos:
                    continue
                if tgt == root:
                    produced += 1
                    if produced > cap:
                        raise CycleCapExceededError(
                            f"more than {cap} elementary cycles; raise the cap to continue"
                        )
                    counts: Dict[str, int] = {}
                    for lab in labels + [arc.label]:
                        counts[lab] = counts.get(lab, 0) + 1
                    yield ParikhVector(counts)
                elif tgt not in on_path:
                    on_path.add(tgt)
                    labels.append(arc.label)
                    stack.append((tgt, iter(lts.arcs_from(tgt))))
                    break
            else:
                stack.pop()
                if labels:
                    labels.pop()
                on_path.discard(state)


def small_cycle_parikh_vectors(lts: Lts, cycle_cap: int = DEFAULT_CYCLE_CAP) -> List[ParikhVector]:
    """Parikh vectors of small cycles: the minimal elements, under the strict
    componentwise order, among Parikh vectors of all simple cycles reachable
    from the initial state.

    Every cycle decomposes into simple cycles through its own states, so the
    minimal vectors are attained on simple cycles.
    """
    vectors: List[ParikhVector] = []
    for pv in _elementary_cycles(lts, cycle_cap):
        if pv not in vectors:
            vectors.append(pv)
    minimal = [
        pv
        for pv in vectors
        if not any(other.strictly_below(pv) for other in vectors)
    ]
    return minimal


def cycles_same_pv(lts: Lts, cycle_cap: int = DEFAULT_CYCLE_CAP) -> bool:
    """Strong small cycle property: all small cycles share one Parikh vector."""
    return len(small_cycle_parikh_vectors(lts, cycle_cap)) <= 1


def weak_small_cycle_property(lts: Lts, cycle_cap: int = DEFAULT_CYCLE_CAP) -> bool:
    """Distinct small-cycle Parikh vectors must have pairwise disjoint supports."""
    vectors = small_cycle_parikh_vectors(lts, cycle_cap)
    for i, pv in enumerate(vectors):
        for other in vectors[i + 1 :]:
            if pv.support() & other.support():
                return False
    return True


def _signature(lts: Lts, state: str) -> Tuple:
    out_labels = tuple(sorted({a.label for a in lts.arcs_from(state)}))
    in_labels = tuple(sorted({a.label for a in lts.arcs_to(state)}))
    return (len(lts.arcs_from(state)), len(lts.arcs_to(state)), out_labels, in_labels)


def isomorphic(l1: Lts, l2: Lts) -> Check:
    """State bijection fixing the initial states and preserving labelled arcs.

    Labels are matched by identity.  Deterministic totally reachable inputs
    are compared by a simultaneous walk; otherwise a signature-pruned
    backtracking search runs over the full state sets.
    """
    if set(l1.labels) != set(l2.labels):
        return Check(False, None, "label sets differ")
    if len(l1.states) != len(l2.states):
        return Check(False, None, "state counts differ")

    if (
        is_deterministic(l1)
        and is_deterministic(l2)
        and is_totally_reachable(l1)
        and is_totally_reachable(l2)
    ):
        mapping = {l1.initial: l2.initial}
        queue = deque([l1.initial])
        while queue:
            s1 = queue.popleft()
            s2 = mapping[s1]
            if set(l1.enabled_labels(s1)) != set(l2.enabled_labels(s2)):
                return Check(False, None, f"enabled labels differ at {s1}/{s2}")
            for arc in l1.arcs_from(s1):
                t2 = l2.successors(s2, arc.label)[0]
                known = mapping.get(arc.target)
                if known is None:
                    if t2 in mapping.values():
                        return Check(False, None, "walk is not injective")
                    mapping[arc.target] = t2
                    queue.append(arc.target)
                elif known != t2:
                    return Check(False, None, f"targets disagree at {s1}[{arc.label}>")
        if len(mapping) != len(l1.states):
            return Check(False, None, "walk did not cover all states")
        return Check(True, mapping)

    # Backtracking over states in BFS-then-declaration order.
    order = reachable_states(l1)
    seen = set(order)
    order += [s for s in l1.states if s not in seen]
    sig1 = {s: _signature(l1, s) for s in l1.states}
    sig2 = {s: _signature(l2, s) for s in l2.states}

    arcs1 = set((a.source, a.label, a.target) for a in l1.arcs)
    arcs2 = set((a.source, a.label, a.target) for a in l2.arcs)
    if len(arcs1) != len(arcs2):
        return Check(False, None, "arc counts differ")

    def consistent(mapping: Dict[str, str], s1: str, s2: str) -> bool:
        for arc in l1.arcs_from(s1):
            other = mapping.get(arc.target)
            if other is not None and (s2, arc.label, other) not in arcs2:
                return False
        for arc in l1.arcs_to(s1):
            other = mapping.get(arc.source)
            if other is not None and (other, arc.label, s2) not in arcs2:
                return False
        # mirror direction: mapped arcs of l2 touching s2 must exist in l1
        inverse = {v: k for k, v in mapping.items()}
        for arc in l2.arcs_from(s2):
            other = inverse.get(arc.target)
            if other is not None and (s1, arc.label, other) not in arcs1:
                return False
        for arc in l2.arcs_to(s2):
            other = inverse.get(arc.source)
            if other is not None and (other, arc.label, s1) not in arcs1:
                return False
        return True

    used: set = set()
    mapping: Dict[str, str] = {}

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        s1 = order[i]
        if s1 == l1.initial:
            candidates = [l2.initial]
        else:
            candidates = [s for s in l2.states if s != l2.initial]
        for s2 in candidates:
            if s2 in used or sig1[s1] != sig2[s2]:
                continue
            if not consistent(mapping, s1, s2):
                continue
            mapping[s1] = s2
            used.add(s2)
            if backtrack(i + 1):
                return True
            del mapping[s1]
            used.remove(s2)
        return False

    if backtrack(0):
        return Check(True, dict(mapping))
    return Check(False, None, "no arc-preserving bijection exists")


def bisimilar(l1: Lts, l2: Lts) -> Check:
    """Coarsest strong bisimulation over the disjoint union, by partition
    refinement; the systems are bisimilar iff the initial states share a block.
    """
    states = [(0, s) for s in l1.states] + [(1, s) for s in l2.states]
    succ: Dict[Tuple[int, str], List[Tuple[str, Tuple[int, str]]]] = {}
    for side, lts in ((0, l1), (1, l2)):
        for s in lts.states:
            succ[(side, s)] = [(a.label, (side, a.target)) for a in lts.arcs_from(s)]

    block: Dict[Tuple[int, str], int] = {s: 0 for s in states}
    while True:
        signatures: Dict[Tuple[int, str], frozenset] = {
            s: frozenset((label, block[t]) for label, t in succ[s]) for s in states
        }
        remap: Dict[Tuple[int, frozenset], int] = {}
        new_block: Dict[Tuple[int, str], int] = {}
        for s in states:
            key = (block[s], signatures[s])
            if key not in remap:
                remap[key] = len(remap)
            new_block[s] = remap[key]
        if new_block == block:
            break
        block = new_block

    relation = [
        (s1, s2)
        for s1 in l1.states
        for s2 in l2.states
        if block[(0, s1)] == block[(1, s2)]
    ]
    ok = block[(0, l1.initial)] == block[(1, l2.initial)]
    detail = "" if ok else "initial states are not bisimilar"
    return Check(ok, relation if ok else None, detail)


def language_equivalent(l1: Lts, l2: Lts) -> Check:
    """Prefix-language equality, via subset construction on the reachable parts.

    On inequality the witness is a shortest distinguishing word (enabled in
    exactly one of the systems).
    """
    labels = list(dict.fromkeys(l1.labels + l2.labels))

    def step(lts: Lts, states: frozenset, label: str) -> frozenset:
        out = set()
        for s in states:
            out.update(lts.successors(s, label))
        return frozenset(out)

    start = (frozenset({l1.initial}), frozenset({l2.initial}))
    parents: Dict[Tuple[frozenset, frozenset], Tuple[Tuple[frozenset, frozenset], str]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        set1, set2 = pair
        for label in labels:
            next1 = step(l1, set1, label)
            next2 = step(l2, set2, label)
            if bool(next1) != bool(next2):
                word = [label]
                cursor = pair
                while cursor in parents:
                    cursor, lab = parents[cursor]
                    word.append(lab)
                word.reverse()
                side = "first" if next1 else "second"
                return Check(False, word, f"word enabled only in the {side} system")
            if next1 and (next1, next2) not in seen:
                seen.add((next1, next2))
                parents[(next1, next2)] = (pair, label)
                queue.append((next1, next2))
    return Check(True)
