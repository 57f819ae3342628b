"""Labelled transition systems and their behavioural analyses.

States, labels and arcs keep their insertion order; every analysis iterates
in that order so witnesses and outputs are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, filterfalse
from operator import attrgetter, le
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .common import AptError, Check, CycleCapExceededError, PreconditionError, StateLimitExceededError


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


class Arc(NamedTuple):
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
        if initial and self._initial is not None:
            raise AptError(f"initial state already set to {self._initial!r}")
        self._states[name] = None
        self._out[name] = []
        self._in[name] = []
        if initial:
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
        self._append_arcs(((source, label, target),))

    def _append_arcs(self, triples: Iterable[Tuple[str, str, str]]) -> None:
        """add_arc for each (source, label, target) tuple of `triples`, in
        order, without its checks, for a caller that declared their states
        and labels itself: only a repeated arc is dropped."""
        arc_set, arcs, out, into = self._arc_set, self._arcs, self._out, self._in
        for triple in triples:
            if triple not in arc_set:  # an Arc equals and hashes as its tuple
                arc = tuple.__new__(Arc, triple)
                arc_set.add(arc)
                arcs.append(arc)
                out[triple[0]].append(arc)
                into[triple[2]].append(arc)

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
        """Convenience constructor; declares states/labels in first-seen order.
        Every state and label an arc names is declared, so the arcs are
        appended without `add_arc`'s checks; a repeated arc is dropped."""
        lts = cls(name=name)
        seen_states: Dict[str, None] = {initial: None}
        seen_labels: Dict[str, None] = {}
        triples = []
        for s, t, s2 in arcs:
            seen_states.setdefault(s, None)
            seen_states.setdefault(s2, None)
            seen_labels.setdefault(t, None)
            triples.append((s, t, s2))
        for s in states:
            seen_states.setdefault(s, None)
        for t in labels:
            seen_labels.setdefault(t, None)
        for s in seen_states:
            lts.add_state(s, initial=(s == initial))
        locations = locations or {}
        for t in seen_labels:
            lts.add_label(t, location=locations.get(t))
        lts._append_arcs(triples)
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
        return tuple([a.target for a in self._out[state] if a.label == label])

    def enabled_labels(self, state: str) -> Tuple[str, ...]:
        present = {a.label for a in self._out[state]}
        return tuple(t for t in self._labels if t in present)

    def __repr__(self) -> str:
        return (
            f"Lts({len(self._states)} states, {len(self._labels)} labels, "
            f"{len(self._arcs)} arcs)"
        )


def state_name(i: int, labels) -> str:
    """Generated name of state i: s<i>, with an s in front while it is a label."""
    name = f"s{i}"
    while name in labels:
        name = "s" + name
    return name


@dataclass
class SpanningTree:
    """BFS tree of the reachable part rooted at the initial state."""

    parent_arc: Dict[str, Arc] = field(default_factory=dict)
    chords: List[Arc] = field(default_factory=list)
    order: List[str] = field(default_factory=list)

    @cached_property
    def path_parikh(self) -> Dict[str, ParikhVector]:
        """Each state's tree-path Parikh vector, derived from the parent arcs on first use."""
        parikh: Dict[str, ParikhVector] = {}
        for state in self.order:
            arc = self.parent_arc.get(state)
            parikh[state] = ParikhVector() if arc is None else parikh[arc.source].added(arc.label)
        return parikh


def _closure(start, step) -> list:
    """`start` and every node that `step` (node -> its neighbours) reaches
    from it, in BFS discovery order: the list is its own queue."""
    order, seen = [start], {start}
    for node in order:
        for other in step(node):
            if other not in seen:
                seen.add(other)
                order.append(other)
    return order


def reachable_states(lts: Lts) -> List[str]:
    """Forward closure of the initial state, in BFS discovery order."""
    target, out = attrgetter("target"), lts._out
    return _closure(lts.initial, lambda state: map(target, out[state]))


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
    ambiguous); nondeterministic input raises PreconditionError, with the
    state `is_deterministic`, walking in the same order, names.
    """
    # label -> target at each reachable state, labels in declaration order
    position = {t: i for i, t in enumerate(lts.labels)}
    step = {}
    for state in reachable_states(lts):
        targets = {arc.label: arc.target for arc in lts._out[state]}
        if len(targets) < len(lts._out[state]):  # two arcs of one label
            raise PreconditionError(f"persistence needs a deterministic input: {is_deterministic(lts).detail}")
        step[state] = {t: targets[t] for t in sorted(targets, key=position.__getitem__)}
    for state, targets in step.items():
        enabled = list(targets.items())
        for i, (t, via_t) in enumerate(enabled):
            after_t = step[via_t]
            for u, via_u in enabled[i + 1 :]:
                r_tu = after_t.get(u)
                if r_tu is None or r_tu != step[via_u].get(t):
                    return Check(
                        False,
                        (state, t, u),
                        f"no common state completes the {t}/{u} diamond at {state}",
                    )
    return Check(True)


def is_reversible(lts: Lts) -> Check:
    """Whether the initial state stays reachable from every reachable state."""
    # every path from a reachable state stays reachable, so no filter is needed
    source, into = attrgetter("source"), lts._in
    back = set(_closure(lts.initial, lambda state: map(source, into[state])))
    for state in reachable_states(lts):
        if state not in back:
            return Check(False, state, f"initial state not reachable from {state}")
    return Check(True)


def strongly_connected_components(lts: Lts) -> List[List[str]]:
    """Kosaraju's SCCs, each in declaration order, ordered by their first
    state.  One DFS, from each state it has not seen in declaration order,
    records the order in which states finish; then, in reverse finish
    order, each state in no component yet and the states in none that
    reach it (a backward closure) form the next component."""
    state_pos = {s: i for i, s in enumerate(lts._states)}
    target, source, out, into = attrgetter("target"), attrgetter("source"), lts._out, lts._in
    # the DFS stack: each state with its unread successors, under a root
    # (None) whose successors are all states
    stack: List[Tuple[Optional[str], Iterator[str]]] = [(None, iter(lts._states))]
    seen: set = set()
    finished: List[Optional[str]] = []
    while stack:
        state, successors = stack[-1]
        for other in successors:
            if other not in seen:
                seen.add(other)
                stack.append((other, map(target, out[other])))
                break
        else:
            stack.pop()
            finished.append(state)
    assigned: set = set()
    components: List[List[str]] = []
    for root in reversed(finished[:-1]):  # the root None finishes last
        if root not in assigned:
            component = _closure(root, lambda s: filterfalse(assigned.__contains__, map(source, into[s])))
            assigned.update(component)
            component.sort(key=state_pos.__getitem__)
            components.append(component)
    components.sort(key=lambda c: state_pos[c[0]])
    return components


def weakly_connected_components(lts: Lts) -> List[List[str]]:
    """Undirected components, each in declaration order, ordered by their first state."""
    state_pos = {s: i for i, s in enumerate(lts.states)}
    target, source, out, into = attrgetter("target"), attrgetter("source"), lts._out, lts._in
    seen: set = set()
    components: List[List[str]] = []
    for root in lts.states:
        if root not in seen:
            component = _closure(root, lambda s: chain(map(target, out[s]), map(source, into[s])))
            seen.update(component)
            component.sort(key=state_pos.__getitem__)
            components.append(component)
    return components


def spanning_tree(lts: Lts) -> SpanningTree:
    """BFS spanning tree from the initial state; arcs explored in insertion order.

    One walk over the input's own per-state arc lists, copying none:
    `order` grows while it is iterated, so it ends as the BFS discovery
    order.  A state the walk missed raises PreconditionError, naming the
    first one in declaration order.  The chords are every arc that is no
    state's parent arc, in insertion order (each arc is one object, so
    identity tells them apart).
    """
    tree = SpanningTree()
    parent, order, out = tree.parent_arc, tree.order, lts._out
    seen = {lts.initial}
    order.append(lts.initial)
    for state in order:
        for arc in out[state]:
            if arc.target not in seen:
                seen.add(arc.target)
                parent[arc.target] = arc
                order.append(arc.target)
    if len(order) < len(lts._states):
        unreachable = next(s for s in lts._states if s not in seen)
        raise PreconditionError(f"state {unreachable} is unreachable; no spanning tree")
    tree.chords = [arc for arc in lts._arcs if parent.get(arc.target) is not arc]
    return tree


def _elementary_cycles(lts: Lts) -> Iterator[Tuple[int, ...]]:
    """Yield the Parikh vector of every simple cycle in the reachable part,
    as a tuple over `lts.labels`.

    Cycles are enumerated per anchor state using only states that come later
    in discovery order, so each cycle is produced exactly once (up to
    rotation).  Parallel arcs with different labels give distinct cycles.
    One count list follows the current path: an arc adds one as the path
    takes it and subtracts it on backtracking.  Path extensions and cycles
    count as steps (exponentially many paths can close no cycle); past
    petri.DEFAULT_STATE_LIMIT steps, read at call time, it raises
    CycleCapExceededError.
    """
    from .petri import DEFAULT_STATE_LIMIT as limit  # petri imports this module

    reach = reachable_states(lts)
    pos = {s: i for i, s in enumerate(reach)}
    index = {t: i for i, t in enumerate(lts._labels)}
    counts = [0] * len(index)
    steps = 0
    for root in reach:
        root_pos = pos[root]
        # the DFS stack: each path state, its unread arcs and the label index
        # of the arc that entered it (None at the root)
        stack: List[Tuple[str, Iterator[Arc], Optional[int]]] = [(root, iter(lts._out[root]), None)]
        on_path = {root}
        while stack:
            state, it, entered = stack[-1]
            for arc in it:
                tgt = arc.target
                if pos.get(tgt, -1) < root_pos or (tgt in on_path and tgt != root):
                    continue
                steps += 1
                if steps > limit:
                    raise CycleCapExceededError(f"the cycle search passed its limit of {limit} steps")
                i = index[arc.label]
                counts[i] += 1
                if tgt == root:
                    yield tuple(counts)
                    counts[i] -= 1
                else:
                    on_path.add(tgt)
                    stack.append((tgt, iter(lts._out[tgt]), i))
                    break
            else:
                stack.pop()
                on_path.discard(state)
                if entered is not None:
                    counts[entered] -= 1


def small_cycle_parikh_vectors(lts: Lts) -> List[ParikhVector]:
    """Parikh vectors of small cycles: the minimal elements, under the strict
    componentwise order, among Parikh vectors of all simple cycles reachable
    from the initial state, in order of first appearance.

    Every cycle decomposes into simple cycles through its own states, so the
    minimal vectors are attained on simple cycles.
    """
    vectors = list(dict.fromkeys(_elementary_cycles(lts)))
    return [
        ParikhVector(dict(zip(lts.labels, vec)))
        for vec in vectors
        if not any(other != vec and all(map(le, other, vec)) for other in vectors)
    ]


def cycles_same_pv(lts: Lts) -> bool:
    """Strong small cycle property: all small cycles share one Parikh vector."""
    return len(small_cycle_parikh_vectors(lts)) <= 1


def weak_small_cycle_property(lts: Lts) -> bool:
    """Distinct small-cycle Parikh vectors must have pairwise disjoint supports."""
    supports = [pv.support() for pv in small_cycle_parikh_vectors(lts)]
    return sum(map(len, supports)) == len(frozenset().union(*supports))


def _signature(lts: Lts, state: str) -> Tuple:
    out_labels = tuple(sorted({a.label for a in lts.arcs_from(state)}))
    in_labels = tuple(sorted({a.label for a in lts.arcs_to(state)}))
    return (len(lts.arcs_from(state)), len(lts.arcs_to(state)), out_labels, in_labels)


def _walk_together(l1: Lts, l2: Lts) -> Check:
    """Walk both systems in step from their initial states, in BFS order,
    mapping each state of l1 reached to the first target of its label in
    l2.  Fails at the first disagreement; on success the witness maps every
    state of l1 the walk reached, in discovery order."""
    mapping = {l1.initial: l2.initial}
    used = {l2.initial}
    order = [l1.initial]
    for s1 in order:  # grows while iterated, as in _closure
        s2 = mapping[s1]
        first: Dict[str, str] = {}
        for arc in l2._out[s2]:
            first.setdefault(arc.label, arc.target)
        if {arc.label for arc in l1._out[s1]} != first.keys():
            return Check(False, None, f"enabled labels differ at {s1}/{s2}")
        for arc in l1._out[s1]:
            t2 = first[arc.label]
            known = mapping.get(arc.target)
            if known is None:
                if t2 in used:
                    return Check(False, None, "walk is not injective")
                used.add(t2)
                mapping[arc.target] = t2
                order.append(arc.target)
            elif known != t2:
                return Check(False, None, f"targets disagree at {s1}[{arc.label}>")
    return Check(True, mapping)


def isomorphic(l1: Lts, l2: Lts) -> Check:
    """State bijection fixing the initial states and preserving labelled arcs.

    Labels are matched by identity.  A simultaneous walk answers first; it
    decides deterministic totally reachable inputs.  Otherwise a
    signature-pruned backtracking search runs over the full state sets;
    past petri.DEFAULT_STATE_LIMIT assignments, read at call time, it raises
    StateLimitExceededError.
    """
    from .petri import DEFAULT_STATE_LIMIT as limit  # petri imports this module

    if set(l1.labels) != set(l2.labels):
        return Check(False, None, "label sets differ")
    if len(l1.states) != len(l2.states):
        return Check(False, None, "state counts differ")

    # A walk that maps every state onto as many arcs is the only isomorphism:
    # both inputs are deterministic and totally reachable.  On such inputs,
    # any other walk is a failure.
    walk = _walk_together(l1, l2)
    if walk and len(walk.witness) == len(l1._states) and len(l1._arcs) == len(l2._arcs):
        return walk
    if (
        is_deterministic(l1)
        and is_deterministic(l2)
        and is_totally_reachable(l1)
        and is_totally_reachable(l2)
    ):
        return walk

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

    mapping: Dict[str, str] = {}
    inverse: Dict[str, str] = {}  # mapping's inverse, kept in step with it
    others = [s for s in l2.states if s != l2.initial]

    def consistent(s1: str, s2: str) -> bool:
        for arc in l1.arcs_from(s1):  # a self-loop's target is s1 itself
            other = s2 if arc.target == s1 else mapping.get(arc.target)
            if other is not None and (s2, arc.label, other) not in arcs2:
                return False
        for arc in l1.arcs_to(s1):
            other = mapping.get(arc.source)
            if other is not None and (other, arc.label, s2) not in arcs2:
                return False
        # mirror direction: mapped arcs of l2 touching s2 must exist in l1
        for arc in l2.arcs_from(s2):
            other = s1 if arc.target == s2 else inverse.get(arc.target)
            if other is not None and (s1, arc.label, other) not in arcs1:
                return False
        for arc in l2.arcs_to(s2):
            other = inverse.get(arc.source)
            if other is not None and (other, arc.label, s1) not in arcs1:
                return False
        return True

    def candidates(s1: str) -> Iterator[str]:
        """The images of s1 still open, tested as the search reaches them."""
        pool = [l2.initial] if s1 == l1.initial else others
        return (
            s2 for s2 in pool if s2 not in inverse and sig1[s1] == sig2[s2] and consistent(s1, s2)
        )

    # stack[i] holds the images left to try for order[i]; an explicit stack,
    # since a recursion as deep as the state count overflows Python's
    stack: List[Iterator[str]] = []
    assignments = 0
    while len(mapping) < len(order):
        if len(stack) == len(mapping):
            stack.append(candidates(order[len(mapping)]))
        s1 = order[len(stack) - 1]
        s2 = next(stack[-1], None)
        if s2 is not None:
            assignments += 1
            if assignments > limit:
                raise StateLimitExceededError(f"the isomorphism search made more than {limit} assignments")
            mapping[s1] = s2
            inverse[s2] = s1
            continue
        stack.pop()
        if not stack:
            return Check(False, None, "no arc-preserving bijection exists")
        del inverse[mapping.popitem()[1]]
    return Check(True, dict(mapping))


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

    members: Dict[int, List[str]] = {}
    for s2 in l2.states:
        members.setdefault(block[(1, s2)], []).append(s2)
    relation = [(s1, s2) for s1 in l1.states for s2 in members.get(block[(0, s1)], ())]
    ok = block[(0, l1.initial)] == block[(1, l2.initial)]
    detail = "" if ok else "initial states are not bisimilar"
    return Check(ok, relation if ok else None, detail)


def language_equivalent(l1: Lts, l2: Lts) -> Check:
    """Prefix-language equality, via subset construction on the reachable parts.

    A subset is (low, mask), the states of declaration index low + i for
    each bit i of mask, low the least: a few close states take a few bytes
    in a system of any size.  On inequality the witness is a shortest
    distinguishing word (enabled in exactly one of the systems).  Past
    petri.DEFAULT_STATE_LIMIT subset pairs, read at call time, it raises
    StateLimitExceededError.
    """
    from .petri import DEFAULT_STATE_LIMIT as limit  # petri imports this module

    labels = list(dict.fromkeys(l1.labels + l2.labels))

    def successors(lts: Lts):
        """The initial state's index, and per label each state index's successor indices."""
        index = {s: i for i, s in enumerate(lts._states)}
        rows: Dict[str, Dict[int, List[int]]] = {t: {} for t in labels}
        for source, label, target in lts._arcs:
            rows[label].setdefault(index[source], []).append(index[target])
        return index[lts.initial], [rows[t] for t in labels]

    def step(row: Dict[int, List[int]], low: int, mask: int) -> Tuple[int, int]:
        targets: List[int] = []
        while mask:
            bit = mask & -mask
            targets += row.get(low + bit.bit_length() - 1, ())
            mask ^= bit
        low, after = min(targets, default=0), 0
        for j in targets:
            after |= 1 << j - low
        return low, after

    (start1, rows1), (start2, rows2) = successors(l1), successors(l2)
    # every subset pair reached, in BFS order (the list is its own queue),
    # each with its parent's index and the label it was reached by
    pairs = [(start1, 1, start2, 1)]
    parents = {pairs[0]: (0, "")}
    for i, (low1, set1, low2, set2) in enumerate(pairs):
        for label, row1, row2 in zip(labels, rows1, rows2):
            pair = step(row1, low1, set1) + step(row2, low2, set2)
            if bool(pair[1]) != bool(pair[3]):
                word = [label]
                while i:  # pair 0, the start, has no parent
                    i, via = parents[pairs[i]]
                    word.append(via)
                side = "first" if pair[1] else "second"
                return Check(False, word[::-1], f"word enabled only in the {side} system")
            if pair[1] and pair not in parents:
                if len(pairs) >= limit:
                    raise StateLimitExceededError(f"the subset construction has more than {limit} state pairs")
                parents[pair] = (i, label)
                pairs.append(pair)
    return Check(True)
