"""Place/transition nets: data model, firing rule, state space construction,
and the behavioural and structural predicates defined on them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache, reduce
from math import inf
from operator import ge, itemgetter, le
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from .common import (
    AptError,
    Check,
    StateLimitExceededError,
    UnboundedNetError,
)
from .lts import Lts, is_persistent as lts_is_persistent, is_reversible as lts_is_reversible
from .lts import _closure, state_name

DEFAULT_STATE_LIMIT = 1_000_000


class _Omega:
    """The unbounded token count; bigger than every integer, absorbing."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OMEGA"


OMEGA = _Omega()

Count = Union[int, _Omega]


class Marking:
    """Token counts per place, in the net's place order.

    Counts may be OMEGA in coverability contexts.  Instances are immutable
    and hashable.
    """

    __slots__ = ("places", "counts")

    def __init__(self, places: Tuple[str, ...], counts: Tuple[Count, ...]):
        self.places = places
        self.counts = tuple(counts)

    def get(self, place: str) -> Count:
        return self.counts[self.places.index(place)]

    __getitem__ = get

    def items(self):
        return zip(self.places, self.counts)

    def has_omega(self) -> bool:
        return any(c is OMEGA for c in self.counts)

    def covers(self, other: "Marking") -> bool:
        return all(map(ge, _counts(self), _counts(other)))

    def __le__(self, other: "Marking") -> bool:
        return other.covers(self)

    def __add__(self, other: "Marking") -> "Marking":
        if self.places != other.places:
            raise AptError("markings over different nets")
        return Marking(
            self.places,
            tuple(
                OMEGA if (a is OMEGA or b is OMEGA) else a + b
                for a, b in zip(self.counts, other.counts)
            ),
        )

    def scaled(self, k: int) -> "Marking":
        return Marking(
            self.places, tuple(OMEGA if c is OMEGA else k * c for c in self.counts)
        )

    def __rmul__(self, k: int) -> "Marking":
        return self.scaled(k)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Marking)
            and self.places == other.places
            and self.counts == other.counts
        )

    def __hash__(self) -> int:
        return hash(self.counts)

    def __repr__(self) -> str:
        inner = " ".join(f"[{p}:{c}]" for p, c in self.items())
        return f"[ {inner} ]"


class PetriNet:
    """Arc-weighted place/transition net with initial marking and labelling.

    All structural changes go through the net object itself.  Every node
    keeps its preset and postset, which `add_flow` updates together with
    the flow relation, so each structural reader visits only the arcs it
    needs.  The firing table of `_compiled` is built from those sets on
    first use and dropped by any change that can alter it: a new
    transition, a new flow or a new label.  Analyses never mutate a net,
    so a net that is no longer being built can be shared freely.
    """

    def __init__(self, name: str = "", description: str = ""):
        self.name = name
        self.description = description
        self._places: Dict[str, int] = {}
        self._transitions: Dict[str, str] = {}
        self._locations: Dict[str, str] = {}
        self._flow: Dict[Tuple[str, str], int] = {}
        self._pre: Dict[str, Dict[str, int]] = {}
        self._post: Dict[str, Dict[str, int]] = {}
        self._table: Optional[Dict[str, Tuple]] = None

    # -- construction -----------------------------------------------------

    def add_place(self, name: str, tokens: int = 0) -> None:
        if name in self._places:
            raise AptError(f"duplicate place {name!r}")
        if name in self._transitions:
            raise AptError(f"{name!r} is already a transition; P and T must be disjoint")
        if tokens < 0:
            raise AptError("token counts are nonnegative")
        self._places[name] = tokens
        self._pre[name], self._post[name] = {}, {}

    def add_transition(
        self, name: str, label: Optional[str] = None, location: Optional[str] = None
    ) -> None:
        if name in self._transitions:
            raise AptError(f"duplicate transition {name!r}")
        if name in self._places:
            raise AptError(f"{name!r} is already a place; P and T must be disjoint")
        self._transitions[name] = label if label is not None else name
        if location is not None:
            self._locations[name] = location
        self._pre[name], self._post[name] = {}, {}
        self._table = None

    def add_flow(self, source: str, target: str, weight: int = 1) -> None:
        """Add weight to the flow from source to target; one end must be a
        place and the other a transition.  Repeated calls accumulate."""
        if weight <= 0:
            raise AptError("flow weights are positive")
        src_place = source in self._places
        tgt_place = target in self._places
        if src_place == tgt_place:
            raise AptError(f"flow {source!r} -> {target!r} must connect a place and a transition")
        if not src_place and source not in self._transitions:
            raise AptError(f"unknown node {source!r}")
        if not tgt_place and target not in self._transitions:
            raise AptError(f"unknown node {target!r}")
        key = (source, target)
        weight += self._flow.get(key, 0)
        self._flow[key] = self._post[source][target] = self._pre[target][source] = weight
        self._table = None

    def set_tokens(self, place: str, tokens: int) -> None:
        if place not in self._places:
            raise AptError(f"unknown place {place!r}")
        if tokens < 0:
            raise AptError("token counts are nonnegative")
        self._places[place] = tokens

    def set_label(self, transition: str, label: str) -> None:
        if transition not in self._transitions:
            raise AptError(f"unknown transition {transition!r}")
        self._transitions[transition] = label
        self._table = None

    # -- read access ------------------------------------------------------

    @property
    def places(self) -> Tuple[str, ...]:
        return tuple(self._places)

    @property
    def transitions(self) -> Tuple[str, ...]:
        return tuple(self._transitions)

    def label(self, transition: str) -> str:
        return self._transitions[transition]

    @property
    def labels(self) -> Tuple[str, ...]:
        """Alphabet: distinct labels in transition declaration order."""
        return tuple(dict.fromkeys(self._transitions.values()))

    @property
    def locations(self) -> Dict[str, str]:
        return dict(self._locations)

    def flow(self, source: str, target: str) -> int:
        return self._flow.get((source, target), 0)

    @property
    def flows(self) -> Dict[Tuple[str, str], int]:
        return dict(self._flow)

    def initial_marking(self) -> Marking:
        return Marking(self.places, tuple(self._places.values()))

    def marking(self, tokens: Dict[str, int]) -> Marking:
        unknown = [p for p in tokens if p not in self._places]
        if unknown:
            raise AptError(f"unknown place {unknown[0]!r}")
        return Marking(self.places, tuple(tokens.get(p, 0) for p in self._places))

    def _compiled(self) -> Dict[str, Tuple]:
        """Transition -> (label, (place index, weight) of its preset in preset
        order, nonzero (place index, effect) of its firing in place order),
        in net order."""
        if self._table is None:
            index = {p: i for i, p in enumerate(self._places)}
            self._table = {}
            for t, label in self._transitions.items():
                pre, post = self._pre[t], self._post[t]
                touched = sorted({*pre, *post}, key=index.__getitem__)
                self._table[t] = (
                    label,
                    tuple((index[p], w) for p, w in pre.items()),
                    tuple((index[p], d) for p in touched if (d := post.get(p, 0) - pre.get(p, 0))),
                )
        return self._table

    def preset(self, node: str) -> Dict[str, int]:
        """Nodes with flow into `node`, mapped to the arc weight."""
        return self._arcs(self._pre, node)

    def postset(self, node: str) -> Dict[str, int]:
        return self._arcs(self._post, node)

    def _arcs(self, sets: Dict[str, Dict[str, int]], node: str) -> Dict[str, int]:
        """A copy of `node`'s entry in `sets`, `_pre` or `_post`."""
        if node not in sets:
            raise AptError(f"unknown node {node!r}")
        return dict(sets[node])

    def __repr__(self) -> str:
        return (
            f"PetriNet({len(self._places)} places, {len(self._transitions)} transitions, "
            f"{len(self._flow)} flows)"
        )


# ---------------------------------------------------------------------------
# Firing rule.
# ---------------------------------------------------------------------------


def _counts(marking: Marking) -> Tuple:
    """`marking` as searches hold it: counts in place order, with OMEGA as
    math.inf, which absorbs every addition and exceeds every integer."""
    return tuple(inf if c is OMEGA else c for c in marking.counts)


def _marking(places: Tuple[str, ...], counts: Tuple) -> Marking:
    if inf in counts:
        counts = tuple(OMEGA if c == inf else c for c in counts)
    return Marking(places, counts)


def _successor(pre: Tuple, delta: Tuple, counts: Tuple) -> Optional[Tuple]:
    """The firing rule: `counts` after firing, or None if disabled."""
    for i, w in pre:
        if counts[i] < w:
            return None
    out = list(counts)
    for i, d in delta:
        out[i] += d
    return tuple(out)


def _transition(net: PetriNet, marking: Marking, transition: str) -> Tuple:
    """The compiled `transition`, which fires on `marking`'s counts by place
    index: so `marking` must be over the net's places, in its order."""
    if transition not in net._compiled():
        raise AptError(f"unknown transition {transition!r}")
    if marking.places != net.places:
        raise AptError("marking over different places than the net")
    return net._table[transition]


def enabled(net: PetriNet, marking: Marking, transition: str) -> bool:
    _, pre, delta = _transition(net, marking, transition)
    return _successor(pre, delta, _counts(marking)) is not None


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Successor marking; firing a disabled transition names a deficient place."""
    _, pre, delta = _transition(net, marking, transition)
    counts = _counts(marking)
    nxt = _successor(pre, delta, counts)
    if nxt is None:
        p, c, w = next((marking.places[i], c, w) for i, w in pre if (c := counts[i]) < w)
        raise AptError(f"{transition} is not enabled: place {p} holds {c} < {w}")
    return _marking(marking.places, nxt)


def fire_sequence(net: PetriNet, marking: Marking, sequence: Sequence[str]) -> Marking:
    for t in sequence:
        marking = fire(net, marking, t)
    return marking


# ---------------------------------------------------------------------------
# Reachability and coverability graphs.
# ---------------------------------------------------------------------------


@dataclass
class StateGraph:
    """An Lts over discovered markings plus the bookkeeping of discovery."""

    lts: Lts
    markings: Dict[str, Marking]
    parent: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    fired_transitions: Set[str] = field(default_factory=set)

    def path_to(self, state: str) -> List[str]:
        """Transition sequence from the initial state to `state` along BFS parents."""
        path: List[str] = []
        cursor = state
        while cursor in self.parent:
            cursor, t = self.parent[cursor]
            path.append(t)
        path.reverse()
        return path


def _weight(counts: Tuple) -> Tuple[int, int]:
    """(OMEGA count, finite token sum): a marking that strictly covers
    another weighs more in the lexicographic order."""
    omegas = counts.count(inf)
    return omegas, sum(c for c in counts if c != inf) if omegas else sum(counts)


def _accelerate(path: List[Tuple], k: int, counts: Tuple) -> Tuple:
    """Karp-Miller acceleration of `counts`, a successor of state k: while it
    strictly covers a marking on the BFS-tree path to state k, the strictly
    increased places jump to OMEGA.  path[j] is (counts, weight, least weight
    on the path from s0, parent, zeros) of state j, where zeros[i] is the
    nearest ancestor-or-self of j with no token at place i, or -1.  Only a
    lighter ancestor with no token wherever `counts` has none can be strictly
    covered, so the walk stops where no lighter one is left and jumps to the
    least pointer at those places while it lies above.  A jump to OMEGA keeps
    the zero places, so the same ancestors are tested as in a full walk."""
    weight = _weight(counts)
    if path[k][2] >= weight:
        return counts
    zero = [i for i, c in enumerate(counts) if not c]
    # the first zero place repeated, so that one zero place still gives a tuple
    pick = itemgetter(*zero, zero[0]) if zero else None
    changed = True
    while changed:
        changed = False
        cursor = k
        while cursor >= 0:
            if pick is not None:
                up = min(pick(path[cursor][4]))
                if up < cursor:
                    cursor = up
                    continue
            anc, anc_weight, lightest, parent, _ = path[cursor]
            if lightest >= weight:
                break
            if anc_weight < weight and all(map(ge, counts, anc)):
                jumped = tuple(inf if a > b else a for a, b in zip(counts, anc))
                if jumped != counts:
                    counts, weight, changed = jumped, _weight(jumped), True
            cursor = parent
    return counts


def _explore(
    net: PetriNet, state_limit: int, accelerate: bool, bound: float = inf
) -> Tuple[StateGraph, Optional[str]]:
    """Breadth-first search over markings, shared by every state-space
    construction of this module: returns (graph, None) once every state is
    explored.

    States are named s0, s1, ... in discovery order by `lts.state_name`.
    The search declares every state and label itself, so it appends the
    arcs of a state, labelled with their transitions' labels, in bulk and
    in transition order once all of its transitions are fired.  With
    `accelerate`, every successor marking goes through Karp-Miller
    acceleration, which makes the search finite; only then are the path
    entries it reads built.  Raises StateLimitExceededError, naming the
    graph being built, before a state past `state_limit` is added.  The
    first discovered state, the initial one included, with a place above
    `bound` ends the search: it returns the graph found so far, the arc
    into that state included, and that state.
    """
    table = tuple(net._compiled().items())
    lts = Lts(name="", description="")
    for lab in net.labels:
        lts.add_label(lab)
    labels = set(net.labels)
    initial = net.initial_marking()
    first = state_name(0, labels)
    names: Dict[Tuple, str] = {initial.counts: first}
    lts.add_state(first, initial=True)
    graph = StateGraph(lts, {first: initial})
    if max(initial.counts, default=0) > bound:
        return graph, first
    queue = [(initial.counts, first)]
    if accelerate:
        weight = _weight(initial.counts)
        path = [(initial.counts, weight, weight, -1, tuple(-1 if c else 0 for c in initial.counts))]
    for k, (counts, state) in enumerate(queue):  # grows behind k: breadth first
        arcs = []
        for t, (label, pre, delta) in table:
            nxt = _successor(pre, delta, counts)
            if nxt is None:
                continue
            if accelerate:
                nxt = _accelerate(path, k, nxt)
            name = names.get(nxt)
            fresh = name is None
            if fresh:
                if len(names) >= state_limit:
                    raise StateLimitExceededError(
                        f"the coverability graph has more than {state_limit} states"
                        if accelerate
                        else f"the reachability graph has more than {state_limit} "
                        "states; the net is possibly unbounded, try the coverability graph"
                    )
                name = state_name(len(names), labels)
                names[nxt] = name
                lts.add_state(name)
                graph.markings[name] = _marking(initial.places, nxt)
                graph.parent[name] = (state, t)
                if accelerate:
                    j, weight = len(queue), _weight(nxt)
                    _, _, lightest, _, zeros = path[k]
                    zeros = tuple(z if c else j for c, z in zip(nxt, zeros))
                    path.append((nxt, weight, min(weight, lightest), k, zeros))
                queue.append((nxt, name))
            graph.fired_transitions.add(t)
            arcs.append((state, label, name))
            if fresh and max(nxt, default=0) > bound:
                lts._append_arcs(arcs)
                return graph, name
        lts._append_arcs(arcs)
    return graph, None


def reachability_graph(net: PetriNet, state_limit: Optional[int] = None) -> StateGraph:
    """All reachable markings, found by the shared breadth-first explorer:
    states are named s0, s1, ... in discovery order and arcs carry the
    transition's label.

    Raises StateLimitExceededError past `state_limit` states (by default
    DEFAULT_STATE_LIMIT, read at call time), which suggests an unbounded
    net; the coverability graph of an unbounded net is finite.
    """
    limit = DEFAULT_STATE_LIMIT if state_limit is None else state_limit
    return _explore(net, limit, accelerate=False)[0]


def coverability_graph(net: PetriNet) -> StateGraph:
    """Karp-Miller style graph from the shared breadth-first explorer: when a
    new marking strictly covers one of its ancestors on the tree path, the
    strictly increased places jump to OMEGA.  Identical omega-markings are
    merged globally.  For a bounded net no acceleration ever fires and the
    result is the reachability graph.

    The graph is finite, but can be huge: past DEFAULT_STATE_LIMIT states
    it raises StateLimitExceededError.
    """
    return _explore(net, DEFAULT_STATE_LIMIT, accelerate=True)[0]


def _bounded_graph(net: PetriNet, check: str) -> StateGraph:
    """The reachability graph of a bounded net, which is its coverability
    graph; raises UnboundedNetError if that graph holds an OMEGA."""
    graph = coverability_graph(net)
    if any(m.has_omega() for m in graph.markings.values()):
        raise UnboundedNetError(f"{check} requires a bounded net")
    return graph


# ---------------------------------------------------------------------------
# Boundedness and liveness.
# ---------------------------------------------------------------------------


def bounded(net: PetriNet, k: Optional[int] = None) -> Check:
    """Without k: bounded iff the coverability graph is omega-free.  With k:
    every reachable marking keeps every place at or below k.

    A negative answer carries (place, firing sequence); the sequence is
    shortest in BFS order and its final marking shows the excess.  With k,
    the shared breadth-first explorer runs over concrete markings only and
    stops at the first one above k, which an unbounded net always reaches.
    Both searches raise StateLimitExceededError past DEFAULT_STATE_LIMIT
    states.
    """
    if k is None:
        cover = coverability_graph(net)
        omega_state = next(
            (s for s in cover.lts.states if cover.markings[s].has_omega()), None
        )
        if omega_state is None:
            return Check(True)
        marking = cover.markings[omega_state]
        place = next(p for p, c in marking.items() if c is OMEGA)
        return Check(
            False,
            (place, cover.path_to(omega_state)),
            f"place {place} is unbounded",
        )
    if k < 0:
        raise AptError("k must be nonnegative")
    graph, state = _explore(net, DEFAULT_STATE_LIMIT, accelerate=False, bound=k)
    if state is None:
        return Check(True)
    place, count = next((p, c) for p, c in graph.markings[state].items() if c > k)
    return Check(False, (place, graph.path_to(state)), f"place {place} reaches {count} > {k} tokens")


def weakly_live(net: PetriNet) -> Check:
    """No unfireable transitions.  A transition counts as fireable iff it
    labels an arc of the coverability graph, which is sound: every
    coverability arc is realised by a concrete firing sequence.
    """
    cover = coverability_graph(net)
    for t in net.transitions:
        if t not in cover.fired_transitions:
            return Check(False, t, f"transition {t} can never fire")
    return Check(True)


def persistent(net: PetriNet) -> Check:
    """Persistence of the reachability graph; requires a bounded net."""
    graph = _bounded_graph(net, "persistence check")
    return lts_is_persistent(graph.lts)


def reversible(net: PetriNet) -> Check:
    """Reversibility of the reachability graph; requires a bounded net."""
    graph = _bounded_graph(net, "reversibility check")
    return lts_is_reversible(graph.lts)


# ---------------------------------------------------------------------------
# Structural predicates.
# ---------------------------------------------------------------------------


def is_plain(net: PetriNet) -> Check:
    for (src, tgt), w in net.flows.items():
        if w > 1:
            return Check(False, (src, tgt), f"flow {src} -> {tgt} has weight {w}")
    return Check(True)


def side_conditions(net: PetriNet) -> List[Tuple[str, str]]:
    """All (place, transition) pairs connected in both directions, by place
    and then by transition in net order."""
    order = {t: i for i, t in enumerate(net.transitions)}
    out = []
    for p in net.places:
        loops = net.preset(p).keys() & net.postset(p).keys()
        out.extend((p, t) for t in sorted(loops, key=order.__getitem__))
    return out


def non_plain_side_conditions(net: PetriNet) -> List[Tuple[str, str]]:
    """Side conditions where at least one of the two arcs has weight > 1."""
    flows = net.flows
    return [(p, t) for p, t in side_conditions(net) if flows[p, t] > 1 or flows[t, p] > 1]


def is_pure(net: PetriNet) -> Check:
    conds = side_conditions(net)
    if conds:
        p, t = conds[0]
        return Check(False, (p, t), f"place {p} and transition {t} form a side condition")
    return Check(True)


def is_output_nonbranching(net: PetriNet) -> Check:
    for p in net.places:
        post = net.postset(p)
        if len(post) > 1:
            return Check(False, p, f"place {p} feeds {len(post)} transitions")
    return Check(True)


def is_conflict_free(net: PetriNet) -> Check:
    plain = is_plain(net)
    if not plain:
        return Check(False, plain.witness, "not plain: " + plain.detail)
    for p in net.places:
        post = net.postset(p).keys()
        if len(post) > 1 and not post <= net.preset(p).keys():
            return Check(False, p, f"place {p} branches outside its preset")
    return Check(True)


def is_tnet(net: PetriNet) -> Check:
    plain = is_plain(net)
    if not plain:
        return Check(False, plain.witness, "not plain: " + plain.detail)
    for p in net.places:
        post, pre = net.postset(p), net.preset(p)
        if len(post) > 1 or len(pre) > 1:
            return Check(False, p, f"place {p} has |pre|={len(pre)}, |post|={len(post)}")
    return Check(True)


def is_marked_graph(net: PetriNet) -> Check:
    tnet = is_tnet(net)
    if not tnet:
        return tnet
    for p in net.places:
        post, pre = net.postset(p), net.preset(p)
        if len(post) != 1 or len(pre) != 1:
            return Check(False, p, f"place {p} has |pre|={len(pre)}, |post|={len(post)}")
    return Check(True)


def has_isolated_elements(net: PetriNet) -> Check:
    """True when some place or transition touches no flow arc."""
    for node in (*net.places, *net.transitions):
        if not (net._pre[node] or net._post[node]):
            return Check(True, node, f"{node} is isolated")
    return Check(False)


def is_weakly_connected(net: PetriNet) -> Check:
    nodes = [*net.places, *net.transitions]
    if not nodes:
        return Check(True)
    seen = set(_closure(nodes[0], lambda node: [*net._post[node], *net._pre[node]]))
    for node in nodes:
        if node not in seen:
            return Check(False, node, f"{node} is in a different component")
    return Check(True)


def is_strongly_connected(net: PetriNet) -> Check:
    nodes = [*net.places, *net.transitions]
    if not nodes:
        return Check(True)
    fwd = set(_closure(nodes[0], net._post.__getitem__))
    bwd = set(_closure(nodes[0], net._pre.__getitem__))
    for node in nodes:
        if node not in fwd or node not in bwd:
            return Check(False, node, f"{node} breaks strong connectedness")
    return Check(True)


# ---------------------------------------------------------------------------
# Behavioural conflict freeness.
# ---------------------------------------------------------------------------


def _conflict_scan(net: PetriNet, binary: bool) -> Check:
    plain = is_plain(net)
    if not plain:
        return Check(False, plain.witness, "not plain")
    table = net._compiled().items()
    places = net.places
    graph = _bounded_graph(net, "the check")
    for state in graph.lts.states:
        counts = graph.markings[state].counts
        live = [(t, pre) for t, (_, pre, delta) in table if _successor(pre, delta, counts) is not None]
        for i, (t, t_pre) in enumerate(live):
            for u, u_pre in live[i + 1 :]:
                if binary:
                    demand = Counter(dict(t_pre)) + Counter(dict(u_pre))
                    short = [j for j, w in demand.items() if counts[j] < w]
                    if short:
                        p = places[min(short)]
                        return Check(
                            False,
                            (state, t, u, p),
                            f"{t} and {u} compete for {p} at {state}",
                        )
                else:
                    shared = set(net.preset(t)) & set(net.preset(u))
                    if shared:
                        p = sorted(shared)[0]
                        return Check(
                            False,
                            (state, t, u, p),
                            f"{t} and {u} share pre-place {p} at {state}",
                        )
    return Check(True)


def is_bcf(net: PetriNet) -> Check:
    """Behaviourally conflict-free: concurrently enabled transitions never
    share a pre-place.  Requires plain (else a negative answer) and bounded
    (else an error)."""
    return _conflict_scan(net, binary=False)


def is_bicf(net: PetriNet) -> Check:
    """Binary conflict-free: markings cover the joint demand of every pair of
    concurrently enabled transitions."""
    return _conflict_scan(net, binary=True)


# ---------------------------------------------------------------------------
# Language membership and separability.
# ---------------------------------------------------------------------------


def word_in_language(net: PetriNet, word: Sequence[str]) -> Check:
    """Whether some transition sequence labelled by `word` fires from the
    initial marking.  Search depth equals len(word), so this terminates on
    unbounded nets too.  The witness of a negative answer is the longest
    firable prefix.
    """
    by_label: Dict[str, List[Tuple]] = {}
    for label, pre, delta in net._compiled().values():
        by_label.setdefault(label, []).append((pre, delta))
    for letter in word:
        if letter not in by_label:
            raise AptError(f"unknown label {letter!r}")

    best_prefix = 0
    seen: Set[Tuple[int, Tuple[int, ...]]] = set()
    stack: List[Tuple[Tuple[int, ...], int]] = [(net.initial_marking().counts, 0)]
    while stack:
        counts, position = stack.pop()
        best_prefix = max(best_prefix, position)
        if position == len(word):
            return Check(True)
        key = (position, counts)
        if key in seen:
            continue
        seen.add(key)
        for pre, delta in reversed(by_label[word[position]]):
            nxt = _successor(pre, delta, counts)
            if nxt is not None:
                stack.append((nxt, position + 1))
    prefix = list(word[:best_prefix])
    return Check(False, prefix, f"maximal enabled prefix has length {best_prefix}")


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Either "no" with a counterexample sequence or "inconclusive"; the
    property quantifies over all firing sequences, so a bounded search can
    never answer an unqualified yes."""

    verdict: str
    counterexample: Optional[Tuple[str, ...]] = None


def separable(
    net: PetriNet, k: int, length_bound: int, mode: str = "weak"
) -> SeparabilityVerdict:
    """Check (up to `length_bound`) whether behaviour from the initial marking
    k.M decomposes into k behaviours from M: Parikh-wise in weak mode, as a
    shuffle in strong mode.  The number of firing sequences can grow
    exponentially with the bound, so past DEFAULT_STATE_LIMIT sequences,
    read at call time, it raises StateLimitExceededError.
    """
    if mode not in ("weak", "strong"):
        raise AptError("mode must be 'weak' or 'strong'")
    if k < 2:
        raise AptError("k must be at least 2")
    initial = net.initial_marking()
    if any(c % k != 0 for c in initial.counts):
        raise AptError(f"initial marking is not divisible by {k}")
    base = tuple(c // k for c in initial.counts)

    compiled = net._compiled()
    labels = list(compiled)

    # Parikh vectors of sequences firable from `base`, up to the bound.  The
    # marking after a sequence depends only on its Parikh vector, so vectors
    # are a faithful search state.
    base_vectors: Set[Tuple[int, ...]] = {(0,) * len(labels)}
    frontier: Dict[Tuple[int, ...], Tuple[int, ...]] = dict.fromkeys(base_vectors, base)
    for _ in range(length_bound):
        if not frontier:
            break
        nxt: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        for vec, marking in frontier.items():
            for i, (_, pre, delta) in enumerate(compiled.values()):
                fired = _successor(pre, delta, marking)
                if fired is not None:
                    new_vec = tuple(v + (1 if j == i else 0) for j, v in enumerate(vec))
                    if new_vec not in base_vectors:
                        base_vectors.add(new_vec)
                        nxt[new_vec] = fired
        frontier = nxt

    @cache
    def weak_decomposes(target: Tuple[int, ...], parts: int) -> bool:
        if parts == 1:
            return target in base_vectors
        return any(
            weak_decomposes(tuple(b - a for a, b in zip(v, target)), parts - 1)
            for v in base_vectors
            if all(map(le, v, target))
        )

    # Each stack entry carries what its check reads, built from its parent's:
    # in weak mode the sequence's Parikh vector, in strong mode the set of
    # multisets of k component markings (sorted tuples) that split it.
    def step(data, i: int, pre: Tuple, delta: Tuple):
        if mode == "weak":
            return data[:i] + (data[i] + 1,) + data[i + 1 :]
        splits = set()
        for combo in data:
            for j in range(k):
                if j > 0 and combo[j] == combo[j - 1]:
                    continue  # symmetric choice
                fired = _successor(pre, delta, combo[j])
                if fired is not None:
                    splits.add(tuple(sorted(combo[:j] + (fired,) + combo[j + 1 :])))
        return splits

    # Depth-first over firing sequences from k.M, shortest first per prefix.
    start = (0,) * len(labels) if mode == "weak" else {(base,) * k}
    stack: List[Tuple[Tuple[int, ...], Tuple[str, ...], object]] = [(initial.counts, (), start)]
    transitions = list(enumerate(compiled.items()))[::-1]
    limit, taken = DEFAULT_STATE_LIMIT, 0
    while stack:
        taken += 1
        if taken > limit:
            raise StateLimitExceededError(
                f"the separability search took more than {limit} firing sequences"
            )
        marking, sequence, data = stack.pop()
        if sequence:
            # the zero vector is a base vector: parts beyond the letter count
            # would be zeros, and each one costs a recursion level
            ok = weak_decomposes(data, min(k, len(sequence))) if mode == "weak" else data
            if not ok:
                return SeparabilityVerdict("no", sequence)
        if len(sequence) < length_bound:
            for i, (t, (_, pre, delta)) in transitions:
                fired = _successor(pre, delta, marking)
                if fired is not None:
                    stack.append((fired, sequence + (t,), step(data, i, pre, delta)))
    return SeparabilityVerdict("inconclusive")


def gcd_initial_marking(net: PetriNet) -> int:
    """gcd of all initial token counts; 0 for an empty or all-zero marking."""
    return reduce(math.gcd, (c for c in net.initial_marking().counts), 0)
