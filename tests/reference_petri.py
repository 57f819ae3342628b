"""The firing rule and the marking searches that aptk.petri replaced, kept
verbatim as the reference for the differential tests.

`enabled` and `fire` look every place up by name on Marking objects, with
OMEGA as an object of its own; `_explore` fires them transition by
transition and `_accelerate` tests every ancestor for a strict cover.  On
these run the graph builders, `bounded` (the version that builds the
coverability graph first; with k, it then scans either the whole
reachability graph or a breadth-first search of its own over concrete
markings), the conflict scans of `is_bcf`/`is_bicf`, `word_in_language`
and `separable` (whose weak decomposition is not memoised).  The compiled
searches of aptk.petri must return the same results and raise the same
errors.  So must its structural predicates, which read pre- and postsets,
against the scans over every (place, transition) pair kept here, and its
connectedness checks against the breadth-first walks with a deque of their
own, over copied pre- and postsets, kept here too.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from aptk.common import AptError, Check, StateLimitExceededError, UnboundedNetError
from aptk.lts import Lts
from aptk.petri import (
    DEFAULT_STATE_LIMIT,
    OMEGA,
    Count,
    Marking,
    PetriNet,
    SeparabilityVerdict,
    StateGraph,
    is_plain,
)


def _ge(a: Count, b: Count) -> bool:
    if a is OMEGA:
        return True
    if b is OMEGA:
        return False
    return a >= b


def _add(a: Count, n: int) -> Count:
    return OMEGA if a is OMEGA else a + n


def _sub(a: Count, n: int) -> Count:
    return OMEGA if a is OMEGA else a - n


def enabled(net: PetriNet, marking: Marking, transition: str) -> bool:
    if transition not in net.transitions:
        raise AptError(f"unknown transition {transition!r}")
    pre = net.preset(transition)
    return all(_ge(marking.get(p), w) for p, w in pre.items())


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Successor marking; firing a disabled transition names a deficient place."""
    if transition not in net.transitions:
        raise AptError(f"unknown transition {transition!r}")
    pre = net.preset(transition)
    for p, w in pre.items():
        if not _ge(marking.get(p), w):
            raise AptError(
                f"{transition} is not enabled: place {p} holds {marking.get(p)} < {w}"
            )
    post = net.postset(transition)
    counts = list(marking.counts)
    index = {p: i for i, p in enumerate(marking.places)}
    for p, w in pre.items():
        counts[index[p]] = _sub(counts[index[p]], w)
    for p, w in post.items():
        counts[index[p]] = _add(counts[index[p]], w)
    return Marking(marking.places, tuple(counts))


def _accelerate(graph: StateGraph, state: str, marking: Marking) -> Marking:
    """Karp-Miller acceleration of `marking`, a successor of `state`: while it
    strictly covers a marking on the BFS-tree path to `state`, the strictly
    increased places jump to OMEGA."""
    changed = True
    while changed:
        changed = False
        cursor: Optional[str] = state
        while cursor is not None:
            anc = graph.markings[cursor]
            if marking.covers(anc) and marking != anc:
                counts = list(marking.counts)
                for i, (a, b) in enumerate(zip(marking.counts, anc.counts)):
                    if a is not OMEGA and (b is OMEGA or a > b):
                        counts[i] = OMEGA
                        changed = True
                marking = Marking(marking.places, tuple(counts))
            cursor = graph.parent[cursor][0] if cursor in graph.parent else None
    return marking


def _explore(
    net: PetriNet, state_limit: int, accelerate: bool
) -> Iterator[Tuple[StateGraph, str]]:
    """Breadth-first search over markings, shared by every state-space
    construction of this module.

    Yields (graph, state) for each state as it is discovered, so a caller
    can stop early; the graph then holds what was found so far.  States are
    named s0, s1, ... in discovery order, and each arc, labelled with its
    transition's label, is added as soon as it is found.  With `accelerate`,
    every successor marking goes through Karp-Miller acceleration, which
    makes the search finite.  Raises StateLimitExceededError, naming the
    graph being built, before a state past `state_limit` is added.
    """
    lts = Lts(name="", description="")
    for lab in net.labels:
        lts.add_label(lab)
    initial = net.initial_marking()
    names: Dict[Marking, str] = {initial: "s0"}
    lts.add_state("s0", initial=True)
    graph = StateGraph(lts, {"s0": initial})
    yield graph, "s0"
    queue = deque(["s0"])
    while queue:
        state = queue.popleft()
        marking = graph.markings[state]
        for t in net.transitions:
            if not enabled(net, marking, t):
                continue
            nxt = fire(net, marking, t)
            if accelerate:
                nxt = _accelerate(graph, state, nxt)
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
                name = f"s{len(names)}"
                names[nxt] = name
                lts.add_state(name)
                graph.markings[name] = nxt
                graph.parent[name] = (state, t)
                queue.append(name)
            graph.fired_transitions.add(t)
            lts.add_arc(state, net.label(t), name)
            if fresh:
                yield graph, name


def _graph(net: PetriNet, state_limit: int, accelerate: bool) -> StateGraph:
    """The whole graph of `_explore`."""
    for graph, _ in _explore(net, state_limit, accelerate):
        pass
    return graph


def reachability_graph(net: PetriNet, state_limit: int = DEFAULT_STATE_LIMIT) -> StateGraph:
    """All reachable markings, found by the shared breadth-first explorer:
    states are named s0, s1, ... in discovery order and arcs carry the
    transition's label.

    Raises StateLimitExceededError past `state_limit` states, which suggests
    an unbounded net; the coverability graph of an unbounded net is finite.
    """
    return _graph(net, state_limit, accelerate=False)


def coverability_graph(net: PetriNet) -> StateGraph:
    """Karp-Miller style graph from the shared breadth-first explorer: when a
    new marking strictly covers one of its ancestors on the tree path, the
    strictly increased places jump to OMEGA.  Identical omega-markings are
    merged globally.  For a bounded net no acceleration ever fires and the
    result is the reachability graph.

    The graph is finite, but can be huge: past DEFAULT_STATE_LIMIT states
    it raises StateLimitExceededError.
    """
    return _graph(net, DEFAULT_STATE_LIMIT, accelerate=True)


def _bounded_graph(net: PetriNet, state_limit: int, check: str) -> StateGraph:
    """The reachability graph of a bounded net, which is its coverability
    graph; raises UnboundedNetError if that graph holds an OMEGA."""
    graph = _graph(net, state_limit, accelerate=True)
    if any(m.has_omega() for m in graph.markings.values()):
        raise UnboundedNetError(f"{check} requires a bounded net")
    return graph


def _conflict_scan(net: PetriNet, state_limit: int, binary: bool) -> Check:
    plain = is_plain(net)
    if not plain:
        return Check(False, plain.witness, "not plain")
    graph = _bounded_graph(net, state_limit, "the check")
    for state in graph.lts.states:
        marking = graph.markings[state]
        live = [t for t in net.transitions if enabled(net, marking, t)]
        for i, t in enumerate(live):
            for u in live[i + 1 :]:
                if binary:
                    for p in net.places:
                        if marking.get(p) < net.flow(p, t) + net.flow(p, u):
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


def is_bcf(net: PetriNet, state_limit: int = DEFAULT_STATE_LIMIT) -> Check:
    """Behaviourally conflict-free: concurrently enabled transitions never
    share a pre-place.  Requires plain (else a negative answer) and bounded
    (else an error)."""
    return _conflict_scan(net, state_limit, binary=False)


def is_bicf(net: PetriNet, state_limit: int = DEFAULT_STATE_LIMIT) -> Check:
    """Binary conflict-free: markings cover the joint demand of every pair of
    concurrently enabled transitions."""
    return _conflict_scan(net, state_limit, binary=True)


def word_in_language(net: PetriNet, word: Sequence[str]) -> Check:
    """Whether some transition sequence labelled by `word` fires from the
    initial marking.  Search depth equals len(word), so this terminates on
    unbounded nets too.  The witness of a negative answer is the longest
    firable prefix.
    """
    alphabet = set(net.labels)
    for letter in word:
        if letter not in alphabet:
            raise AptError(f"unknown label {letter!r}")
    by_label: Dict[str, List[str]] = {}
    for t in net.transitions:
        by_label.setdefault(net.label(t), []).append(t)

    best_prefix = 0
    seen: Set[Tuple[int, Marking]] = set()
    stack: List[Tuple[Marking, int]] = [(net.initial_marking(), 0)]
    while stack:
        marking, position = stack.pop()
        best_prefix = max(best_prefix, position)
        if position == len(word):
            return Check(True)
        key = (position, marking)
        if key in seen:
            continue
        seen.add(key)
        for t in reversed(by_label[word[position]]):
            if enabled(net, marking, t):
                stack.append((fire(net, marking, t), position + 1))
    prefix = list(word[:best_prefix])
    return Check(False, prefix, f"maximal enabled prefix has length {best_prefix}")


def separable(
    net: PetriNet, k: int, length_bound: int, mode: str = "weak"
) -> SeparabilityVerdict:
    """Check (up to `length_bound`) whether behaviour from the initial marking
    k.M decomposes into k behaviours from M: Parikh-wise in weak mode, as a
    shuffle in strong mode.
    """
    if mode not in ("weak", "strong"):
        raise AptError("mode must be 'weak' or 'strong'")
    if k < 2:
        raise AptError("k must be at least 2")
    initial = net.initial_marking()
    if any(c % k != 0 for c in initial.counts):
        raise AptError(f"initial marking is not divisible by {k}")
    base = Marking(initial.places, tuple(c // k for c in initial.counts))

    labels = list(net.transitions)

    def parikh_key(counts: Dict[str, int]) -> Tuple[int, ...]:
        return tuple(counts.get(t, 0) for t in labels)

    # Parikh vectors of sequences firable from `base`, up to the bound.  The
    # marking after a sequence depends only on its Parikh vector, so vectors
    # are a faithful search state.
    base_vectors: Set[Tuple[int, ...]] = set()
    frontier: Dict[Tuple[int, ...], Marking] = {parikh_key({}): base}
    base_vectors.add(parikh_key({}))
    for _ in range(length_bound):
        nxt: Dict[Tuple[int, ...], Marking] = {}
        for vec, marking in frontier.items():
            for i, t in enumerate(labels):
                if enabled(net, marking, t):
                    new_vec = tuple(v + (1 if j == i else 0) for j, v in enumerate(vec))
                    if new_vec not in base_vectors:
                        base_vectors.add(new_vec)
                        nxt[new_vec] = fire(net, marking, t)
        frontier = nxt

    def weak_decomposes(target: Tuple[int, ...], parts: int) -> bool:
        if parts == 1:
            return target in base_vectors
        candidates = [
            v for v in base_vectors if all(a <= b for a, b in zip(v, target))
        ]
        for v in candidates:
            rest = tuple(b - a for a, b in zip(v, target))
            if weak_decomposes(rest, parts - 1):
                return True
        return False

    def strong_accepts(sequence: Tuple[str, ...]) -> bool:
        # States: multisets of k component markings, advanced letter by letter.
        states: Set[Tuple[Marking, ...]] = {tuple([base] * k)}
        for t in sequence:
            nxt_states: Set[Tuple[Marking, ...]] = set()
            for combo in states:
                for i in range(k):
                    if i > 0 and combo[i] == combo[i - 1]:
                        continue  # symmetric choice
                    if enabled(net, combo[i], t):
                        fired = fire(net, combo[i], t)
                        new_combo = tuple(
                            sorted(
                                combo[:i] + (fired,) + combo[i + 1 :],
                                key=lambda m: m.counts,
                            )
                        )
                        nxt_states.add(new_combo)
            if not nxt_states:
                return False
            states = nxt_states
        return True

    # Depth-first over firing sequences from k.M, shortest first per prefix.
    stack: List[Tuple[Marking, Tuple[str, ...]]] = [(initial, ())]
    while stack:
        marking, sequence = stack.pop()
        if sequence:
            if mode == "weak":
                counts: Dict[str, int] = {}
                for t in sequence:
                    counts[t] = counts.get(t, 0) + 1
                ok = weak_decomposes(parikh_key(counts), k)
            else:
                ok = strong_accepts(sequence)
            if not ok:
                return SeparabilityVerdict("no", sequence)
        if len(sequence) < length_bound:
            for t in reversed(labels):
                if enabled(net, marking, t):
                    stack.append((fire(net, marking, t), sequence + (t,)))
    return SeparabilityVerdict("inconclusive")


def bounded(net: PetriNet, k: Optional[int] = None) -> Check:
    """Without k: bounded iff the coverability graph is omega-free.  With k:
    every reachable marking keeps every place at or below k.

    A negative answer carries (place, firing sequence); the sequence is
    shortest in BFS order and its final marking shows the excess.
    """
    cover = coverability_graph(net)
    omega_state = next(
        (s for s in cover.lts.states if cover.markings[s].has_omega()), None
    )
    if k is None:
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
    if omega_state is None:
        graph = reachability_graph(net)
    else:
        graph = None  # unbounded: search concrete markings breadth-first
    if graph is not None:
        for state in graph.lts.states:  # discovery order
            marking = graph.markings[state]
            for place, count in marking.items():
                if count > k:
                    return Check(
                        False,
                        (place, graph.path_to(state)),
                        f"place {place} reaches {count} > {k} tokens",
                    )
        return Check(True)
    # Unbounded net: some reachable marking must exceed k; plain BFS finds a
    # shortest witness without needing the full (infinite) state space.
    initial = net.initial_marking()
    seen = {initial}
    parent: Dict[Marking, Tuple[Marking, str]] = {}
    queue = deque([initial])
    while queue:
        marking = queue.popleft()
        for place, count in marking.items():
            if count > k:
                path: List[str] = []
                cursor = marking
                while cursor in parent:
                    cursor, t = parent[cursor]
                    path.append(t)
                path.reverse()
                return Check(
                    False, (place, path), f"place {place} reaches {count} > {k} tokens"
                )
        for t in net.transitions:
            if enabled(net, marking, t):
                nxt = fire(net, marking, t)
                if nxt not in seen:
                    seen.add(nxt)
                    parent[nxt] = (marking, t)
                    queue.append(nxt)
    raise AptError("unreachable: an unbounded net always exceeds k somewhere")


# The structural predicates, which scanned every (place, transition) pair
# through net.flow; the rewritten ones read each place's pre- and postset.


def side_conditions(net: PetriNet) -> List[Tuple[str, str]]:
    """All (place, transition) pairs connected in both directions."""
    out = []
    for p in net.places:
        for t in net.transitions:
            if net.flow(p, t) > 0 and net.flow(t, p) > 0:
                out.append((p, t))
    return out


def is_output_nonbranching(net: PetriNet) -> Check:
    for p in net.places:
        post = [t for t in net.transitions if net.flow(p, t) > 0]
        if len(post) > 1:
            return Check(False, p, f"place {p} feeds {len(post)} transitions")
    return Check(True)


def is_conflict_free(net: PetriNet) -> Check:
    plain = is_plain(net)
    if not plain:
        return Check(False, plain.witness, "not plain: " + plain.detail)
    for p in net.places:
        post = {t for t in net.transitions if net.flow(p, t) > 0}
        pre = {t for t in net.transitions if net.flow(t, p) > 0}
        if len(post) > 1 and not post <= pre:
            return Check(False, p, f"place {p} branches outside its preset")
    return Check(True)


def is_tnet(net: PetriNet) -> Check:
    plain = is_plain(net)
    if not plain:
        return Check(False, plain.witness, "not plain: " + plain.detail)
    for p in net.places:
        post = [t for t in net.transitions if net.flow(p, t) > 0]
        pre = [t for t in net.transitions if net.flow(t, p) > 0]
        if len(post) > 1 or len(pre) > 1:
            return Check(False, p, f"place {p} has |pre|={len(pre)}, |post|={len(post)}")
    return Check(True)


def is_marked_graph(net: PetriNet) -> Check:
    tnet = is_tnet(net)
    if not tnet:
        return tnet
    for p in net.places:
        post = [t for t in net.transitions if net.flow(p, t) > 0]
        pre = [t for t in net.transitions if net.flow(t, p) > 0]
        if len(post) != 1 or len(pre) != 1:
            return Check(False, p, f"place {p} has |pre|={len(pre)}, |post|={len(post)}")
    return Check(True)


def _undirected_neighbours(net: PetriNet, node: str) -> Set[str]:
    out = set(net.postset(node))
    out.update(net.preset(node))
    return out


def is_weakly_connected(net: PetriNet) -> Check:
    nodes = [*net.places, *net.transitions]
    if not nodes:
        return Check(True)
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        node = queue.popleft()
        for other in _undirected_neighbours(net, node):
            if other not in seen:
                seen.add(other)
                queue.append(other)
    for node in nodes:
        if node not in seen:
            return Check(False, node, f"{node} is in a different component")
    return Check(True)


def is_strongly_connected(net: PetriNet) -> Check:
    nodes = [*net.places, *net.transitions]
    if not nodes:
        return Check(True)

    def closure(start: str, forward: bool) -> Set[str]:
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            step = net.postset(node) if forward else net.preset(node)
            for other in step:
                if other not in seen:
                    seen.add(other)
                    queue.append(other)
        return seen

    fwd = closure(nodes[0], True)
    bwd = closure(nodes[0], False)
    for node in nodes:
        if node not in fwd or node not in bwd:
            return Check(False, node, f"{node} breaks strong connectedness")
    return Check(True)
