"""The `isomorphic`, `bisimilar` and `is_persistent` of aptk.lts before
their quadratic scans went, kept verbatim as the reference for their
differential tests.

`isomorphic`'s walk tested each newly mapped target against
`mapping.values()`; `bisimilar` built its witness relation by testing
every pair of states of the two systems; `is_persistent` scanned a state's
arcs in every `successors` call.  The current functions must give the same
verdict, witness and detail on every input, and `is_persistent` the same
PreconditionError.

`reachable_states`, `is_reversible` and `weakly_connected_components` are
the breadth-first walks that each kept a deque of its own, before all of
them shared one closure routine; `is_reversible` filtered its backward
walk to the reachable states.  The current functions must return the same
lists in the same order, and the same verdict, witness and detail.

`_elementary_cycles` is the cycle search that built a Counter from the
whole path for each cycle, with a cap of its own on cycles besides the
state limit on path extensions; `small_cycle_parikh_vectors`
deduplicated its ParikhVectors by a list-membership scan and filtered
them with `strictly_below`.  The current small-cycle checks must return
the same vectors in the same order, or raise the same error type.

`strongly_connected_components` is Tarjan's one-pass stack algorithm,
before Kosaraju's two passes over `_closure` replaced it; the current
function must return the same components in the same order.
`language_equivalent` is the subset construction over frozensets of state
names, before a subset became its lowest state index and a bitmask; the
current function must give the same verdict, witness and detail, or
raise the same error.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, Iterable, List, Optional, Tuple

from aptk.common import Check, CycleCapExceededError, PreconditionError, StateLimitExceededError
from aptk.lts import Arc, Lts, ParikhVector, _signature, is_deterministic, is_totally_reachable

DEFAULT_CYCLE_CAP = 10 ** 6


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


def _elementary_cycles(lts: Lts):
    """Yield Parikh vectors of all simple cycles in the reachable part.

    Cycles are enumerated per anchor state using only states that come later
    in discovery order, so each cycle is produced exactly once (up to
    rotation).  Parallel arcs with different labels give distinct cycles.
    Past DEFAULT_CYCLE_CAP cycles, or petri.DEFAULT_STATE_LIMIT path
    extensions (exponentially many paths can close no cycle), both read at
    call time, it raises CycleCapExceededError.
    """
    from aptk.petri import DEFAULT_STATE_LIMIT as limit

    cap = DEFAULT_CYCLE_CAP
    reach = reachable_states(lts)
    pos = {s: i for i, s in enumerate(reach)}
    produced = steps = 0
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
                    yield ParikhVector(Counter(labels + [arc.label]))
                elif tgt not in on_path:
                    steps += 1
                    if steps > limit:
                        raise CycleCapExceededError(f"the cycle search passed its limit of {limit} path steps")
                    on_path.add(tgt)
                    labels.append(arc.label)
                    stack.append((tgt, iter(lts.arcs_from(tgt))))
                    break
            else:
                stack.pop()
                if labels:
                    labels.pop()
                on_path.discard(state)


def small_cycle_parikh_vectors(lts: Lts) -> List[ParikhVector]:
    """Parikh vectors of small cycles: the minimal elements, under the strict
    componentwise order, among Parikh vectors of all simple cycles reachable
    from the initial state.

    Every cycle decomposes into simple cycles through its own states, so the
    minimal vectors are attained on simple cycles.
    """
    vectors: List[ParikhVector] = []
    for pv in _elementary_cycles(lts):
        if pv not in vectors:
            vectors.append(pv)
    minimal = [
        pv
        for pv in vectors
        if not any(other.strictly_below(pv) for other in vectors)
    ]
    return minimal


def cycles_same_pv(lts: Lts) -> bool:
    """Strong small cycle property: all small cycles share one Parikh vector."""
    return len(small_cycle_parikh_vectors(lts)) <= 1


def weak_small_cycle_property(lts: Lts) -> bool:
    """Distinct small-cycle Parikh vectors must have pairwise disjoint supports."""
    vectors = small_cycle_parikh_vectors(lts)
    for i, pv in enumerate(vectors):
        for other in vectors[i + 1 :]:
            if pv.support() & other.support():
                return False
    return True


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


def language_equivalent(l1: Lts, l2: Lts) -> Check:
    """Prefix-language equality, via subset construction on the reachable parts.

    On inequality the witness is a shortest distinguishing word (enabled in
    exactly one of the systems).  Past petri.DEFAULT_STATE_LIMIT subset
    pairs, read at call time, it raises StateLimitExceededError.
    """
    from aptk.petri import DEFAULT_STATE_LIMIT as limit

    labels = list(dict.fromkeys(l1.labels + l2.labels))

    def step(lts: Lts, states: frozenset, label: str) -> frozenset:
        out = set()
        for s in states:
            out.update(lts.successors(s, label))
        return frozenset(out)

    start = (frozenset({l1.initial}), frozenset({l2.initial}))
    # each subset pair reached, with the (pair, label) it was reached by
    parents: Dict[Tuple[frozenset, frozenset], Optional[Tuple]] = {start: None}
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
                while parents[cursor] is not None:
                    cursor, lab = parents[cursor]
                    word.append(lab)
                word.reverse()
                side = "first" if next1 else "second"
                return Check(False, word, f"word enabled only in the {side} system")
            if next1 and (next1, next2) not in parents:
                if len(parents) >= limit:
                    raise StateLimitExceededError(f"the subset construction has more than {limit} state pairs")
                parents[(next1, next2)] = (pair, label)
                queue.append((next1, next2))
    return Check(True)
