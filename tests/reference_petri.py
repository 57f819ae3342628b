"""The bounded() that aptk.petri replaced, kept verbatim as the reference
for the differential tests of bounded(net, k).

It builds the coverability graph first; with k, it then scans either the
whole reachability graph (bounded net) or a breadth-first search of its
own over concrete markings (unbounded net).  Both branches scan markings in
discovery order and return BFS-parent paths, so the shared explorer's
single early-stopping search must return the same (ok, witness, detail).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from aptk.common import AptError, Check
from aptk.petri import (
    OMEGA,
    Marking,
    PetriNet,
    coverability_graph,
    enabled,
    fire,
    reachability_graph,
)


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
