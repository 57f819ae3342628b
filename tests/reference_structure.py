"""The minimal siphon and trap search that aptk.structure replaced, kept
verbatim as the reference for the differential tests.

It recurses over sets of place names, branching on an unsatisfied demand
of whichever included place a set's iteration meets first, stores every
closed set it reaches, and keeps the inclusion-minimal ones in a final
subset filter.  The bitmask search of aptk.structure must return the same
lists on every net this one answers.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from aptk import linalg
from aptk.common import BoundExceededError, PreconditionError
from aptk.petri import PetriNet
from aptk.structure import DEFAULT_PLACE_CAP


def _minimal_closed_sets(net: PetriNet, as_trap: bool) -> List[Tuple[str, ...]]:
    """Shared engine for minimal siphons and traps.

    A siphon S needs: every transition producing into S also consumes from S.
    A trap is the same with the roles of producing/consuming swapped.  The
    search branches on the least place contained in the set and propagates
    each unsatisfied demand by case-splitting over its candidate suppliers.
    Above DEFAULT_PLACE_CAP places, read at call time, it raises
    PreconditionError; the cap also bounds the depth of the recursion.  The
    search can still visit exponentially many closed sets, so past
    linalg.DEFAULT_FRONTIER_LIMIT calls of `search`, read at call time, it
    raises BoundExceededError.
    """
    places = net.places
    if len(places) > DEFAULT_PLACE_CAP:
        raise PreconditionError(
            f"net has {len(places)} places, above the cap of {DEFAULT_PLACE_CAP}"
        )
    limit = linalg.DEFAULT_FRONTIER_LIMIT
    calls = 0
    transitions = net.transitions

    # For place p: demanding transitions that must be supplied from inside the
    # set, and per transition the places that can supply it.
    if as_trap:
        demand_of = {p: [t for t in transitions if net.flow(p, t) > 0] for p in places}
        supply_of = {t: [p for p in places if net.flow(t, p) > 0] for t in transitions}
    else:
        demand_of = {p: [t for t in transitions if net.flow(t, p) > 0] for p in places}
        supply_of = {t: [p for p in places if net.flow(p, t) > 0] for t in transitions}

    results: List[Set[str]] = []

    def satisfied(t: str, included: Set[str]) -> bool:
        return any(p in included for p in supply_of[t])

    def search(included: Set[str], excluded: Set[str]) -> None:
        nonlocal calls
        calls += 1
        if calls > limit:
            raise BoundExceededError(
                f"the {'trap' if as_trap else 'siphon'} search passed its limit of {limit} steps"
            )
        # find an unsatisfied demand
        pending: Optional[str] = None
        for p in included:
            for t in demand_of[p]:
                if not satisfied(t, included):
                    pending = t
                    break
            if pending:
                break
        if pending is None:
            results.append(set(included))
            return
        candidates = [p for p in supply_of[pending] if p not in excluded and p not in included]
        # split: first candidate in, or excluded and the next one in, ...
        banned: Set[str] = set()
        for p in candidates:
            search(included | {p}, excluded | banned)
            banned.add(p)

    for i, seed in enumerate(places):
        search({seed}, set(places[:i]))

    minimal: List[Tuple[str, ...]] = []
    results.sort(key=lambda s: (len(s), sorted(places.index(p) for p in s)))
    kept: List[Set[str]] = []
    for candidate in results:
        if any(prev <= candidate for prev in kept):
            continue
        kept.append(candidate)
        minimal.append(tuple(p for p in places if p in candidate))
    minimal.sort(key=lambda s: tuple(places.index(p) for p in s))
    return minimal


def minimal_siphons(net: PetriNet) -> List[Tuple[str, ...]]:
    return _minimal_closed_sets(net, as_trap=False)


def minimal_traps(net: PetriNet) -> List[Tuple[str, ...]]:
    return _minimal_closed_sets(net, as_trap=True)
