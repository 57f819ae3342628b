"""Matrix views and linear-structural analyses of nets: incidence matrices,
S/T-invariants and coveredness, minimal siphons and traps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from . import linalg
from .common import BoundExceededError, Check, PreconditionError
from .petri import PetriNet

DEFAULT_PLACE_CAP = 64


@dataclass(frozen=True)
class IncidenceMatrices:
    """Backward, forward and incidence matrices, |P| x |T| each."""

    places: Tuple[str, ...]
    transitions: Tuple[str, ...]
    backward: Tuple[Tuple[int, ...], ...]
    forward: Tuple[Tuple[int, ...], ...]
    incidence: Tuple[Tuple[int, ...], ...]


def incidence_matrices(net: PetriNet) -> IncidenceMatrices:
    places = net.places
    transitions = net.transitions
    backward = tuple(
        tuple(net.flow(p, t) for t in transitions) for p in places
    )
    forward = tuple(tuple(net.flow(t, p) for t in transitions) for p in places)
    incidence = tuple(
        tuple(f - b for f, b in zip(frow, brow))
        for frow, brow in zip(forward, backward)
    )
    return IncidenceMatrices(places, transitions, backward, forward, incidence)


def invariants(net: PetriNet, kind: str) -> List[Tuple[int, ...]]:
    """Minimal semipositive S-invariants (x.C = 0, over places) or
    T-invariants (C.x = 0, over transitions)."""
    if kind not in ("S", "T"):
        raise PreconditionError("kind must be 'S' or 'T'")
    matrices = incidence_matrices(net)
    if kind == "S":
        return linalg.minimal_semipositive_solutions(
            matrices.incidence, side="left", dim=len(net.places)
        )
    return linalg.minimal_semipositive_solutions(
        matrices.incidence, side="right", dim=len(net.transitions)
    )


def covered_by_invariants(net: PetriNet, kind: str) -> Check:
    """Every place (kind='S') or transition (kind='T') lies in the support of
    some minimal invariant."""
    solutions = invariants(net, kind)
    elements = net.places if kind == "S" else net.transitions
    for i, element in enumerate(elements):
        if not any(sol[i] > 0 for sol in solutions):
            return Check(False, element, f"{element} is covered by no {kind}-invariant")
    return Check(True)


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
    """All inclusion-minimal nonempty place sets S with pre(S) contained in
    post(S): every transition feeding S also takes from S.  Arc weights are
    ignored, only flow presence matters."""
    return _minimal_closed_sets(net, as_trap=False)


def minimal_traps(net: PetriNet) -> List[Tuple[str, ...]]:
    """All inclusion-minimal nonempty place sets S with post(S) contained in
    pre(S): every transition taking from S also feeds S."""
    return _minimal_closed_sets(net, as_trap=True)


def is_siphon(net: PetriNet, place_set) -> bool:
    included = set(place_set)
    if not included:
        return False
    for t in net.transitions:
        feeds = any(net.flow(t, p) > 0 for p in included)
        if feeds and not any(net.flow(p, t) > 0 for p in included):
            return False
    return True


def is_trap(net: PetriNet, place_set) -> bool:
    included = set(place_set)
    if not included:
        return False
    for t in net.transitions:
        takes = any(net.flow(p, t) > 0 for p in included)
        if takes and not any(net.flow(t, p) > 0 for p in included):
            return False
    return True
