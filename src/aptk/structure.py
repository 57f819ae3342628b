"""Matrix views and linear-structural analyses of nets: incidence matrices,
S/T-invariants and coveredness, minimal siphons and traps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from . import linalg
from .common import AptError, BoundExceededError, Check, PreconditionError
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

    A siphon S needs: every transition producing into S also consumes from S;
    a trap swaps producing and consuming.  So a place's demands, and a
    transition's suppliers, are its preset (siphon) or postset (trap).  Place
    sets are bitmasks.  A set's largest closed subset drops each place with
    an unsupplied demand until none is left.  Per seed place, earlier places
    excluded, a depth-first search grows a set while that subset is empty,
    splitting over the suppliers of its first unsupplied demand.  It ends a
    branch whose subset is nonempty but smaller, as every extension strictly
    contains a closed set, and reports a closed set only when no set one
    place smaller has a nonempty closed subset, that is, when it is minimal.
    Above DEFAULT_PLACE_CAP places it raises PreconditionError, and past
    linalg.DEFAULT_FRONTIER_LIMIT visited sets BoundExceededError; both are
    read at call time, and the cap bounds the cost of each visited set.
    """
    places = net.places
    if len(places) > DEFAULT_PLACE_CAP:
        raise PreconditionError(
            f"net has {len(places)} places, above the cap of {DEFAULT_PLACE_CAP}"
        )
    limit = linalg.DEFAULT_FRONTIER_LIMIT
    arcs = net._post if as_trap else net._pre
    bit = {p: 1 << i for i, p in enumerate(places)}
    # per place, the supplier mask of each of its demands, in stored order
    demands = [[sum(map(bit.__getitem__, arcs[t])) for t in arcs[p]] for p in places]

    def members(mask: int) -> List[int]:
        return [i for i in range(len(places)) if mask >> i & 1]

    def closed_part(mask: int) -> int:
        while True:
            kept, rest = mask, mask
            while rest:  # members(mask), inlined: the search's hot path
                low = rest & -rest
                rest ^= low
                for supply in demands[low.bit_length() - 1]:
                    if not supply & kept:
                        kept ^= low
                        break
            if kept == mask:
                return mask
            mask = kept

    found, steps = [], 0
    for seed in range(len(places)):
        stack = [(1 << seed, (1 << seed) - 1)]
        while stack:
            included, excluded = stack.pop()
            steps += 1
            if steps > limit:
                raise BoundExceededError(
                    f"the {'trap' if as_trap else 'siphon'} search passed its limit of {limit} steps"
                )
            core = closed_part(included)
            if core == included:
                if not any(closed_part(included ^ (1 << i)) for i in members(included)):
                    found.append(tuple(members(included)))
            elif not core:
                pending = next(s for i in members(included) for s in demands[i] if not s & included)
                # first candidate in, or it banned and the next one in, ...; the first on top
                candidates = pending & ~(included | excluded)
                for i in reversed(members(candidates)):
                    stack.append((included | (1 << i), excluded | candidates & ((1 << i) - 1)))
    return [tuple(places[i] for i in indices) for indices in sorted(found)]


def minimal_siphons(net: PetriNet) -> List[Tuple[str, ...]]:
    """All inclusion-minimal nonempty place sets S with pre(S) contained in
    post(S): every transition feeding S also takes from S.  Arc weights are
    ignored, only flow presence matters."""
    return _minimal_closed_sets(net, as_trap=False)


def minimal_traps(net: PetriNet) -> List[Tuple[str, ...]]:
    """All inclusion-minimal nonempty place sets S with post(S) contained in
    pre(S): every transition taking from S also feeds S."""
    return _minimal_closed_sets(net, as_trap=True)


def _is_closed(net: PetriNet, place_set, as_trap: bool) -> bool:
    """The definition, checked transition by transition; independent of the
    search, so tests can judge it.  A name that is no place raises."""
    included = set(place_set)
    unknown = sorted(included.difference(net._places))
    if unknown:
        raise AptError(f"unknown place {unknown[0]!r}")
    if not included:
        return False
    for t in net.transitions:
        into = any(net.flow(t, p) > 0 for p in included)
        out = any(net.flow(p, t) > 0 for p in included)
        if (out and not into) if as_trap else (into and not out):
            return False
    return True


def is_siphon(net: PetriNet, place_set) -> bool:
    return _is_closed(net, place_set, as_trap=False)


def is_trap(net: PetriNet, place_set) -> bool:
    return _is_closed(net, place_set, as_trap=True)
