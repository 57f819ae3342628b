"""Independent correctness checks for benchmark outputs.

Nothing here imports aptk: the `.apt` text that `apt` writes is read with
a small line-based reader of our own, nets are re-expanded with our own
firing rule, and expected sizes come from closed forms or brute force.
"""

from __future__ import annotations

import re
from collections import deque
from itertools import combinations
from math import comb
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

# -- expected sizes -------------------------------------------------------


def bitnet_size(n: int) -> Tuple[int, int]:
    """States and arcs of bitnet(n): 2^n markings, n enabled flips in each."""
    return 2**n, n * 2**n


def cyclenet_size(n: int, k: int) -> Tuple[int, int]:
    """k tokens over n ring places: C(n+k-1, k) markings; an arc leaves each
    (marking, marked place) pair, counted by fixing one token on the place."""
    return comb(n + k - 1, k), n * comb(n + k - 2, k - 1)


def philnet_size(n: int) -> Tuple[int, int]:
    """Reachable markings are the sets of eating philosophers with no two
    neighbours; each eater can put, each free non-neighbour can take."""
    states = arcs = 0
    for size in range(n + 1):
        for eaters in combinations(range(n), size):
            eating = set(eaters)
            if any((i + 1) % n in eating for i in eating):
                continue
            states += 1
            arcs += len(eating)
            arcs += sum(
                1
                for i in range(n)
                if i not in eating and (i - 1) % n not in eating and (i + 1) % n not in eating
            )
    return states, arcs


# -- reading apt output ---------------------------------------------------

_MULTISET = re.compile(r"(?:(\d+)\s*\*\s*)?([^\s,{}]+)")


def _multiset(text: str) -> Dict[str, int]:
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"not a multiset: {text!r}")
    out: Dict[str, int] = {}
    for count, name in _MULTISET.findall(inner[1:-1]):
        out[name] = out.get(name, 0) + int(count or 1)
    return out


class Net:
    """A place/transition net read from LPN text: per-transition pre and post
    multisets over places, and the initial marking."""

    def __init__(self, places: Sequence[str], transitions: Sequence[str]):
        self.places = list(places)
        self.index = {p: i for i, p in enumerate(self.places)}
        self.transitions = list(transitions)
        self.pre: Dict[str, Dict[str, int]] = {t: {} for t in transitions}
        self.post: Dict[str, Dict[str, int]] = {t: {} for t in transitions}
        self.initial: Dict[str, int] = {}

    @classmethod
    def parse(cls, text: str) -> "Net":
        lines = [line.strip() for line in text.splitlines()]
        section = None
        places: List[str] = []
        transitions: List[str] = []
        flows: List[str] = []
        initial = "{ }"
        for line in lines:
            if not line:
                continue
            if line.startswith(".initial_marking"):
                initial = line[len(".initial_marking"):]
                section = None
            elif line.startswith("."):
                section = line.split()[0]
            elif section == ".places":
                places += line.split()
            elif section == ".transitions":
                transitions += [entry.split("[")[0] for entry in line.split()]
            elif section == ".flows":
                flows.append(line)
        net = cls(places, transitions)
        for line in flows:
            head, _, rest = line.partition(":")
            pre, _, post = rest.partition("->")
            net.pre[head.strip()] = _multiset(pre)
            net.post[head.strip()] = _multiset(post)
        net.initial = _multiset(initial)
        return net

    def fire(self, marking: Tuple[int, ...], t: str) -> Optional[Tuple[int, ...]]:
        out = list(marking)
        for p, w in self.pre[t].items():
            if out[self.index[p]] < w:
                return None
            out[self.index[p]] -= w
        for p, w in self.post[t].items():
            out[self.index[p]] += w
        return tuple(out)

    def initial_marking(self) -> Tuple[int, ...]:
        return tuple(self.initial.get(p, 0) for p in self.places)


def net_from_regions(labels: Sequence[str], regions: Iterable[Tuple[int, Sequence[int], Sequence[int]]]) -> Net:
    """The net whose places are the given (initial, backward, forward) regions."""
    regions = list(regions)
    net = Net([f"p{i}" for i in range(len(regions))], labels)
    for i, (initial, backward, forward) in enumerate(regions):
        net.initial[f"p{i}"] = initial
        for t, b, f in zip(labels, backward, forward):
            if b:
                net.pre[t][f"p{i}"] = b
            if f:
                net.post[t][f"p{i}"] = f
    return net


def expand(net: Net, limit: int) -> Optional[Tuple[int, int]]:
    """(states, arcs) of the reachability graph, or None past `limit` states."""
    start = net.initial_marking()
    seen = {start}
    queue = deque([start])
    arcs = 0
    while queue:
        marking = queue.popleft()
        for t in net.transitions:
            nxt = net.fire(marking, t)
            if nxt is None:
                continue
            arcs += 1
            if nxt not in seen:
                if len(seen) >= limit:
                    return None
                seen.add(nxt)
                queue.append(nxt)
    return len(seen), arcs


class LtsText:
    """States, initial state and arcs of LTS text as apt writes it."""

    def __init__(self, text: str):
        self.states: List[str] = []
        self.initial: Optional[str] = None
        self.arcs: List[Tuple[str, str, str]] = []
        section = None
        for raw in text.splitlines():
            line = raw.split("/*")[0].strip()
            if not line:
                continue
            if line.startswith("."):
                section = line.split()[0]
            elif section == ".states":
                name = line.split("[")[0].strip()
                self.states.append(name)
                if "[initial]" in line:
                    self.initial = name
            elif section == ".arcs":
                self.arcs.append(tuple(line.split()))


def write_lts(states: Sequence[str], initial: str, labels: Sequence[str], arcs: Sequence[Tuple[str, str, str]]) -> str:
    lines = ['.name ""', ".type LTS", ".states"]
    lines += [f"{s}[initial]" if s == initial else s for s in states]
    lines += [".labels", " ".join(labels), ".arcs"]
    lines += [f"{s} {t} {s2}" for s, t, s2 in arcs]
    return "\n".join(lines) + "\n"


# -- report fields ------------------------------------------------------------


def report(stdout: str) -> Dict[str, str]:
    """The `key: value` lines of an apt report."""
    fields: Dict[str, str] = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def failed_problems(fields: Dict[str, str], rename: Dict[str, str]) -> Tuple[Set[FrozenSet[str]], Dict[str, Set[str]]]:
    """Failed state pairs and failed (label -> states) of a synthesis report,
    with state names mapped through `rename`."""
    ssp = {
        frozenset(rename[s.strip()] for s in pair.split(","))
        for pair in re.findall(r"\[([^\[\]]+)\]", fields.get("failedStateSeparationProblems", ""))
    }
    essp: Dict[str, Set[str]] = {}
    for label, states in re.findall(r"(\S+?)=\[([^\]]*)\]", fields.get("failedEventStateSeparationProblems", "")):
        essp[label.lstrip("{, ")] = {rename[s.strip()] for s in states.split(",") if s.strip()}
    return ssp, essp


def isomorphism_errors(mapping_text: str, first: LtsText, second: LtsText) -> List[str]:
    """Check an `a->b` state mapping is an isomorphism from `first` to `second`."""
    pairs = [item.split("->") for item in mapping_text.strip("{}").split(", ") if item]
    mapping = {a.strip(): b.strip() for a, b in pairs}
    errors = []
    if sorted(mapping) != sorted(first.states) or sorted(mapping.values()) != sorted(second.states):
        errors.append("mapping is not a bijection between the state sets")
    elif mapping[first.initial] != second.initial:
        errors.append("mapping does not send initial to initial")
    elif {(mapping[s], t, mapping[s2]) for s, t, s2 in first.arcs} != set(second.arcs):
        errors.append("mapping does not preserve the arcs")
    return errors


def replay_exceeds(net: Net, sequence: Sequence[str], place: str, k: int) -> bool:
    """Whether `sequence` fires from the initial marking and ends with more
    than k tokens on `place`."""
    marking: Optional[Tuple[int, ...]] = net.initial_marking()
    for t in sequence:
        if t not in net.pre:
            return False
        marking = net.fire(marking, t)
        if marking is None:
            return False
    return marking[net.index[place]] > k
