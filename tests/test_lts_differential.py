"""Differential tests: aptk.lts.isomorphic and aptk.lts.bisimilar against
the versions kept in reference_lts.py, which scanned `mapping.values()`
once per mapped state and tested every pair of states for the relation.
Both must give the same verdict, witness and detail on every pair."""

from collections import Counter, defaultdict

from hypothesis import given, seed, settings, strategies as st

from aptk import Lts, bisimilar, isomorphic, reachability_graph
from aptk.generators import bitnet, cyclenet
from reference_lts import bisimilar as reference_bisimilar
from reference_lts import isomorphic as reference_isomorphic
from test_lts import small_lts
from test_synthesis import _canonical_instances


def _same(check, expected):
    return (check.ok, check.witness, check.detail) == (
        expected.ok,
        expected.witness,
        expected.detail,
    )


def _renamed(lts):
    return Lts.from_data(
        f"copy_{lts.initial}",
        [(f"copy_{a.source}", a.label, f"copy_{a.target}") for a in lts.arcs],
        states=[f"copy_{s}" for s in lts.states],
        labels=list(lts.labels),
    )


def test_isomorphic_and_bisimilar_match_reference_on_canonical_pairs():
    by_size = defaultdict(list)
    for lts in _canonical_instances(3, 2):
        by_size[len(lts.states)].append(lts)
    seen = Counter()
    systems = [lts for group in by_size.values() for lts in group[:40]]
    for l1 in systems:
        for l2 in systems + [_renamed(l1)]:
            expected = reference_isomorphic(l1, l2)
            assert _same(isomorphic(l1, l2), expected), (l1.arcs, l2.arcs)
            seen[expected.detail] += 1
            expected = reference_bisimilar(l1, l2)
            assert _same(bisimilar(l1, l2), expected), (l1.arcs, l2.arcs)
            seen[expected.ok] += 1
    # every outcome of the walk, and both bisimulation verdicts, occur
    assert {"", "walk is not injective", "state counts differ", True, False} <= set(seen)
    assert any(str(detail).startswith("targets disagree") for detail in seen)


def test_isomorphic_and_bisimilar_match_reference_on_state_graphs():
    graphs = [reachability_graph(net).lts for net in (bitnet(4), cyclenet(4, 2), cyclenet(2, 4))]
    for l1 in graphs:
        for l2 in graphs + [_renamed(l1)]:
            assert _same(isomorphic(l1, l2), reference_isomorphic(l1, l2))
            assert _same(bisimilar(l1, l2), reference_bisimilar(l1, l2))


@seed(20150602)
@settings(max_examples=200, deadline=None)
@given(small_lts(), small_lts(), st.booleans())
def test_isomorphic_and_bisimilar_match_reference_on_random_pairs(l1, l2, copy):
    # small_lts systems may be nondeterministic and partly unreachable
    if copy:
        l2 = _renamed(l1)
    assert _same(isomorphic(l1, l2), reference_isomorphic(l1, l2))
    assert _same(bisimilar(l1, l2), reference_bisimilar(l1, l2))
