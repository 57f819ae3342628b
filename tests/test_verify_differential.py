"""Differential tests: the lockstep verification and the region replay of
aptk.synthesis against the checks they replaced.

`_verify_success` builds the net's reachability graph, with no more
states than the input has, and walks it alongside the input.  Its
reference, kept in reference_synthesis.py, builds that graph within a
looser state budget and searches for an isomorphism to the input (under
`language`, compares the languages).  The inputs are
those of the digest families of test_output_digests.py, in their modes,
and the canonical sweep: every canonical system of at most 4 states and 2
labels under `none`.  Both checks must accept every net synthesized for
them.  On each such net six kinds of mutant are built: a place dropped,
one arc's weight raised by one, one place's initial tokens raised by one,
an extra transition with an empty preset and postset, of a fresh label
or of one the net has already, and a twin of a transition, with its
label, enabled where it is, that leaves the marking as it is.  The twin
comes first, so a check that kept only each label's last arc would miss
it.  Both
checks must give each mutant the same verdict, and the new one rejects
with InternalError.  The reference rejects with InternalError, or with
StateLimitExceededError where the mutant's reachability graph outgrows
its state budget.

`_Engine._replay` replays a region over the engine's successor lists.
For every region found on those inputs it must return the values
`check_region` returns, in its order.  On corrupted regions it must raise
the same InternalError: a negative initial value, a blocked arc and a
path-dependent value.

A successful synthesis builds the net's reachability graph once and calls
none of `isomorphic`, `language_equivalent` and `bounded`.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from aptk import PetriNet, PropertySet, Lts, reachability_graph, synthesize, word_synthesize
from aptk import lts as lts_module
from aptk import petri as petri_module
from aptk import synthesis as synthesis_module
from aptk.common import InternalError, StateLimitExceededError
from aptk.generators import bitnet
from aptk.synthesis import _Engine, _verify_success, check_region, synthesize_language_only
from conftest import make_example_lts
from reference_synthesis import _verify_success as reference_verify
from test_output_digests import LANGUAGE_MODES, MODES, WORD_MODES, _family
from test_synthesis import _canonical_instances


@lru_cache(maxsize=None)
def _recorded():
    """(family, engine, outcome) of every engine run for the digest
    families and the canonical sweep, in order; and each (engine, region)
    of a region a solver returned in those runs, once."""
    runs, family, found = [], [""], {}
    run, checked = synthesis_module._run_engine, _Engine._checked

    def recording(engine):
        outcome = run(engine)
        runs.append((family[0], engine, outcome))
        return outcome

    def recording_checked(self, region, *problem):
        found[self, region] = None
        return checked(self, region, *problem)

    cases = [("canonical", mode, lts) for mode in MODES for lts in _family("canonical")]
    cases += [("acyclic", mode, lts) for mode in LANGUAGE_MODES for lts in _family("canonical-acyclic")]
    cases += [("sweep", "none", lts) for lts in _canonical_instances(4, 2)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(synthesis_module, "_run_engine", recording)
        patch.setattr(_Engine, "_checked", recording_checked)
        for family[0], mode, lts in cases:
            synthesize(lts, PropertySet.parse(mode))
        family[0] = "words"
        for mode in WORD_MODES:
            for word in _family("words"):
                word_synthesize(PropertySet.parse(mode), word)
    return runs, list(found)


def _runs():
    return _recorded()[0]


def _nets():
    return [(family, engine, outcome.net) for family, engine, outcome in _runs() if outcome.success]


def _verdict(check):
    try:
        check()
    except (InternalError, StateLimitExceededError) as err:
        return type(err)
    return None


def _copy(net, drop=None, flow=None, tokens=None, extra=None, twin=None):
    """The net without place `drop`, with one more unit of weight on `flow`
    and one more token on place `tokens`; with a transition labelled
    `extra` of empty preset and postset; with a first transition of
    `twin`'s label that puts back what it takes from `twin`'s preset."""
    out = PetriNet(name=net.name)
    marking = net.initial_marking()
    for p in net.places:
        if p != drop:
            out.add_place(p, tokens=marking.get(p) + (p == tokens))
    if twin is not None:
        out.add_transition("twin", label=net.label(twin))
    for t in net.transitions:
        out.add_transition(t, label=net.label(t), location=net.locations.get(t))
    for (source, target), weight in net.flows.items():
        if drop not in (source, target):
            out.add_flow(source, target, weight + ((source, target) == flow))
        if target == twin:
            out.add_flow(source, "twin", weight)
            out.add_flow("twin", source, weight)
    if extra is not None:
        out.add_transition("extra", label=extra)
    return out


MUTANTS = {
    "place dropped": lambda net: [_copy(net, drop=p) for p in net.places],
    "weight raised": lambda net: [_copy(net, flow=flow) for flow in net.flows],
    "token added": lambda net: [_copy(net, tokens=p) for p in net.places],
    "transition added": lambda net: [_copy(net, extra="fresh")],
    "label repeated": lambda net: [_copy(net, extra=label) for label in net.labels],
    "transition twinned": lambda net: [_copy(net, twin=t) for t in net.transitions],
}


def test_synthesized_nets_pass_both_checks():
    families = {}
    for family, engine, net in _nets():
        _verify_success(engine, net)
        reference_verify(engine.lts, net, engine.props)
        families[family] = families.get(family, 0) + 1
    assert families == {"canonical": 250, "acyclic": 30, "sweep": 165, "words": 345}
    # language-only synthesis of acyclic inputs that are not trees, solved
    # on their unfoldings
    assert sum(outcome.unfolding is not None for _, _, outcome in _runs() if outcome.success) > 10


@pytest.mark.parametrize("kind", sorted(MUTANTS))
def test_mutated_nets_get_the_reference_verdict(kind):
    counts = {}
    for family, engine, net in _nets():
        for mutant in MUTANTS[kind](net):
            verdict = _verdict(lambda: _verify_success(engine, mutant))
            expected = _verdict(lambda: reference_verify(engine.lts, mutant, engine.props))
            assert (verdict is None) == (expected is None), (sorted(map(str, engine.lts.arcs)), kind)
            assert verdict in (None, InternalError)
            key = family, expected.__name__ if expected else "accepted"
            counts[key] = counts.get(key, 0) + 1
    # every family's nets have rejected mutants of this kind
    assert {family for family, verdict in counts if verdict != "accepted"} == {
        "canonical", "acyclic", "sweep", "words"
    }, counts


def _raised(weights, k, by):
    return tuple(w + by * (i == k) for i, w in enumerate(weights))


def _corrupted(engine, region):
    """The region with initial value -1; with both weights of the initial
    state's first label raised past its initial value, so that the first
    arc is blocked; and, if the input has a cycle, with one more unit of
    forward weight on a label that a cycle uses, which only raises values,
    so the first violation is a path-dependent value."""
    yield "negative initial value", replace(region, initial=-1)
    k, by = engine.successors[0][0][0], region.initial + 1
    backward, forward = _raised(region.backward, k, by), _raised(region.forward, k, by)
    yield "blocks", replace(region, backward=backward, forward=forward)
    if engine.cycle_rows:
        k = next(i for i, c in enumerate(engine.cycle_rows[0]) if c)
        yield "path-dependent", replace(region, forward=_raised(region.forward, k, 1))


def test_replay_matches_check_region():
    counts = {}
    for engine, region in _recorded()[1]:
        assert engine._replay(region) == list(check_region(engine.lts, region).values())
        for kind, corrupted in _corrupted(engine, region):
            with pytest.raises(InternalError) as expected:
                check_region(engine.lts, corrupted)
            with pytest.raises(InternalError) as raised:
                engine._replay(corrupted)
            assert str(raised.value) == str(expected.value)
            assert kind in str(raised.value)
            counts[kind] = counts.get(kind, 0) + 1
    assert counts.keys() == {"negative initial value", "blocks", "path-dependent"}
    assert min(counts.values()) > 1000, counts


def test_successful_synthesis_searches_no_isomorphism(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("synthesis verified its net by a general search")

    for module, name in [
        (petri_module, "bounded"), (lts_module, "isomorphic"), (lts_module, "language_equivalent"),
        (synthesis_module, "bounded"), (synthesis_module, "isomorphic"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    limits = []

    def graph(net, state_limit):
        limits.append(state_limit)
        return reachability_graph(net, state_limit)

    monkeypatch.setattr(synthesis_module, "reachability_graph", graph)
    bits = reachability_graph(bitnet(4)).lts
    for mode in ["none", "pure", "plain,pure", "safe", "2-bounded", "conflict-free", "t-net", "plain"]:
        assert synthesize(bits, PropertySet.parse(mode)).success, mode
    assert limits == [16] * 8
    assert synthesize(make_example_lts(), PropertySet(k=2)).success
    diamond = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"), ("s2", "a", "s3")])
    outcome = synthesize_language_only(diamond, PropertySet(k=1))
    assert outcome.success and outcome.unfolding is not None
    assert limits[-1] == len(outcome.unfolding[0].states) == 5
    assert word_synthesize(PropertySet(k=2), "abcab").success
    assert limits[-1] == 6 and len(limits) == 11
