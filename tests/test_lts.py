import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from aptk import (
    AptError,
    CycleCapExceededError,
    Lts,
    ParikhVector,
    PreconditionError,
    StateLimitExceededError,
    bisimilar,
    cycles_same_pv,
    is_deterministic,
    is_persistent,
    is_reversible,
    is_totally_reachable,
    isomorphic,
    language_equivalent,
    reachable_states,
    small_cycle_parikh_vectors,
    spanning_tree,
    strongly_connected_components,
    weak_small_cycle_property,
    weakly_connected_components,
)
from aptk import aptio, petri
from aptk.cli import main

from conftest import EXAMPLE_ARCS


def test_states_and_labels_must_be_disjoint():
    lts = Lts()
    lts.add_state("x", initial=True)
    with pytest.raises(AptError):
        lts.add_label("x")


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda lts: lts.add_state("a"), "'a' is already a label; states and labels must be disjoint"),
        (lambda lts: lts.add_state("s2", initial=True), "initial state already set to 's0'"),
        (lambda lts: lts.add_label("a"), "duplicate label 'a'"),
    ],
    ids=["state named like a label", "second initial state", "duplicate label"],
)
def test_lts_construction_refuses_bad_input(change, message):
    lts = Lts.from_data("s0", [("s0", "a", "s1")])
    with pytest.raises(AptError, match=f"^{re.escape(message)}$"):
        change(lts)
    assert (lts.initial, lts.states, lts.labels) == ("s0", ("s0", "s1"), ("a",))


def test_arcs_deduplicate():
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s1")])
    assert len(lts.arcs) == 1


def test_from_data_matches_adding_one_by_one():
    # from_data declares what its arcs name and appends them unchecked: the
    # same states, labels, arcs and per-state arc lists as add_arc, whether
    # the arcs come as lists, as Arcs or with one repeated
    triples = [("s0", "a", "s1"), ("s1", "b", "s0"), ("s1", "a", "s2"), ("s2", "b", "s2")]
    expected = Lts()
    expected.add_state("s0", initial=True)
    for state in ("s1", "s2", "lost"):
        expected.add_state(state)
    for label in ("a", "b", "e"):
        expected.add_label(label)
    for triple in triples:
        expected.add_arc(*triple)
    for arcs in (triples, [list(t) for t in triples], list(expected.arcs), triples + triples[1:2]):
        lts = Lts.from_data("s0", arcs, states=["lost"], labels=["e"])
        assert (lts.initial, lts.states, lts.labels, lts.arcs) == (
            expected.initial, expected.states, expected.labels, expected.arcs
        )
        for state in expected.states:
            assert lts.arcs_from(state) == expected.arcs_from(state)
            assert lts.arcs_to(state) == expected.arcs_to(state)


def test_reachable_states_example(example_lts):
    assert reachable_states(example_lts) == ["s0", "s1", "s2", "s3", "s4", "s5", "s6"]


def test_reachable_single_state():
    lts = Lts.from_data("s0", [])
    assert reachable_states(lts) == ["s0"]


def test_reachable_excludes_unreachable_chain():
    lts = Lts.from_data("s0", [("s1", "a", "s2")], states=["s0", "s1", "s2"])
    assert reachable_states(lts) == ["s0"]


def test_totally_reachable(example_lts):
    assert is_totally_reachable(example_lts)


def test_totally_reachable_isolated_state():
    lts = Lts.from_data("s0", [("s0", "a", "s0")], states=["lost"])
    check = is_totally_reachable(lts)
    assert not check and check.witness == "lost"


def test_totally_reachable_unused_label():
    lts = Lts.from_data("s0", [("s0", "a", "s0")], labels=["e"])
    check = is_totally_reachable(lts)
    assert not check and check.witness == "e"


def test_deterministic(example_lts):
    assert is_deterministic(example_lts)


def test_nondeterministic_witness():
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2")])
    check = is_deterministic(lts)
    assert not check
    state, label, t1, t2 = check.witness
    assert (state, label) == ("s0", "a") and {t1, t2} == {"s1", "s2"}


def test_deterministic_no_arcs():
    assert is_deterministic(Lts.from_data("s0", []))


def test_persistent(example_lts):
    assert is_persistent(example_lts)


def test_persistent_missing_diamond():
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "b", "s2")])
    check = is_persistent(lts)
    assert not check and check.witness == ("s0", "a", "b")


def test_persistent_single_label_trivial():
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "a", "s0")])
    assert is_persistent(lts)


def test_persistent_requires_determinism():
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2")])
    with pytest.raises(PreconditionError):
        is_persistent(lts)


def test_reversible(example_lts):
    assert is_reversible(example_lts)


def test_reversible_fails_on_word():
    lts = Lts.from_data("s0", [("s0", "a", "s1")])
    check = is_reversible(lts)
    assert not check and check.witness == "s1"


def test_reversible_single_state():
    assert is_reversible(Lts.from_data("s0", []))


def test_scc_example_single_component(example_lts):
    assert strongly_connected_components(example_lts) == [list(example_lts.states)]


def test_wcc_two_disjoint_states():
    lts = Lts.from_data("s0", [], states=["s1"])
    assert weakly_connected_components(lts) == [["s0"], ["s1"]]


def test_scc_vs_wcc_single_arc():
    lts = Lts.from_data("s0", [("s0", "a", "s1")])
    assert strongly_connected_components(lts) == [["s0"], ["s1"]]
    assert weakly_connected_components(lts) == [["s0", "s1"]]


def test_reversible_iff_one_scc_on_example(example_lts):
    rev = bool(is_reversible(example_lts))
    one_scc = len(strongly_connected_components(example_lts)) == 1
    assert rev == one_scc


def test_spanning_tree_example(example_lts):
    tree = spanning_tree(example_lts)
    assert dict(tree.path_parikh["s3"].items()) == {"a": 1, "b": 1}
    assert tree.path_parikh["s0"] == ParikhVector()
    # replay every tree path and compare against the recorded Parikh vector
    for state in example_lts.states:
        path = []
        cursor = state
        while cursor in tree.parent_arc:
            arc = tree.parent_arc[cursor]
            path.append(arc.label)
            cursor = arc.source
        counts = {}
        for label in path:
            counts[label] = counts.get(label, 0) + 1
        assert ParikhVector(counts) == tree.path_parikh[state]


def test_parikh_vector_sum_and_hash():
    a, b = ParikhVector({"a": 2, "b": 1}), ParikhVector({"b": -1, "c": 3})
    total = a + b
    assert dict(total.items()) == {"a": 2, "c": 3}  # b sums to 0 and is dropped
    assert a == ParikhVector({"a": 2, "b": 1}) and total - b == a
    assert a + ParikhVector() == a
    # equal vectors hash equal however they were built, and serve as one key
    same = ParikhVector({"c": 3, "a": 2, "d": 0})
    assert total == same and hash(total) == hash(same)
    assert hash(ParikhVector({"a": 0})) == hash(ParikhVector())
    keys = {total: 1}
    keys[same] += 1
    assert keys == {ParikhVector({"a": 2, "c": 3}): 2}
    assert len({a, b, total, same, a + b}) == 3


def test_initial_state_must_be_declared():
    lts = Lts()
    lts.add_state("s0")
    with pytest.raises(AptError, match="^no initial state was declared$"):
        lts.initial
    lts.add_state("s1", initial=True)
    assert lts.initial == "s1"


def test_spanning_tree_single_state():
    tree = spanning_tree(Lts.from_data("s0", []))
    assert tree.chords == [] and tree.parent_arc == {}


def test_spanning_tree_cycle_has_chord():
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s0")])
    tree = spanning_tree(lts)
    assert len(tree.chords) == 1 and tree.chords[0].target == "s0"


def test_spanning_tree_rejects_unreachable():
    lts = Lts.from_data("s0", [], states=["lost"])
    with pytest.raises(PreconditionError):
        spanning_tree(lts)


def test_small_cycles_example(example_lts):
    assert small_cycle_parikh_vectors(example_lts) == [
        ParikhVector({"a": 1, "b": 1, "c": 1, "d": 1})
    ]
    assert cycles_same_pv(example_lts)


def test_small_cycles_acyclic():
    lts = Lts.from_data("s0", [("s0", "a", "s1")])
    assert small_cycle_parikh_vectors(lts) == []
    assert cycles_same_pv(lts)


def test_small_cycles_two_self_loops():
    # brute-force oracle: the only cycles of length <= 2 here are the loops
    lts = Lts.from_data("s0", [("s0", "a", "s0"), ("s0", "b", "s0")])
    vectors = small_cycle_parikh_vectors(lts)
    assert sorted(tuple(sorted(v.items())) for v in vectors) == [
        (("a", 1),), (("b", 1),)
    ]
    assert not cycles_same_pv(lts)
    assert weak_small_cycle_property(lts)


def test_small_cycles_minimality_filter():
    # loop (a) at s0 and loop (a b) via s1; the latter is not minimal
    lts = Lts.from_data(
        "s0", [("s0", "a", "s0"), ("s0", "a", "s1"), ("s1", "b", "s0")]
    )
    vectors = small_cycle_parikh_vectors(lts)
    assert vectors == [ParikhVector({"a": 1})]
    assert cycles_same_pv(lts)


def test_small_cycles_antichain(example_lts):
    vectors = small_cycle_parikh_vectors(example_lts)
    for v1, v2 in itertools.permutations(vectors, 2):
        assert not v1.strictly_below(v2)


def test_weak_but_not_strong_overlap():
    # cycles (a b) and (a c): incomparable vectors sharing the label a
    lts = Lts.from_data(
        "s0", [("s0", "a", "s1"), ("s1", "b", "s0"), ("s1", "c", "s0")]
    )
    vectors = small_cycle_parikh_vectors(lts)
    assert len(vectors) == 2
    assert not weak_small_cycle_property(lts)


def test_cycle_cap(monkeypatch):
    # one path extension (s0 -a-> s1) and two cycles: the cycle search's one
    # budget is petri's state limit, read at call time, and counts all three
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s0"), ("s0", "c", "s0")])
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 2)
    for check in (small_cycle_parikh_vectors, cycles_same_pv, weak_small_cycle_property):
        with pytest.raises(CycleCapExceededError, match="cycle search passed its limit of 2 steps"):
            check(lts)
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 3)
    assert small_cycle_parikh_vectors(lts) == [ParikhVector({"a": 1, "b": 1}), ParikhVector({"c": 1})]
    assert not cycles_same_pv(lts)
    assert weak_small_cycle_property(lts)


def _diamond_chain(k):
    """k diamonds s_i -a-> u_i -c-> s_i+1 and s_i -b-> v_i -c-> s_i+1, closed
    by one arc s_k -d-> s_k-1: two elementary cycles, but 2^k paths from s_0."""
    arcs = [(f"s{k}", "d", f"s{k - 1}")]
    for i in range(k):
        for label, middle in (("a", f"u{i}"), ("b", f"v{i}")):
            arcs += [(f"s{i}", label, middle), (middle, "c", f"s{i + 1}")]
    return Lts.from_data("s0", arcs)


def test_cycle_search_stops_at_the_state_limit(monkeypatch, tmp_path, capsys):
    lts = _diamond_chain(10)
    expected = [ParikhVector({"a": 1, "c": 1, "d": 1}), ParikhVector({"b": 1, "c": 1, "d": 1})]
    assert small_cycle_parikh_vectors(lts) == expected
    # the limit is petri's, read at call time, and counts path extensions
    # as well as cycles
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 10_000)
    for check in (small_cycle_parikh_vectors, cycles_same_pv, weak_small_cycle_property):
        with pytest.raises(CycleCapExceededError, match="cycle search passed its limit of 10000 steps"):
            check(lts)
    path = tmp_path / "chain.apt"
    path.write_text(aptio.render(aptio.Document(kind="LTS", lts=lts)))
    assert main(["compute_pvs", str(path)]) == 2
    assert "passed its limit of 10000 steps" in capsys.readouterr().err


def test_isomorphic_identity(example_lts):
    check = isomorphic(example_lts, example_lts)
    assert check and check.witness == {s: s for s in example_lts.states}


def test_isomorphic_relabelled_states(example_lts):
    other = Lts.from_data("t0", [(f"t{a[1:]}", lab, f"t{b[1:]}") for a, lab, b in EXAMPLE_ARCS])
    check = isomorphic(example_lts, other)
    assert check and check.witness["s0"] == "t0"


def test_isomorphic_label_mismatch():
    l1 = Lts.from_data("s0", [("s0", "a", "s0")])
    l2 = Lts.from_data("s0", [("s0", "b", "s0")])
    assert not isomorphic(l1, l2)


def test_isomorphic_cardinality_mismatch():
    l1 = Lts.from_data("s0", [("s0", "a", "s1")])
    l2 = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "a", "s2")])
    assert not isomorphic(l1, l2)


def test_isomorphic_nondeterministic_backtracking():
    l1 = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "s1")])
    l2 = Lts.from_data("t0", [("t0", "a", "t2"), ("t0", "a", "t1"), ("t2", "b", "t2")])
    check = isomorphic(l1, l2)
    assert check and check.witness["s1"] == "t2"


def test_isomorphic_backtracking_on_a_long_chain():
    # nondeterministic, so the backtracking search maps it; one recursion
    # level per state overflowed the stack at 1,501 states
    arcs = [(f"q{i}", "a", f"q{i + 1}") for i in range(1500)] + [("q0", "a", "q2")]
    chain = Lts.from_data("q0", arcs)
    check = isomorphic(chain, chain)
    assert check and check.witness == {s: s for s in chain.states}


def _has_isomorphism(l1, l2):
    """The definition, by brute force: some bijection of the states maps the
    initial state to the initial state and the arcs onto the arcs."""
    if set(l1.labels) != set(l2.labels) or len(l1.states) != len(l2.states):
        return False
    arcs1 = {(a.source, a.label, a.target) for a in l1.arcs}
    arcs2 = {(a.source, a.label, a.target) for a in l2.arcs}
    rest = [s for s in l1.states if s != l1.initial]
    for image in itertools.permutations([s for s in l2.states if s != l2.initial]):
        f = {l1.initial: l2.initial, **dict(zip(rest, image))}
        if {(f[s], t, f[u]) for s, t, u in arcs1} == arcs2:
            return True
    return False


def _self_loop_pair(rng):
    """A random system of 1-5 states over a and b, with self-loops on about
    half its states, and a copy with its states renamed; half the time one
    self-loop of the copy has the other label."""
    states = [f"q{i}" for i in range(rng.randint(1, 5))]
    arcs = {
        (rng.choice(states), rng.choice("ab"), rng.choice(states))
        for _ in range(rng.randint(0, 3 * len(states)))
    }
    arcs |= {(s, rng.choice("ab"), s) for s in states if rng.random() < 0.5}
    names = states[1:]
    rng.shuffle(names)
    names = dict(zip(states, ["q0", *names]))
    copy = {(names[s], t, names[u]) for s, t, u in arcs}
    loops = sorted(arc for arc in copy if arc[0] == arc[2])
    if loops and rng.random() < 0.5:
        s, t, _ = rng.choice(loops)
        copy ^= {(s, t, s), (s, "b" if t == "a" else "a", s)}
    return tuple(Lts.from_data("q0", sorted(a), states=states, labels=["a", "b"]) for a in (arcs, copy))


SELF_LOOP_PAIR = (
    [("q0", "a", "q1"), ("q0", "b", "q0"), ("q0", "b", "q1"), ("q1", "a", "q0"), ("q1", "a", "q1"),
     ("q1", "b", "q0"), ("q1", "b", "q1")],
    [("q0", "a", "q1"), ("q0", "a", "q0"), ("q0", "b", "q1"), ("q1", "a", "q0"), ("q1", "a", "q1"),
     ("q1", "b", "q0"), ("q1", "b", "q1")],
)

# Chains s0 -a-> s1 ... with random arcs, each paired with a copy that has
# one arc retargeted, its states renamed and its arcs shuffled.  The search
# refuses a candidate image in each because an arc of l2 into it, from a
# placed state, has no counterpart into the l1 state (the mirror in-arc
# test).  None of the pairs is isomorphic.
MIRROR_IN_ARC_PAIRS = [
    ([("s0", "a", "s1"), ("s0", "a", "s3"), ("s0", "b", "s0"), ("s0", "b", "s4"), ("s1", "a", "s2"),
      ("s2", "a", "s1"), ("s2", "a", "s3"), ("s2", "b", "s1"), ("s2", "b", "s3"), ("s2", "b", "s4"),
      ("s3", "a", "s4"), ("s4", "a", "s1")],
     [("s3", "a", "s2"), ("s1", "b", "s3"), ("s4", "a", "s3"), ("s1", "a", "s2"), ("s1", "b", "s4"),
      ("s1", "b", "s2"), ("s0", "b", "s0"), ("s1", "a", "s4"), ("s0", "a", "s2"), ("s0", "b", "s3"),
      ("s0", "a", "s3"), ("s2", "a", "s1")]),
    ([("s0", "a", "s1"), ("s0", "b", "s3"), ("s1", "a", "s2"), ("s2", "a", "s3"), ("s3", "a", "s4"),
      ("s4", "a", "s0"), ("s4", "a", "s1"), ("s4", "b", "s0")],
     [("s1", "a", "s4"), ("s3", "a", "s0"), ("s3", "b", "s0"), ("s2", "a", "s1"), ("s4", "a", "s3"),
      ("s3", "a", "s2"), ("s0", "a", "s1"), ("s0", "b", "s4")]),
    ([("s0", "a", "s1"), ("s0", "a", "s3"), ("s1", "a", "s2"), ("s2", "a", "s3"), ("s2", "b", "s2"),
      ("s3", "a", "s4"), ("s4", "a", "s1")],
     [("s0", "a", "s3"), ("s1", "a", "s4"), ("s2", "a", "s1"), ("s0", "a", "s2"), ("s3", "a", "s2"),
      ("s4", "a", "s3"), ("s4", "b", "s4")]),
]


def test_isomorphic_matches_brute_force_with_self_loops(tmp_path, capsys):
    # both systems are nondeterministic, so the backtracking search answers;
    # no bijection maps q0's b-loop in the first onto an arc of the second
    l1, l2 = (Lts.from_data("q0", arcs) for arcs in SELF_LOOP_PAIR)
    assert not _has_isomorphism(l1, l2)
    assert isomorphic(l1, l2).detail == "no arc-preserving bijection exists"
    files = [tmp_path / "l1.apt", tmp_path / "l2.apt"]
    for path, lts in zip(files, (l1, l2)):
        path.write_text(aptio.render(aptio.Document(kind="LTS", lts=lts)))
    assert main(["isomorphism", *map(str, files)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "isomorphic: No"
    for arcs1, arcs2 in MIRROR_IN_ARC_PAIRS:
        l1, l2 = Lts.from_data("s0", arcs1), Lts.from_data("s0", arcs2)
        assert not _has_isomorphism(l1, l2)
        assert isomorphic(l1, l2).detail == "no arc-preserving bijection exists"
    rng = random.Random(31)
    verdicts = set()
    for _ in range(2000):
        l1, l2 = _self_loop_pair(rng)
        check, expected = isomorphic(l1, l2), _has_isomorphism(l1, l2)
        assert check.ok == expected, (sorted(map(tuple, l1.arcs)), sorted(map(tuple, l2.arcs)))
        if check:  # the witness is such a bijection
            f = check.witness
            assert f[l1.initial] == l2.initial and sorted(f.values()) == sorted(l2.states)
            assert {(f[a.source], a.label, f[a.target]) for a in l1.arcs} == {tuple(a) for a in l2.arcs}
        verdicts.add((expected, bool(is_deterministic(l1) and is_deterministic(l2))))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def _rings_of_ys(n):
    """Two 2n + 2-state systems s0 -a-> x_i -b-> y_i -c-> d (i < n) whose
    e-arcs join the y's into one n-cycle and into two n/2-cycles: not
    isomorphic, yet every signature matches, so the backtracking search
    tries many assignments (2,821 at n = 6) before it says so."""

    def build(cycles):
        arcs = []
        for i in range(n):
            arcs += [("s0", "a", f"x{i}"), (f"x{i}", "b", f"y{i}"), (f"y{i}", "c", "d")]
        for ring in cycles:
            arcs += [(f"y{i}", "e", f"y{ring[(j + 1) % len(ring)]}") for j, i in enumerate(ring)]
        return Lts.from_data("s0", arcs)

    return build([range(n)]), build([range(n // 2), range(n // 2, n)])


def test_isomorphism_search_stops_at_the_state_limit(monkeypatch, tmp_path, capsys, example_lts):
    l1, l2 = _rings_of_ys(6)
    assert isomorphic(l1, l2).detail == "no arc-preserving bijection exists"
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 1000)
    with pytest.raises(StateLimitExceededError, match="more than 1000 assignments"):
        isomorphic(l1, l2)
    # the walk answers deterministic inputs without searching
    assert isomorphic(example_lts, example_lts)
    assert not isomorphic(example_lts, Lts.from_data("s0", EXAMPLE_ARCS[:-1], states=example_lts.states))
    files = []
    for name, lts in (("one_ring", l1), ("two_rings", l2)):
        files.append(tmp_path / f"{name}.apt")
        files[-1].write_text(aptio.render(aptio.Document(kind="LTS", lts=lts)))
    assert main(["isomorphism", *map(str, files)]) == 2
    assert "more than 1000 assignments" in capsys.readouterr().err


def test_bisimilar_self(example_lts):
    assert bisimilar(example_lts, example_lts)


def test_bisimilar_loop_unrolling():
    loop1 = Lts.from_data("x0", [("x0", "a", "x0")])
    loop2 = Lts.from_data("y0", [("y0", "a", "y1"), ("y1", "a", "y0")])
    check = bisimilar(loop1, loop2)
    assert check and set(check.witness) == {("x0", "y0"), ("x0", "y1")}
    assert not isomorphic(loop1, loop2)


def test_bisimilar_detects_difference():
    l1 = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s2")])
    l2 = Lts.from_data("t0", [("t0", "a", "t1")])
    assert not bisimilar(l1, l2)


def test_language_equivalent_self(example_lts):
    assert language_equivalent(example_lts, example_lts)


def test_language_distinguishing_word_is_shortest():
    l1 = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s2")])
    l2 = Lts.from_data("t0", [("t0", "a", "t1"), ("t1", "b", "t2"), ("t1", "c", "t3")])
    check = language_equivalent(l1, l2)
    assert not check and check.witness == ["a", "c"]


def test_language_nondeterministic_subset_construction():
    # both accept {eps, a, ab}; the left one via two a-branches
    l1 = Lts.from_data(
        "s0", [("s0", "a", "s1"), ("s0", "a", "s2"), ("s2", "b", "s3")]
    )
    l2 = Lts.from_data("t0", [("t0", "a", "t1"), ("t1", "b", "t2")])
    assert language_equivalent(l1, l2)


def _nth_letter_from_the_end(n):
    """The n + 1-state system guessing that the n-th letter from the end is
    an a: its subset construction reaches all 2^n sets {q0} | S."""
    arcs = [("q0", "a", "q0"), ("q0", "b", "q0"), ("q0", "a", "q1")]
    arcs += [(f"q{i}", t, f"q{i + 1}") for i in range(1, n) for t in "ab"]
    return Lts.from_data("q0", arcs)


def test_language_equivalent_stops_at_the_state_limit(monkeypatch, tmp_path, capsys):
    # against one state looping on a and b, the construction holds one
    # subset pair per reachable subset: 2^3 = 8 here
    guess = _nth_letter_from_the_end(3)
    anything = Lts.from_data("t0", [("t0", "a", "t0"), ("t0", "b", "t0")])
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 7)
    with pytest.raises(StateLimitExceededError, match="more than 7 state pairs"):
        language_equivalent(guess, anything)
    # deterministic pairs hold one singleton pair per reachable state pair
    word = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s2")])
    assert language_equivalent(word, word) and not language_equivalent(word, anything)
    files = []
    for name, lts in (("guess", guess), ("anything", anything)):
        files.append(tmp_path / f"{name}.apt")
        files[-1].write_text(aptio.render(aptio.Document(kind="LTS", lts=lts)))
    assert main(["language_equivalence", *map(str, files)]) == 2
    assert "more than 7 state pairs" in capsys.readouterr().err
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 8)
    assert language_equivalent(guess, anything)
    assert main(["language_equivalence", *map(str, files)]) == 0


# -- randomized structure properties ---------------------------------------


@st.composite
def small_lts(draw):
    n_states = draw(st.integers(1, 5))
    n_labels = draw(st.integers(1, 3))
    states = [f"s{i}" for i in range(n_states)]
    labels = [chr(ord("a") + i) for i in range(n_labels)]
    arcs = []
    for src in states:
        for label in labels:
            choice = draw(st.integers(-1, n_states - 1))
            if choice >= 0:
                arcs.append((src, label, states[choice]))
    return Lts.from_data("s0", arcs, states=states, labels=labels)


@settings(max_examples=60, deadline=None)
@given(small_lts())
def test_random_spanning_tree_replay(lts):
    reach = set(reachable_states(lts))
    if reach != set(lts.states):
        return
    tree = spanning_tree(lts)
    for state in lts.states:
        cursor, counts = state, {}
        while cursor in tree.parent_arc:
            arc = tree.parent_arc[cursor]
            counts[arc.label] = counts.get(arc.label, 0) + 1
            cursor = arc.source
        assert cursor == lts.initial
        assert ParikhVector(counts) == tree.path_parikh[state]


@settings(max_examples=60, deadline=None)
@given(small_lts())
def test_random_small_cycles_antichain(lts):
    vectors = small_cycle_parikh_vectors(lts)
    for v1, v2 in itertools.permutations(vectors, 2):
        assert not v1.strictly_below(v2)


@settings(max_examples=40, deadline=None)
@given(small_lts())
def test_random_isomorphic_copy_full_chain(lts):
    renamed = Lts.from_data(
        "t0",
        [(f"t{a[1:]}", lab, f"t{b[1:]}") for a, lab, b in
         [(x.source, x.label, x.target) for x in lts.arcs]],
        states=[f"t{s[1:]}" for s in lts.states],
        labels=list(lts.labels),
    )
    assert isomorphic(lts, renamed)
    assert bisimilar(lts, renamed)
    assert language_equivalent(lts, renamed)


@settings(max_examples=60, deadline=None)
@given(small_lts())
def test_random_reversible_iff_single_scc_when_totally_reachable(lts):
    if set(reachable_states(lts)) != set(lts.states):
        return
    rev = bool(is_reversible(lts))
    assert rev == (len(strongly_connected_components(lts)) == 1)
