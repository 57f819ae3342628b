"""Differential tests: aptk.synthesis._Engine.solve_basis against the two
basis-space solvers it replaced, kept in reference_synthesis.py.

Under `pure,plain` both solve the same boxed integer system, so they must
agree exactly: the same Region, or None, for every separation problem.
Under `none` and `pure` solve_basis solves the Farkas dual, so its point
may be another vertex than the reference's primal LP.  There both must agree on
solvability, and every region solve_basis returns must be valid, solve its
problem and, under `pure`, be pure.

The separation pass and `minimize_regions` are checked against the
per-(region, problem) loop and the set-based minimisation they replaced:
the same solved set for every found region (its event/state problems and
the state pairs its value array splits), the same failures and the same
kept regions, also on drawn value arrays and event/state sets.

The engine's set-up is checked against the two-walk `spanning_tree`, the
Parikh-vector `_cycle_rows` and the Kahn-loop `_is_acyclic` it replaced:
the same tree or error, the same cycle rows and basis, the same verdict.

The engine's input check, its value arrays and its general solver are
checked against the two-walk `_check_synthesis_input`, the Parikh-vector
`value_array` and the per-orientation `_solve_with` they replaced: the
same error message, the same values, and the same boxes, rows and
objective: the reference hands them to `LinearSystem.solve` over named
variables, the engine to `RowSystem.solve` over the columns r0, b_t, f_t.

The engine's problem list and its state indices are checked against the
walking `enumerate_separation_problems` and `_event_state_problems` and the
pass's re-indexing loop they replaced, on every valid input and on the
tree unfoldings; a valid synthesis walks its input once before solving.
That set-up copies nothing from the input: it builds no per-state arc
tuple, arc tuple, state tuple or location dict.

The engine on integer indices is checked against the engine it replaced,
kept in reference_synthesis.py with its pass: the same regions, failures
and reports on the canonical systems, bitnet(3..5), cyclenet(16, 1) and
the words of the `words` digest family, in five modes with and without
`verbose`; and the same initial value for random weights.  Synthesis
builds no `SeparationProblem`.

An input whose cycle rows span every label is reported without the pass:
the same success and failures as the reference engine's pass on every
such canonical system, under five property sets with and without
`language`, with no pass run, no kernel basis built and no system solved.
The basis projections built down the tree equal the dot products.
"""

from dataclasses import replace
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, seed, settings, strategies as st

from aptk import (
    Lts,
    PropertySet,
    enumerate_separation_problems,
    format_report,
    is_deterministic,
    is_totally_reachable,
    reachability_graph,
    region_basis,
    spanning_tree,
    word_lts,
)
from aptk import lts as lts_module
from aptk import synthesis as synthesis_module
from aptk.common import AptError, InternalError, PreconditionError, UnsupportedInputError
from aptk.generators import bitnet, cyclenet
from aptk.linalg import LinearSystem, RowSystem, integer_kernel_basis
from aptk.synthesis import (
    Region,
    SeparationProblem,
    _Engine,
    _is_acyclic,
    _separation_pass,
    _unfold_to_tree,
    check_region,
    minimize_regions,
    synthesize,
    word_synthesize,
)
from conftest import make_example_lts
from reference_synthesis import _check_synthesis_input as reference_check_input
from reference_synthesis import _event_state_problems as reference_event_state_problems
from reference_synthesis import enumerate_separation_problems as reference_enumerate
from reference_synthesis import index_problems as reference_index
from reference_synthesis import _solve_with as reference_solve_with
from reference_synthesis import value_array as reference_value_array
from reference_synthesis import _cycle_rows as reference_cycle_rows
from reference_synthesis import _is_acyclic as reference_is_acyclic
from reference_synthesis import spanning_tree as reference_spanning_tree
from reference_synthesis import minimize_regions as reference_minimize
from reference_synthesis import separation_pass as reference_pass
from reference_synthesis import solve_fast_none, solve_fast_pure
from reference_synthesis import _Engine as ReferenceEngine
from reference_synthesis import _run_engine as reference_run_engine
from test_synthesis import _canonical_instances, _diamond_chain, _solve, _solves

EXACT = {
    "pure,plain": (PropertySet(pure=True, plain=True), partial(solve_fast_pure, plain=True)),
}
VERDICT = {
    "none": (PropertySet(), solve_fast_none),
    "pure": (PropertySet(pure=True), partial(solve_fast_pure, plain=False)),
}


def _inputs():
    return (
        [make_example_lts()]
        + _canonical_instances(3, 2)
        + [reachability_graph(net).lts for net in (bitnet(3), cyclenet(3, 2))]
        + [word_lts("aabab")]
    )


def _hand_inputs():
    """Self-loops, parallel arcs with different labels, a re-added arc,
    unreachable states, a nondeterministic state and a diamond."""
    return [
        Lts.from_data("s0", [("s0", "a", "s0"), ("s0", "b", "s1"), ("s1", "b", "s1")]),
        Lts.from_data("s0", [("s0", "a", "s0"), ("s0", "b", "s0")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "b", "s1"), ("s1", "c", "s0")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "b", "s1"), ("s1", "c", "s2")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s0"), ("s0", "a", "s1")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s2", "b", "s0")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s2", "b", "s3"), ("s3", "b", "s2")]),
        Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2"), ("s2", "b", "s0")]),
        Lts.from_data(
            "s0", [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"), ("s2", "a", "s3")]
        ),
    ]


def _tree_or_error(build, lts):
    try:
        return build(lts)
    except PreconditionError as err:
        return f"PreconditionError: {err}"


def test_engine_setup_matches_reference():
    verdicts = set()
    for lts in _inputs() + _hand_inputs():
        where = sorted(map(str, lts.arcs))
        expected = _tree_or_error(reference_spanning_tree, lts)
        tree = _tree_or_error(spanning_tree, lts)
        assert tree == expected, where
        if isinstance(expected, str):
            verdicts.add("no tree")
            continue
        assert tree.path_parikh == expected.path_parikh, where
        if not (is_deterministic(lts) and is_totally_reachable(lts)):
            with pytest.raises(PreconditionError):
                _Engine(lts, PropertySet())
            verdicts.add("rejected")
            continue
        engine = _Engine(lts, PropertySet())
        rows = reference_cycle_rows(expected, lts.labels)
        assert engine.cycle_rows == rows, where
        assert engine.basis == region_basis(lts) == integer_kernel_basis(rows, dim=len(lts.labels))
        # _is_acyclic runs on inputs that passed the synthesis input check
        acyclic = _is_acyclic(lts)
        assert acyclic == reference_is_acyclic(lts), where
        verdicts.add(acyclic)
    assert verdicts == {"no tree", "rejected", True, False}


def test_spanning_tree_walks_once(monkeypatch):
    lts = make_example_lts()
    expected = reference_spanning_tree(lts)

    def refuse(lts):
        raise AssertionError("spanning_tree walked the input twice")

    monkeypatch.setattr(lts_module, "reachable_states", refuse)
    tree = spanning_tree(lts)
    assert tree == expected and tree.path_parikh == expected.path_parikh
    with pytest.raises(PreconditionError, match="state s2 is unreachable"):
        spanning_tree(Lts.from_data("s0", [("s0", "a", "s1"), ("s2", "b", "s0")]))


@pytest.mark.parametrize("mode", sorted(EXACT))
def test_solve_basis_matches_reference(mode):
    props, reference = EXACT[mode]
    for lts in _inputs():
        engine, old = _Engine(lts, props), ReferenceEngine(lts, props)
        for problem in enumerate_separation_problems(lts):
            assert _solve(engine.solve_basis, problem) == reference(old, problem), (
                sorted(map(str, lts.arcs)),
                str(problem),
            )


@pytest.mark.parametrize("mode", sorted(VERDICT))
def test_solve_basis_verdict_matches_reference(mode):
    props, reference = VERDICT[mode]
    count = 0
    for lts in _inputs():
        engine, old = _Engine(lts, props), ReferenceEngine(lts, props)
        for problem in enumerate_separation_problems(lts):
            count += 1
            where = (sorted(map(str, lts.arcs)), str(problem))
            region = _solve(engine.solve_basis, problem)
            assert (region is None) == (reference(old, problem) is None), where
            if region is not None:
                check_region(lts, region)
                assert _solves(engine, region, *engine.locate(problem)), where
                assert region.is_pure() or not props.pure, where
    assert count == 3545


def _pass_inputs():
    return (
        _canonical_instances(3, 2)
        + [reachability_graph(net).lts for net in (bitnet(3), cyclenet(3, 2), cyclenet(8, 1))]
        + [word_lts("aabab")]
    )


def _expanded(engine, keys, values, problem_set):
    """A found region's problems as the set-based minimisation takes them:
    its event/state problems, then the state pairs its values split,
    numbered by rank after them."""
    pairs = combinations(range(0 if engine.props.language else len(engine.states)), 2)
    return problem_set | {len(keys) + r for r, (i, j) in enumerate(pairs) if values[i] != values[j]}


@pytest.mark.parametrize("mode", ["none", "pure", "plain,pure", "safe", "conflict-free"])
def test_separation_pass_matches_reference(mode):
    props = PropertySet.parse(mode)
    outcomes = set()
    for lts in _pass_inputs():
        engine = _Engine(lts, props)
        keys, found, failed = _separation_pass(engine)
        expected = reference_enumerate(lts)
        expected_solved, expected_failed = reference_pass(ReferenceEngine(lts, props), expected)
        where = sorted(map(str, lts.arcs))
        assert list(engine.listed(keys)) == expected, where
        solved = [(region, _expanded(engine, keys, *rest)) for region, *rest in found]
        assert solved == expected_solved, where
        assert [engine.problem(*key) for key in failed] == expected_failed, where
        if not failed:
            assert minimize_regions(engine, found, keys) == reference_minimize(expected, solved), where
        outcomes.add(bool(failed))
    assert outcomes == {True, False}  # both branches of the pass are exercised


@seed(20150601)
@settings(max_examples=300, deadline=None)
@given(st.text("abc", min_size=1, max_size=8), st.booleans(), st.data())
def test_minimize_regions_matches_reference(word, language, data):
    # an engine on a word lists the problems; the found regions' value
    # arrays and event/state sets are drawn so that every problem is solved
    engine = _Engine(word_lts(word), PropertySet(language=language))
    keys, n = engine.problems()[0], len(engine.states)
    m = 0 if language else n
    size = data.draw(st.integers(1, 8))
    arrays = [data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)) for _ in range(size)]
    sets = [data.draw(st.sets(st.integers(0, len(keys) - 1))) for _ in range(size)]
    for p in range(len(keys)):
        if not any(p in s for s in sets):
            sets[data.draw(st.integers(0, size - 1))].add(p)
    # the states no array tells apart get distinct values in one array: the
    # first keeps its value, the others go up by 3, 6, ..., past every drawn one
    groups = {}
    for i in range(m):
        groups.setdefault(tuple(values[i] for values in arrays), []).append(i)
    for group in groups.values():
        values = arrays[data.draw(st.integers(0, size - 1))]
        for rank, i in enumerate(group[1:], start=1):
            values[i] += 3 * rank
    regions = [Region(("a",), j, (0,), (0,)) for j in range(size)]
    problems = list(engine.listed(keys))

    def found_and_solved():
        found = list(zip(regions, arrays, sets))
        return found, [(region, _expanded(engine, keys, *rest)) for region, *rest in found]

    found, solved = found_and_solved()
    assert minimize_regions(engine, found, keys) == reference_minimize(problems, solved)
    # with one problem solved by no region, both raise the same error
    hole = data.draw(st.integers(0, len(problems) - 1))
    if hole < len(keys):
        sets = [s - {hole} for s in sets]
    else:  # every array values the pair's states alike; every other pair stays split
        i, j = list(combinations(range(m), 2))[hole - len(keys)]
        arrays = [values[:j] + [values[i]] + values[j + 1 :] for values in arrays]
    found, solved = found_and_solved()
    with pytest.raises(InternalError) as expected:
        reference_minimize(problems, solved)
    with pytest.raises(InternalError) as raised:
        minimize_regions(engine, found, keys)
    assert str(raised.value) == str(expected.value) == f"problem {problems[hole]} solved by no region"


DEFECTS = {
    "nondeterministic": (
        Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "s0")]),
        "synthesis needs a deterministic input: state s0 has a-arcs to both s1 and s2",
    ),
    "unreachable state": (
        Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "a", "s0")], states=["s2"]),
        "synthesis needs a totally reachable input: state s2 is unreachable",
    ),
    "unused label": (
        Lts.from_data("s0", [("s0", "a", "s1")], labels=["b"]),
        "synthesis needs a totally reachable input: label b occurs on no arc",
    ),
    "label used only where unreachable": (
        Lts.from_data("s0", [("s0", "a", "s1"), ("s2", "b", "s0")]),
        "synthesis needs a totally reachable input: state s2 is unreachable",
    ),
    "nondeterministic and unreachable": (
        Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s0"), ("s1", "b", "s1")], states=["s2"]),
        "synthesis needs a deterministic input: state s1 has b-arcs to both s0 and s1",
    ),
    "nondeterministic where unreachable": (
        Lts.from_data("s0", [("s0", "a", "s1"), ("s2", "b", "s0"), ("s2", "b", "s1")]),
        "synthesis needs a totally reachable input: state s2 is unreachable",
    ),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defective_input_raises_the_reference_message(defect):
    lts, message = DEFECTS[defect]
    with pytest.raises(PreconditionError) as expected:
        reference_check_input(lts)
    assert str(expected.value) == message
    for mode in ("none", "pure", "safe", "plain", "conflict-free", "language", "plain,language"):
        with pytest.raises(PreconditionError) as raised:
            _Engine(lts, PropertySet.parse(mode))
        assert str(raised.value) == message
        with pytest.raises(PreconditionError) as raised:
            synthesize(lts, PropertySet.parse(mode))
        assert str(raised.value) == message


@pytest.mark.parametrize("mode", ["language", "plain,language"])
def test_language_only_rejects_a_valid_cyclic_input(mode):
    # a deterministic, totally reachable cycle passes the input check and is
    # then refused as unsupported
    with pytest.raises(UnsupportedInputError, match="supports acyclic inputs only"):
        synthesize(make_example_lts(), PropertySet.parse(mode))


def _walk_cases():
    return [
        (make_example_lts(), PropertySet()),
        (make_example_lts(), PropertySet(pure=True, verbose=True)),
        (make_example_lts(), PropertySet(k=1)),
        (reachability_graph(bitnet(3)).lts, PropertySet(plain=True, pure=True)),
        (word_lts("aabab"), PropertySet(k=2)),
    ]


def test_synthesis_checks_its_input_on_the_engine_walk(monkeypatch):
    # a valid input is checked on the engine's own walk, with no call to
    # the walking checks, also under language-only synthesis of an input
    # that is not a tree: its engine walks the input, a second one the
    # unfolding, and failures name input states in the first one's order
    def refuse(lts):
        raise AssertionError("synthesis walked its input for the input check")

    language = [PropertySet(language=True), PropertySet(plain=True, language=True)]
    cases = _walk_cases() + [(_diamond_chain(k), props) for k in (2, 3) for props in language]
    cases.append((_diamond_chain(2), PropertySet(k=1, language=True)))  # fails
    expected = [format_report(synthesize(lts, props)) for lts, props in cases]
    tree, trees = spanning_tree, []
    monkeypatch.setattr(synthesis_module, "spanning_tree", lambda lts: trees.append(lts) or tree(lts))
    for name in ("is_deterministic", "is_totally_reachable", "_check_synthesis_input", "reachable_states"):
        monkeypatch.setattr(synthesis_module, name, refuse)
    unfolded = 0
    for (lts, props), lines in zip(cases, expected):
        trees.clear()
        outcome = synthesize(lts, props)
        assert format_report(outcome) == lines
        if outcome.unfolding is None:
            assert trees == [lts]
        else:
            unfolded += 1
            assert trees == [lts, outcome.unfolding[0]]
    assert unfolded == 5
    assert any(lines[0] == "success: Yes" for lines in expected)
    assert {lines[0] for lines in expected[len(_walk_cases()):]} == {"success: Yes", "success: No"}


def test_valid_synthesis_walks_its_input_once_before_solving(monkeypatch):
    # the engine's spanning tree is the one walk of a valid input before
    # solving: no `reachable_states` (in the input check or the problem
    # list) and, for a word, no input check; only the independent
    # verification of a found net may walk again.  The engine reads the
    # tree's parent arcs, never its `ParikhVector`s
    cases = _walk_cases() + [(word_lts("abbaac"), PropertySet(plain=True))]
    expected = [format_report(synthesize(lts, props)) for lts, props in cases]
    words = ["abcabc", "abbaac", "aabab"]
    expected_words = [format_report(word_synthesize(None, word)) for word in words]
    walk, verify, tree = lts_module.reachable_states, synthesis_module._verify_success, spanning_tree
    verifying, trees = [], []

    def refuse(lts):
        if not verifying:
            raise AssertionError("synthesis walked its input again")
        return walk(lts)

    def verified(*args):
        verifying.append(True)
        try:
            return verify(*args)
        finally:
            verifying.pop()

    def counting(lts):
        trees.append(lts)
        return tree(lts)

    def unchecked(lts):
        raise AssertionError("word synthesis ran the input check")

    def no_vector(*args):
        raise AssertionError("synthesis built a ParikhVector")

    monkeypatch.setattr(lts_module, "ParikhVector", no_vector)
    monkeypatch.setattr(lts_module, "reachable_states", refuse)
    monkeypatch.setattr(synthesis_module, "reachable_states", refuse)
    monkeypatch.setattr(synthesis_module, "_verify_success", verified)
    monkeypatch.setattr(synthesis_module, "spanning_tree", counting)
    for (lts, props), lines in zip(cases, expected):
        trees.clear()
        assert format_report(synthesize(lts, props)) == lines
        assert trees == [lts]
    monkeypatch.setattr(synthesis_module, "_check_synthesis_input", unchecked)
    outcomes = [word_synthesize(None, word) for word in words]
    monkeypatch.undo()
    assert [format_report(outcome) for outcome in outcomes] == expected_words
    assert {lines[0] for lines in expected_words} == {"success: Yes", "success: No"}


def _set_up(engine):
    """What an engine's set-up builds from its input."""
    return (
        engine.tree, engine.states, engine.psi, engine.parents, engine.successors,
        engine.enabled, engine.enabled_states, engine.general, engine.cycle_rows, engine.basis,
    )


def test_engine_set_up_copies_nothing_from_its_input(monkeypatch):
    # the engine reads the input's own arc lists and label dict; only the
    # input check, which runs on a defect, may read the copying accessors
    located = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s0")], locations={"a": "L"})
    cases = _walk_cases() + [(located, PropertySet())]
    expected = [_set_up(_Engine(lts, props)) for lts, props in cases]
    check, checking = synthesis_module._check_synthesis_input, []

    def guarded(read):
        def refusing(self, *args):
            if not checking:
                raise AssertionError("the engine's set-up copied its input")
            return read(self, *args)

        return refusing

    def checked(lts):
        checking.append(True)
        try:
            return check(lts)
        finally:
            checking.pop()

    monkeypatch.setattr(synthesis_module, "_check_synthesis_input", checked)
    monkeypatch.setattr(Lts, "arcs_from", guarded(Lts.arcs_from))
    for name in ("arcs", "states", "locations"):
        monkeypatch.setattr(Lts, name, property(guarded(getattr(Lts, name).fget)))
    engines = [_Engine(lts, props) for lts, props in cases]
    assert [engine.general for engine in engines] == [False, False, True, False, True, True]
    for defect in sorted(DEFECTS):
        lts, message = DEFECTS[defect]
        with pytest.raises(PreconditionError) as raised:
            _Engine(lts, PropertySet())
        assert str(raised.value) == message
    monkeypatch.undo()
    assert [_set_up(engine) for engine in engines] == expected


def test_engine_problems_match_reference():
    # the same problems in the same order, and the state indices the pass
    # read off them; language-only engines list no state pairs
    counts = {"input": 0, "rejected": 0, "tree": 0}
    cases = [("input", lts) for lts in _inputs() + _hand_inputs()]
    for family, lts in cases + [("tree", tree) for tree in _unfoldings()]:
        where = sorted(map(str, lts.arcs))
        if not (is_deterministic(lts) and is_totally_reachable(lts)):
            with pytest.raises(PreconditionError) as expected:
                reference_check_input(lts)
            with pytest.raises(PreconditionError) as raised:
                enumerate_separation_problems(lts)
            assert str(raised.value) == str(expected.value), where
            counts["rejected"] += 1
            continue
        expected = reference_enumerate(lts)
        assert enumerate_separation_problems(lts) == expected, where
        engine = _Engine(lts, PropertySet())
        keys, by_label = engine.problems()
        essp = [engine.problem("essp", *divmod(key, len(lts.labels))) for key in keys]
        assert essp == expected[: len(keys)], where
        # pair (i, j) is numbered by its rank among the pairs, after the keys
        ranked = combinations(range(len(engine.states)), 2)
        pairs = [(len(keys) + rank, i, j) for rank, (i, j) in enumerate(ranked)]
        assert (by_label, pairs) == reference_index(engine, expected), where
        engine = _Engine(lts, PropertySet(language=True))
        keys, by_label = engine.problems()
        problems = list(engine.listed(keys))
        assert problems == reference_event_state_problems(lts, lts_module.reachable_states(lts))
        assert (by_label, []) == reference_index(engine, problems), where
        assert len(problems) == len(keys) and all(p.kind == "essp" for p in problems), where
        counts[family] += 1
    assert all(counts.values()), counts


def _unfoldings():
    """Tree unfoldings of the acyclic inputs, as language-only synthesis
    solves those that are not trees themselves."""
    return [
        _unfold_to_tree(lts)[0]
        for lts in _inputs() + [_hand_inputs()[-1]]
        if is_deterministic(lts) and is_totally_reachable(lts) and _is_acyclic(lts)
    ]


@pytest.mark.parametrize("mode", ["none", "pure", "safe", "plain"])
def test_value_arrays_are_the_check_region_values(mode):
    props = PropertySet.parse(mode)
    trees = _unfoldings()
    counts = {"input": 0, "tree": 0}
    for lts in _inputs() + trees:
        # on a tree unfolding, language-only synthesis lists no state pairs
        engine = _Engine(lts, replace(props, language=lts in trees))
        _, found, _ = _separation_pass(engine)
        for region, array, _ in found:
            counts["tree" if lts in trees else "input"] += 1
            values = check_region(lts, region)
            assert list(values) == engine.states
            expected = reference_value_array(ReferenceEngine(lts, props), region)
            assert array == engine._replay(region) == list(values.values()) == expected
            assert _Engine(lts, props)._replay(region) == expected
    assert counts["input"] and counts["tree"]
    # the diamond among them unfolds into more states than it has
    diamond = _hand_inputs()[-1]
    assert len(_unfold_to_tree(diamond)[0].states) > len(diamond.states)


def _located_inputs():
    return [
        Lts.from_data(lts.initial, [tuple(arc) for arc in lts.arcs], locations=locations)
        for lts in _canonical_instances(2, 2)
        for locations in ({"a": "x", "b": "y"}, {"a": "x"})
        if len(lts.labels) == 2
    ]


GENERAL = ["safe", "2-bounded", "plain", "t-net", "output-nonbranching", "conflict-free"]


@pytest.mark.parametrize("mode", GENERAL + ["located"])
def test_general_solver_systems_match_reference(mode, monkeypatch):
    # the reference engine's LinearSystems, written as rows over the columns
    # r0, then b_t and f_t per label (r0 fixed at 0 and weighing nothing in
    # a system without it), against the rows the engine hands its
    # row-level entry, RowSystem.solve
    systems, columns = [], []

    def record_named(self):
        boxes = {v.name: (v.lower, v.upper) for v in self._vars}
        dense = lambda coeffs: [coeffs.get(name, 0) for name in columns]
        lower, upper = map(list, zip(*(boxes.get(name, (0, 0)) for name in columns)))
        rows = [(dense(coeffs), rel, rhs) for coeffs, rel, rhs in self._rows]
        systems.append((rows, lower, upper, dense(self._objective)))
        return None  # infeasible: every orientation gets its system

    def record_rows(self, lower, upper, extra=()):
        systems.append((self.rows + list(extra), lower, upper, self.objective))
        return None

    monkeypatch.setattr(LinearSystem, "solve", record_named)
    monkeypatch.setattr(RowSystem, "solve", record_rows)
    props = PropertySet.parse("none" if mode == "located" else mode)
    inputs = _located_inputs() if mode == "located" else _canonical_instances(3, 2)
    count = 0
    for lts in inputs:
        columns[:] = ["r0"] + [f"{side}_{t}" for t in lts.labels for side in "bf"]
        engine, old = _Engine(lts, props), ReferenceEngine(lts, props)
        for problem in enumerate_separation_problems(lts):
            kind, i, x = engine.locate(problem)
            own = {t: t for t in engine.labels}
            scopes = engine._location_scopes(kind, x, engine._locations)
            scopes += engine._location_scopes(kind, x, own)
            assert scopes == old._location_scopes(problem) + old._on_scopes(problem)
            for scope in scopes:
                for nonneg in (False, True) if props.cf else (False,):
                    del systems[:]
                    assert reference_solve_with(old, problem, scope, nonneg) is None
                    expected = list(systems)
                    del systems[:]
                    assert engine._solve_with(kind, i, x, scope, nonneg) is None
                    assert systems == expected, (sorted(map(str, lts.arcs)), str(problem))
                    count += len(expected)
    assert count > 0


def test_general_solver_synthesis_builds_no_kernel_basis(monkeypatch):
    # only the basis solver reads the engine's lattice basis, so synthesis
    # on the general solver never computes it, with the same outputs
    inputs = [(make_example_lts(), False), (reachability_graph(bitnet(3)).lts, False), (_diamond_chain(2), True)]
    cases = [(lts, replace(PropertySet.parse(mode), language=language)) for mode in GENERAL for lts, language in inputs]
    cases += [(lts, PropertySet()) for lts in _located_inputs()]

    def outputs():
        return [(outcome.regions, format_report(outcome)) for outcome in (synthesize(*case) for case in cases)]

    def refuse(*args, **kwargs):
        raise AssertionError("synthesis built a kernel basis")

    expected = outputs()
    monkeypatch.setattr(synthesis_module, "integer_kernel_basis", refuse)
    assert outputs() == expected
    assert {lines[0] for _, lines in expected} == {"success: Yes", "success: No"}
    with pytest.raises(AssertionError, match="built a kernel basis"):  # the basis solver reads it
        synthesize(make_example_lts())


@pytest.mark.parametrize("mode", ["none", "pure"])
def test_empty_basis_fails_every_problem_without_solving(mode, monkeypatch):
    # the basis solver solves nothing on an empty basis, so the pass lists
    # every problem as failed, in order, and asks the engine for none
    props = PropertySet.parse(mode)
    inputs = [lts for lts in _canonical_instances(3, 2) if not _Engine(lts, props).basis]
    expected = [reference_run_engine(ReferenceEngine(lts, props)) for lts in inputs]
    calls = []
    solve = _Engine.solve
    monkeypatch.setattr(_Engine, "solve", lambda self, *problem: calls.append(problem) or solve(self, *problem))
    outcomes = [synthesize(lts, props) for lts in inputs]
    assert len(inputs) > 100 and calls == []
    for outcome, reference in zip(outcomes, expected):
        assert (outcome.failed_ssp, outcome.failed_essp) == (reference.failed_ssp, reference.failed_essp)
        assert format_report(outcome) == format_report(reference)
    assert sum(not outcome.success for outcome in outcomes) > 100


def _refuse(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"synthesis {what}")
    return refuse


@pytest.mark.parametrize("mode", ["none", "pure", "plain,pure", "safe", "conflict-free"])
def test_full_rank_report_matches_the_reference_pass(mode, monkeypatch):
    # cycle rows that span every label leave every region with zero effects,
    # under any property set: the report lists every problem, as the
    # reference pass fails them one by one, and nothing is solved.  With
    # `language` the engine also runs on each cyclic input itself, as no
    # public entry point does, so that the report without state pairs is
    # checked; the public language-only calls are compared as they are
    props = PropertySet.parse(mode)
    language = replace(props, language=True)
    inputs = [
        lts for lts in _canonical_instances(3, 2)
        if integer_kernel_basis(_Engine(lts, props).cycle_rows, dim=len(lts.labels)) == []
    ]
    cases = [(lts, p) for lts in inputs for p in (props, language)]
    expected = [reference_run_engine(ReferenceEngine(lts, p)) for lts, p in cases]
    public = [_outcome_or_error(lts, language) for lts in inputs]
    with monkeypatch.context() as patched:
        patched.setattr(synthesis_module, "_Engine", ReferenceEngine)
        patched.setattr(synthesis_module, "_run_engine", reference_run_engine)
        assert public == [_outcome_or_error(lts, language) for lts in inputs]
    monkeypatch.setattr(synthesis_module, "_separation_pass", _refuse("ran the separation pass"))
    monkeypatch.setattr(synthesis_module, "integer_kernel_basis", _refuse("built a kernel basis"))
    monkeypatch.setattr(RowSystem, "solve", _refuse("solved a system"))
    outcomes = [synthesis_module._run_engine(_Engine(lts, p)) for lts, p in cases]
    for (lts, _), outcome, reference in zip(cases, outcomes, expected):
        got = (outcome.success, outcome.failed_ssp, list(outcome.failed_essp.items()))
        want = (reference.success, reference.failed_ssp, list(reference.failed_essp.items()))
        assert got == want, sorted(map(str, lts.arcs))
        assert format_report(outcome) == format_report(reference)
    assert len(inputs) > 500 and {outcome.success for outcome in outcomes} == {True, False}
    assert any(outcome.failed_ssp for outcome in outcomes)


def _outcome_or_error(lts, props):
    try:
        outcome = synthesize(lts, props)
    except AptError as err:
        return f"{type(err).__name__}: {err}"
    return format_report(outcome)


@pytest.mark.parametrize("mode", ["none", "safe", "output-nonbranching"])
def test_full_rank_synthesis_of_a_long_cycle_solves_nothing(mode, monkeypatch):
    # a one-label cycle of 200 states: 19,900 state pairs no region
    # separates, listed without a kernel basis or a system to solve
    lts = Lts.from_data("s0", [(f"s{i}", "a", f"s{(i + 1) % 200}") for i in range(200)])
    monkeypatch.setattr(synthesis_module, "integer_kernel_basis", _refuse("built a kernel basis"))
    monkeypatch.setattr(RowSystem, "solve", _refuse("solved a system"))
    outcome = synthesize(lts, PropertySet.parse(mode))
    assert not outcome.success and outcome.failed_essp == {} and outcome.regions == []
    assert outcome.failed_ssp == list(combinations(lts.states, 2))


def test_projection_down_the_tree_matches_the_dot_products():
    # each state's projection is its parent's plus one basis column, against
    # psi(s) . v for every basis vector v
    count = 0
    for lts in _canonical_instances(3, 2) + [reachability_graph(net).lts for net in (bitnet(5), cyclenet(24, 1))]:
        engine = _Engine(lts, PropertySet())
        if engine.basis:  # the basis solver reads no projection of an empty basis
            expected = [tuple(sum(a * b for a, b in zip(v, row)) for v in engine.basis) for row in engine.psi]
            assert engine._projection == expected, sorted(map(str, lts.arcs))
            count += 1
    assert count > 50


def _engine_inputs():
    """The canonical systems, bitnet(3..5) and cyclenet(16, 1)."""
    nets = [bitnet(3), bitnet(4), bitnet(5), cyclenet(16, 1)]
    return _canonical_instances(3, 2) + [reachability_graph(net).lts for net in nets]


def _words():
    """The words of the `words` digest family: length 1 to 4 over {a, b, c}."""
    return ["".join(w) for n in range(1, 5) for w in product("abc", repeat=n)]


def _outcome_lines(props):
    """Per input, the regions, failures (in order) and report lines of one
    synthesis, or the error it raised."""
    runs = [partial(synthesize, lts, props) for lts in _engine_inputs()]
    runs += [partial(word_synthesize, props, word) for word in _words()]
    lines = []
    for run in runs:
        try:
            outcome = run()
        except AptError as err:
            lines.append(f"{type(err).__name__}: {err}")
            continue
        failures = (outcome.failed_ssp, list(outcome.failed_essp.items()))
        lines.append((outcome.regions, failures, format_report(outcome)))
    return lines


@pytest.mark.parametrize("verbose", [False, True])
@pytest.mark.parametrize("mode", ["none", "pure", "plain,pure", "safe", "conflict-free"])
def test_engine_outcomes_match_the_reference_engine(mode, verbose, monkeypatch):
    # the engine on integer indices against the engine that built one
    # problem object per problem: the same regions, the same failures in
    # the same order and the same report on every input
    props = replace(PropertySet.parse(mode), verbose=verbose)
    got = _outcome_lines(props)
    monkeypatch.setattr(synthesis_module, "_Engine", ReferenceEngine)
    monkeypatch.setattr(synthesis_module, "_run_engine", reference_run_engine)
    assert got == _outcome_lines(props)
    assert {isinstance(line, tuple) and not line[1][0] and not line[1][1] for line in got} == {
        True, False
    }


def _region_inputs():
    nets = [bitnet(3), cyclenet(3, 2)]
    return [make_example_lts(), word_lts("aabab")] + [reachability_graph(n).lts for n in nets]


@seed(20150601)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_region_initial_value_matches_the_dot_products(data):
    # the drift of each state down the tree against one dot product with
    # its Parikh vector per state: the same smallest initial value
    lts = data.draw(st.sampled_from(_region_inputs()))
    weights = st.tuples(*[st.integers(0, 4)] * len(lts.labels))
    backward, forward = data.draw(weights), data.draw(weights)
    expected = ReferenceEngine(lts, PropertySet()).region(backward, forward)
    assert _Engine(lts, PropertySet()).region(backward, forward) == expected


def test_synthesis_builds_no_separation_problem(monkeypatch):
    # synthesis lists, solves and reports its problems as indices; only the
    # public wrappers build problem objects
    built = []

    class Counting(SeparationProblem):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    diamond = Lts.from_data(
        "s0", [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"), ("s2", "a", "s4"),
               ("s3", "c", "s0"), ("s4", "c", "s0")],
    )
    monkeypatch.setattr(synthesis_module, "SeparationProblem", Counting)
    outcomes = [
        synthesize(make_example_lts()),
        synthesize(make_example_lts(), PropertySet(k=1, verbose=True)),
        synthesize(diamond),
        word_synthesize(None, "abbaac"),
    ]
    assert [outcome.success for outcome in outcomes] == [True, False, False, False]
    assert outcomes[1].failed_essp == {"b": ["s4"]} and ("s3", "s4") in outcomes[2].failed_ssp
    assert built == []
    assert len(enumerate_separation_problems(diamond)) == len(built) > 0
