import itertools
import random
import tracemalloc

import pytest

from aptk import (
    AptError,
    BoundExceededError,
    Document,
    Lts,
    PreconditionError,
    PropertySet,
    Region,
    StateLimitExceededError,
    UnsupportedInputError,
    bisimilar,
    bounded,
    enumerate_separation_problems,
    format_report,
    is_conflict_free,
    is_output_nonbranching,
    is_plain,
    is_pure,
    is_tnet,
    isomorphic,
    language_equivalent,
    minimize_regions,
    reachability_graph,
    region_basis,
    render,
    solve_separation,
    synthesize,
    synthesize_language_only,
    word_lts,
    word_synthesize,
)
from aptk import linalg, petri
from aptk import synthesis as synthesis_module
from aptk.synthesis import SeparationProblem, _Engine, check_region
from aptk.generators import bitnet, cyclenet


# -- region basis ---------------------------------------------------------------


def test_region_basis_example(example_lts):
    basis = region_basis(example_lts)
    assert len(basis) == 3
    for vector in basis:
        assert sum(vector) == 0  # all cycles have Parikh vector (1,1,1,1)


def test_region_basis_acyclic_word():
    basis = region_basis(word_lts(["a", "b", "c"]))
    assert len(basis) == 3


def test_region_basis_self_loop():
    lts = Lts.from_data("s0", [("s0", "a", "s0")])
    assert region_basis(lts) == []


def test_region_basis_requires_determinism():
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2")])
    with pytest.raises(PreconditionError):
        region_basis(lts)


# -- separation problem enumeration -----------------------------------------------


def test_problem_counts_example(example_lts):
    problems = enumerate_separation_problems(example_lts)
    essp = [p for p in problems if p.kind == "essp"]
    ssp = [p for p in problems if p.kind == "ssp"]
    assert len(essp) == 7 * 4 - 10 == 18
    assert len(ssp) == 21


def test_problem_counts_trivial():
    assert enumerate_separation_problems(Lts.from_data("s0", [])) == []


def test_problem_counts_two_states():
    lts = Lts.from_data("s0", [("s0", "a", "s1")])
    problems = enumerate_separation_problems(lts)
    essp = [(p.state, p.label) for p in problems if p.kind == "essp"]
    ssp = [(p.state, p.other) for p in problems if p.kind == "ssp"]
    assert essp == [("s1", "a")]
    assert ssp == [("s0", "s1")]


# -- individual solvers -------------------------------------------------------------


def _solve(solver, problem):
    """Call an engine's solver method on a problem object: the solvers take
    a problem's kind and indices, which the engine's `locate` gives.  A
    solver returns a region with its value array, or None; this returns the
    region, after checking that the array is the region's replay."""
    engine = solver.__self__
    found = solver(*engine.locate(problem))
    if found is None:
        return None
    region, values = found
    assert values == engine._replay(region)
    return region


def _solves(engine, region, kind, i, x):
    """Whether the region solves the problem at these indices, read off a
    fresh replay of the region."""
    values = engine._replay(region)
    if kind == "essp":
        return values[i] < region.backward[x]
    return values[i] != values[x]


def test_fast_none_word_essp():
    lts = word_lts(["a", "b"])
    region = _solve(_Engine(lts, PropertySet()).solve_basis, SeparationProblem("essp", "s0", label="b"))
    assert region is not None
    assert region.effect("a") >= 1 and region.b("b") >= 1


def test_ssp_equal_parikh_vectors_unsolvable():
    # both branches meet with the same Parikh vector: values cannot differ
    lts = Lts.from_data(
        "s0",
        [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"), ("s2", "a", "s4"),
         ("s3", "c", "s0"), ("s4", "c", "s0")],
    )
    problem = SeparationProblem("ssp", "s3", other="s4")
    engine = _Engine(lts, PropertySet())
    assert _solve(engine.solve_basis, problem) is None
    assert _solve(engine.solve_general, problem) is None


def test_solve_separation_dispatches_on_properties(example_lts):
    for problem in enumerate_separation_problems(example_lts):
        for props in (None, PropertySet(pure=True), PropertySet(pure=True, plain=True)):
            expected = _solve(_Engine(example_lts, props or PropertySet()).solve_basis, problem)
            assert solve_separation(example_lts, problem, props) == expected
        expected = _solve(_Engine(example_lts, PropertySet(k=1)).solve_general, problem)
        assert solve_separation(example_lts, problem, PropertySet(k=1)) == expected


def test_safe_essp_b_s4_unsolvable(example_lts):
    problem = SeparationProblem("essp", "s4", label="b")
    region = _solve(_Engine(example_lts, PropertySet(k=1)).solve_general, problem)
    assert region is None


def test_safe_essp_c_solvable_with_canonical_region(example_lts):
    problem = SeparationProblem("essp", "s6", label="c")
    region = _solve(_Engine(example_lts, PropertySet(k=1)).solve_general, problem)
    assert region is not None
    assert region.initial == 1 and region.b("c") == 1 and region.f("d") == 1


def test_general_matches_fast_none_per_problem(example_lts):
    engine = _Engine(example_lts, PropertySet())
    for problem in enumerate_separation_problems(example_lts):
        fast = _solve(engine.solve_basis, problem)
        general = _solve(engine.solve_general, problem)
        assert (fast is None) == (general is None), str(problem)


def test_general_matches_fast_pure_per_problem(example_lts):
    engine = _Engine(example_lts, PropertySet(pure=True))
    for problem in enumerate_separation_problems(example_lts):
        fast = _solve(engine.solve_basis, problem)
        general = _solve(engine.solve_general, problem)
        assert (fast is None) == (general is None), str(problem)


def _canonical_instances(max_states, max_labels):
    """Deterministic totally reachable systems up to isomorphism (canonical
    breadth-first state naming)."""
    out = []
    for k in range(1, max_states + 1):
        for n_labels in range(1, max_labels + 1):
            for delta in itertools.product(range(-1, k), repeat=k * n_labels):
                used = [False] * n_labels
                for s in range(k):
                    for l in range(n_labels):
                        if delta[s * n_labels + l] >= 0:
                            used[l] = True
                if not all(used):
                    continue
                order = [0]
                pos = {0: 0}
                i = 0
                while i < len(order):
                    s = order[i]
                    i += 1
                    for l in range(n_labels):
                        t = delta[s * n_labels + l]
                        if t >= 0 and t not in pos:
                            pos[t] = len(order)
                            order.append(t)
                if len(order) != k or order != list(range(k)):
                    continue
                states = [f"s{i}" for i in range(k)]
                labels = [chr(ord("a") + i) for i in range(n_labels)]
                arcs = []
                for s in range(k):
                    for l in range(n_labels):
                        t = delta[s * n_labels + l]
                        if t >= 0:
                            arcs.append((states[s], labels[l], states[t]))
                out.append(Lts.from_data("s0", arcs, states=states, labels=labels))
    return out


def test_fast_paths_agree_with_general_on_small_systems():
    # every 7th canonical system with <= 3 states: pure and pure+plain modes
    for lts in _canonical_instances(3, 2)[::7]:
        eng_pp = _Engine(lts, PropertySet(pure=True, plain=True))
        eng_p = _Engine(lts, PropertySet(pure=True))
        for problem in enumerate_separation_problems(lts):
            fast_pp = _solve(eng_pp.solve_basis, problem)
            general_pp = _solve(eng_pp.solve_general, problem)
            assert (fast_pp is None) == (general_pp is None), str(problem)
            fast_p = _solve(eng_p.solve_basis, problem)
            general_p = _solve(eng_p.solve_general, problem)
            assert (fast_p is None) == (general_p is None), str(problem)
            if fast_pp is not None:  # plain+pure solvable implies pure solvable
                assert fast_p is not None


def _valid_bounded_regions(lts, weight_max, tokens_max, value_cap=None):
    """Brute-force region enumeration by replay; independent of the solvers."""
    labels = lts.labels
    states = list(lts.states)
    found = []
    for backward in itertools.product(range(weight_max + 1), repeat=len(labels)):
        for forward in itertools.product(range(weight_max + 1), repeat=len(labels)):
            for tokens in range(tokens_max + 1):
                values = {states[0]: tokens}
                ok = True
                changed = True
                while changed and ok:
                    changed = False
                    for arc in lts.arcs:
                        if arc.source not in values:
                            continue
                        li = labels.index(arc.label)
                        if values[arc.source] < backward[li]:
                            ok = False
                            break
                        nxt = values[arc.source] - backward[li] + forward[li]
                        if arc.target in values:
                            if values[arc.target] != nxt:
                                ok = False
                                break
                        else:
                            values[arc.target] = nxt
                            changed = True
                if not ok:
                    continue
                if value_cap is not None and any(v > value_cap for v in values.values()):
                    continue
                found.append((Region(labels, tokens, backward, forward), values))
    return found


def _all_problems_covered(lts, regions_with_values):
    for problem in enumerate_separation_problems(lts):
        hit = False
        for region, values in regions_with_values:
            if problem.kind == "essp":
                if values[problem.state] < region.b(problem.label):
                    hit = True
                    break
            elif values[problem.state] != values[problem.other]:
                hit = True
                break
        if not hit:
            return False
    return True


def test_safe_and_plain_pure_solvability_match_brute_force():
    # exact oracles: a property-constrained solution exists iff every problem
    # is covered by some valid region of that class (no place count limit)
    for lts in _canonical_instances(3, 2)[::11]:
        engine = _Engine(lts, PropertySet())
        safe_regions = _valid_bounded_regions(lts, 2, 1, value_cap=1)
        assert synthesize(lts, PropertySet(k=1)).success == _all_problems_covered(
            lts, safe_regions
        )
        pure_plain = []
        for effects in itertools.product((-1, 0, 1), repeat=len(lts.labels)):
            if any(
                sum(e * r for e, r in zip(effects, row)) != 0
                for row in engine.cycle_rows
            ):
                continue
            region = engine.region_from_effects(effects)
            pure_plain.append((region, check_region(lts, region)))
        assert synthesize(
            lts, PropertySet(plain=True, pure=True)
        ).success == _all_problems_covered(lts, pure_plain)


def test_plain_pure_effect_bound():
    # needing |effect| >= 2 on one label is unsolvable in plain+pure mode
    lts = word_lts(["a", "a", "b"])
    problem = SeparationProblem("essp", "s0", label="b")
    unrestricted = _solve(_Engine(lts, PropertySet(pure=True)).solve_basis, problem)
    assert unrestricted is not None
    # brute-force oracle over plain pure regions: effects in {-1,0,1}
    engine = _Engine(lts, PropertySet(pure=True, plain=True))
    solvable = False
    for e_a, e_b in itertools.product((-1, 0, 1), repeat=2):
        region = engine.region_from_effects((e_a, e_b))
        if _solves(engine, region, *engine.locate(problem)):
            solvable = True
    restricted = _solve(engine.solve_basis, problem)
    assert (restricted is not None) == solvable


# -- basis solver: the cone path ---------------------------------------------------


def _record_cone_lps(monkeypatch):
    """(LP rows, certificate or None) of every cone problem that synthesis
    solves from now on; each must be one solve_lp call, and any solve_lp
    call outside a cone problem fails the test."""
    seen = []
    lps = None  # (columns, rows) of each LP of the cone problem being solved
    solve_lp = linalg.solve_lp
    solve_cone = synthesis_module.solve_cone

    def recording_lp(num_vars, rows, *args, **kwargs):
        assert lps is not None, "a solve_lp call outside the cone path"
        lps.append((num_vars, len(rows)))
        return solve_lp(num_vars, rows, *args, **kwargs)

    def recording_cone(rows, d):
        nonlocal lps
        lps = []
        x, y = solve_cone(rows, d)
        assert lps == [(len(rows), d + 1)]  # the dual: a column per row, d + 1 rows
        lps = None
        if y is not None:  # the rows weighed to sum 1 and to the zero vector
            assert len(y) == len(rows) and all(v >= 0 for v in y) and sum(y) == 1
            assert all(sum(v * p[i] for v, p in zip(y, rows)) == 0 for i in range(d))
        seen.append((d + 1, y))
        return x, y

    monkeypatch.setattr(linalg, "solve_lp", recording_lp)
    monkeypatch.setattr(synthesis_module, "solve_cone", recording_cone)
    return seen


def test_cone_path_solves_with_one_lp_on_d_plus_one_rows(example_lts, monkeypatch):
    # one row per state under pure, over a basis of d = 3: one dual LP with
    # 4 tableau rows
    engine = _Engine(example_lts, PropertySet(pure=True))
    problem = SeparationProblem("essp", "s0", label="c")
    seen = _record_cone_lps(monkeypatch)
    region = _solve(engine.solve_basis, problem)
    assert seen == [(len(engine.basis) + 1, None)] and len(engine.basis) == 3
    check_region(example_lts, region)
    assert region.is_pure() and _solves(engine, region, *engine.locate(problem))


def test_cone_path_failure_carries_a_checked_certificate(monkeypatch):
    # the self-loops force a's effect to 0, so no pure region disables a:
    # the one dual LP ends at -1 with a Farkas certificate over the rows
    lts = Lts.from_data(
        "s0", [("s0", "b", "s1"), ("s1", "a", "s1"), ("s1", "b", "s2"), ("s2", "a", "s2")]
    )
    engine = _Engine(lts, PropertySet(pure=True))
    assert len(engine.basis) == 1
    seen = _record_cone_lps(monkeypatch)
    assert _solve(engine.solve_basis, SeparationProblem("essp", "s0", label="a")) is None
    [(tableau_rows, y)] = seen
    assert tableau_rows == 2 and y is not None  # checked by the recorder


@pytest.mark.parametrize("mode", ["none", "pure"])
def test_cone_path_makes_one_lp_per_event_state_problem(mode, monkeypatch):
    # bitnet(5) has 32 states and d = 5: every event/state problem is one
    # LP with 6 tableau rows, against one row per enabling state (or per
    # state under pure) in the primal
    lts = reachability_graph(bitnet(5)).lts
    engine = _Engine(lts, PropertySet.parse(mode))
    problems = [p for p in enumerate_separation_problems(lts) if p.kind == "essp"]
    seen = _record_cone_lps(monkeypatch)
    for problem in problems:
        assert _solve(engine.solve_basis, problem) is not None
    assert seen == [(len(engine.basis) + 1, None)] * len(problems)
    assert len(engine.basis) == 5


def test_empty_basis_solves_nothing_without_a_system(monkeypatch):
    # the cycles ab and b span both labels: every region has zero effects
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s0"), ("s0", "b", "s0")])

    def refuse(*args, **kwargs):
        raise AssertionError("an empty basis built a system or made an LP call")

    monkeypatch.setattr(synthesis_module, "RowSystem", refuse)
    monkeypatch.setattr(synthesis_module, "solve_cone", refuse)
    monkeypatch.setattr(linalg, "solve_lp", refuse)
    problems = enumerate_separation_problems(lts)
    assert {p.kind for p in problems} == {"essp", "ssp"}
    for mode in ("none", "pure", "plain", "plain,pure"):
        engine = _Engine(lts, PropertySet.parse(mode))
        assert engine.basis == []
        for problem in problems:
            assert _solve(engine.solve_basis, problem) is None


def test_engine_systems_stop_at_the_node_limit(example_lts, monkeypatch):
    # a safe region for this state pair takes five node LPs in the engine's
    # one system of the row-level entry; one fewer allowed stops it
    engine = _Engine(example_lts, PropertySet(k=1))
    problem = SeparationProblem("ssp", "s0", other="s6")
    nodes = []
    solve_lp = linalg.solve_lp
    monkeypatch.setattr(linalg, "solve_lp", lambda *a, **k: nodes.append(1) or solve_lp(*a, **k))
    region = _solve(engine.solve, problem)
    needed = len(nodes)
    assert region is not None and needed == 5
    monkeypatch.setattr(linalg, "DEFAULT_NODE_LIMIT", needed)
    assert _solve(_Engine(example_lts, PropertySet(k=1)).solve, problem) == region
    monkeypatch.setattr(linalg, "DEFAULT_NODE_LIMIT", needed - 1)
    with pytest.raises(BoundExceededError, match=f"limit of {needed - 1} nodes"):
        _solve(_Engine(example_lts, PropertySet(k=1)).solve, problem)


def test_failing_word_makes_one_cone_lp_per_problem(monkeypatch):
    # a failing language-only input: every problem is at most one LP, and
    # each unsolvable one is refused by its LP with a certificate
    rng = random.Random(5)
    word = [rng.choice("abc") for _ in range(160)]
    essp, _ = _Engine(word_lts(word), PropertySet(language=True)).problems()
    seen = _record_cone_lps(monkeypatch)
    outcome = word_synthesize(None, word)
    assert not outcome.success
    failed = sum(len(states) for states in outcome.failed_essp.values())
    assert 0 < len(seen) <= len(essp)
    assert sum(y is not None for _, y in seen) == failed > 0


def test_all_zero_region_never_solves_essp(example_lts):
    engine = _Engine(example_lts, PropertySet())
    zero = Region(example_lts.labels, 0, (0, 0, 0, 0), (0, 0, 0, 0))
    for problem in enumerate_separation_problems(example_lts):
        if problem.kind == "essp":
            assert not _solves(engine, zero, *engine.locate(problem))


def test_emitted_regions_are_valid(example_lts):
    engine = _Engine(example_lts, PropertySet())
    for problem in enumerate_separation_problems(example_lts):
        region = _solve(engine.solve, problem)
        if region is not None:
            check_region(example_lts, region)  # raises on violation


# -- synthesize ----------------------------------------------------------------------


def test_synthesize_none_example(example_lts):
    outcome = synthesize(example_lts)
    assert outcome.success
    assert not outcome.failed_ssp and not outcome.failed_essp
    assert isomorphic(reachability_graph(outcome.net).lts, example_lts)


def test_synthesize_plain_pure_example(example_lts):
    outcome = synthesize(example_lts, PropertySet(plain=True, pure=True))
    assert outcome.success
    assert is_plain(outcome.net) and is_pure(outcome.net)
    assert isomorphic(reachability_graph(outcome.net).lts, example_lts)


def test_synthesize_pure_alone_example(example_lts):
    outcome = synthesize(example_lts, PropertySet(pure=True))
    assert outcome.success
    assert is_pure(outcome.net)
    assert isomorphic(reachability_graph(outcome.net).lts, example_lts)


def test_synthesize_two_bounded_example(example_lts):
    outcome = synthesize(example_lts, PropertySet(k=2))
    assert outcome.success
    assert bounded(outcome.net, 2)
    assert isomorphic(reachability_graph(outcome.net).lts, example_lts)


def test_synthesize_safe_example_fails_exactly_at_b_s4(example_lts):
    outcome = synthesize(example_lts, PropertySet(k=1))
    assert not outcome.success
    assert outcome.failed_ssp == []
    assert outcome.failed_essp == {"b": ["s4"]}
    # some found region disables c at exactly s4, s5, s6
    expected = {"s4", "s5", "s6"}
    hits = []
    for region in outcome.regions:
        values = check_region(example_lts, region)
        disabled = {s for s in example_lts.states if values[s] < region.b("c")}
        if disabled == expected:
            hits.append(region)
    assert hits, [str(r) for r in outcome.regions]


def test_synthesize_locations(example_lts):
    located = Lts.from_data(
        "s0",
        [(a.source, a.label, a.target) for a in example_lts.arcs],
        locations={"a": "A", "b": "B", "c": "A", "d": "A"},
    )
    outcome = synthesize(located)
    assert outcome.success
    net = outcome.net
    preset_b = set(net.preset("b"))
    for t in ("a", "c", "d"):
        assert not preset_b & set(net.preset(t))
    assert isomorphic(reachability_graph(net).lts, located)


def test_location_soundness_random_assignments(example_lts):
    import random

    rng = random.Random(5)
    arcs = [(a.source, a.label, a.target) for a in example_lts.arcs]
    for _ in range(12):
        locations = {}
        for t in example_lts.labels:
            choice = rng.choice([None, "A", "B", "C"])
            if choice:
                locations[t] = choice
        lts = Lts.from_data("s0", arcs, locations=locations)
        outcome = synthesize(lts)
        if not outcome.success:
            continue
        net = outcome.net
        for t1, t2 in itertools.combinations(example_lts.labels, 2):
            l1, l2 = locations.get(t1), locations.get(t2)
            if l1 is not None and l2 is not None and l1 != l2:
                assert not set(net.preset(t1)) & set(net.preset(t2))
        assert isomorphic(reachability_graph(net).lts, lts)


def test_synthesize_single_state_no_labels():
    outcome = synthesize(Lts.from_data("s0", []))
    assert outcome.success
    assert outcome.net.places == () and outcome.net.transitions == ()


def test_synthesize_output_nonbranching(example_lts):
    outcome = synthesize(example_lts, PropertySet(on=True))
    assert outcome.success
    assert is_output_nonbranching(outcome.net)


def test_synthesize_tnet_on_cycle():
    lts = reachability_graph(cyclenet(4, 1)).lts
    outcome = synthesize(lts, PropertySet(tnet=True))
    assert outcome.success
    assert is_tnet(outcome.net)


def test_synthesize_conflict_free_on_bit():
    lts = reachability_graph(bitnet(2)).lts
    outcome = synthesize(lts, PropertySet(cf=True))
    assert outcome.success
    assert is_conflict_free(outcome.net)


def test_synthesize_rejects_nondeterministic():
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2")])
    with pytest.raises(PreconditionError):
        synthesize(lts)


def test_synthesize_checks_input_before_enumerating(monkeypatch):
    # a bad input fails fast, without the quadratic problem list
    listed = []
    problems = _Engine.problems

    def recording(self):
        listed.append(self.lts)
        return problems(self)

    monkeypatch.setattr(_Engine, "problems", recording)
    lts = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "a", "s2")])
    with pytest.raises(PreconditionError):
        synthesize(lts)
    assert listed == []
    assert synthesize(word_lts(["a", "b"])).success
    assert len(listed) == 1  # the problem list the check has to precede


def test_synthesize_rejects_unreachable():
    lts = Lts.from_data("s0", [("s0", "a", "s0")], states=["lost"])
    with pytest.raises(PreconditionError):
        synthesize(lts)


def test_failure_report_is_complete():
    # two unsolvable event/state problems: both must be reported
    lts = Lts.from_data(
        "s0",
        [("s0", "a", "s1"), ("s0", "b", "s2"), ("s1", "b", "s3"), ("s2", "a", "s4"),
         ("s3", "c", "s0"), ("s4", "c", "s0")],
    )
    outcome = synthesize(lts)
    assert not outcome.success
    assert ("s3", "s4") in outcome.failed_ssp


# -- region minimization ----------------------------------------------------------


def _chain():
    """s0 -a-> s1 -a-> s2: one event/state problem (a at s2) and three
    state pairs, for `minimize_regions`."""
    engine = _Engine(word_lts("aa"), PropertySet())
    return engine, engine.problems()[0]


def test_minimize_drops_duplicate():
    engine, keys = _chain()
    r1 = Region(("a",), 2, (1,), (0,))
    r2 = Region(("a",), 4, (2,), (0,))
    # both solve every problem: the first is kept
    kept = minimize_regions(engine, [(r1, [2, 1, 0], {0}), (r2, [4, 2, 0], {0})], keys)
    assert kept == [r1]


def test_minimize_required_region_wins():
    engine, keys = _chain()
    r_a = Region(("a",), 1, (1,), (0,))
    r_b = Region(("a",), 2, (1,), (0,))
    # r_b uniquely solves the pair (s0, s1) and also covers every problem
    # r_a solves: r_a is dropped
    kept = minimize_regions(engine, [(r_a, [1, 1, 0], {0}), (r_b, [2, 1, 0], {0})], keys)
    assert kept == [r_b]


def test_minimize_walks_state_pairs_in_order():
    engine, keys = _chain()
    regions = [Region(("a",), j, (0,), (0,)) for j in range(4)]
    arrays = [[0, 0, 0], [0, 0, 1], [0, 1, 2], [0, 1, 0]]
    # the first region alone solves the event/state problem, and every
    # state pair has two solvers or more.  The pair (s0, s1) comes first and
    # takes the third region, which splits every pair: the second, the
    # lowest solver of (s0, s2), is not needed
    found = [(r, values, {0} if j == 0 else set()) for j, (r, values) in enumerate(zip(regions, arrays))]
    assert minimize_regions(engine, found, keys) == [regions[0], regions[2]]


def test_synthesis_memory_grows_with_regions_times_states():
    # the pass and the minimisation keep one value array per found region,
    # no set of the state pairs each one splits
    lts = reachability_graph(bitnet(8)).lts  # 256 states, 32,640 state pairs
    tracemalloc.start()
    try:
        assert synthesize(lts).success
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_minimize_preserves_feasibility_example(example_lts):
    outcome = synthesize(example_lts, PropertySet(plain=True, pure=True))
    problems = enumerate_separation_problems(example_lts)
    engine = _Engine(example_lts, PropertySet())
    for problem in problems:
        assert any(_solves(engine, r, *engine.locate(problem)) for r in outcome.regions)


def test_separation_pass_evaluates_each_region_once(example_lts, monkeypatch):
    # each found region is replayed once, inside the solvers, and the pass
    # reads the value array the solver returns with it
    calls = {"inside": 0, "outside": 0}
    inside = []
    found = []
    replay = _Engine._replay
    solve, minimize = _Engine.solve, synthesis_module.minimize_regions

    def counting_replay(self, region):
        calls["inside" if inside else "outside"] += 1
        return replay(self, region)

    def marked_solve(self, *key):
        inside.append(key)
        try:
            return solve(self, *key)
        finally:
            inside.pop()

    def recording_minimize(engine, solved, keys):
        found.extend(solved)
        return minimize(engine, solved, keys)

    monkeypatch.setattr(_Engine, "_replay", counting_replay)
    monkeypatch.setattr(_Engine, "solve", marked_solve)
    monkeypatch.setattr(synthesis_module, "minimize_regions", recording_minimize)
    assert synthesize(example_lts).success
    regions = [region for region, _, _ in found]
    assert len(set(regions)) == len(regions) > 0
    assert calls == {"inside": len(regions), "outside": 0}
    # the one evaluation gives each region exactly the event/state problems
    # it solves, and its value array splits exactly the state pairs it solves
    monkeypatch.undo()
    engine = _Engine(example_lts, PropertySet())
    keys, width = engine.problems()[0], len(engine.labels)
    for region, values, problem_set in found:
        essp = [divmod(key, width) for key in keys]
        assert values == engine._replay(region)
        assert problem_set == {p for p, (i, x) in enumerate(essp) if _solves(engine, region, "essp", i, x)}
        for i, j in itertools.combinations(range(len(engine.states)), 2):
            assert (values[i] != values[j]) == _solves(engine, region, "ssp", i, j)


# -- word synthesis ----------------------------------------------------------------


def test_word_synthesize_failure_rendering():
    outcome = word_synthesize(None, ["a", "b", "b", "a", "a", "c"])
    assert not outcome.success
    assert outcome.separation_failure_points == "a, b, [a] b, a, a, c"


def test_word_synthesize_letters_named_like_states():
    # letters may be named like the states s0..sn: such a state takes
    # another s in front, and failures are placed by position, not by name
    assert list(word_lts(["s1", "a"]).states) == ["s0", "ss1", "s2"]
    assert list(word_lts(["ss1", "s2", "s1"]).states) == ["s0", "sss1", "ss2", "s3"]
    assert list(word_lts(["s3", "ss1"]).states) == ["s0", "s1", "s2"]
    outcome = word_synthesize(None, ["s1", "a"])
    assert outcome.success
    assert language_equivalent(reachability_graph(outcome.net).lts, word_lts(["s1", "a"]))
    twin = word_synthesize(None, ["a", "b", "b", "a", "a", "c"])
    clash = word_synthesize(None, ["s1", "s0", "s0", "s1", "s1", "c"])
    assert not clash.success
    renamed = twin.separation_failure_points.replace("a", "s1").replace("b", "s0")
    assert clash.separation_failure_points == renamed == "s1, s0, [s1] s0, s1, s1, c"


def test_word_synthesize_single_letter():
    outcome = word_synthesize(None, ["a"])
    assert outcome.success
    net = outcome.net
    assert len(net.places) == 1
    place = net.places[0]
    assert net.initial_marking().get(place) == 1
    assert net.flow(place, "a") >= 1
    graph = reachability_graph(net)
    assert language_equivalent(graph.lts, word_lts(["a"]))


def test_word_synthesize_empty_word():
    outcome = word_synthesize(None, [])
    assert outcome.success
    assert outcome.net.transitions == ()


def test_word_synthesize_success_language():
    outcome = word_synthesize(None, ["a", "b"])
    assert outcome.success
    graph = reachability_graph(outcome.net)
    assert language_equivalent(graph.lts, word_lts(["a", "b"]))


def test_word_report_format():
    outcome = word_synthesize(None, ["a", "b", "b", "a", "a", "c"])
    lines = format_report(outcome)
    assert lines[0] == "success: No"
    assert lines[-1] == "separationFailurePoints: a, b, [a] b, a, a, c"


# -- language-only synthesis --------------------------------------------------------


def test_language_only_word_ab():
    outcome = synthesize_language_only(word_lts(["a", "b"]))
    assert outcome.success
    graph = reachability_graph(outcome.net)
    assert language_equivalent(graph.lts, word_lts(["a", "b"]))


def test_language_only_rejects_cycles(example_lts):
    with pytest.raises(UnsupportedInputError):
        synthesize_language_only(example_lts)


def test_language_only_single_state():
    outcome = synthesize_language_only(Lts.from_data("s0", []))
    assert outcome.success
    assert outcome.net.places == ()


def test_language_only_reconvergent_dag():
    lts = Lts.from_data(
        "x", [("x", "a", "y"), ("x", "b", "z"), ("y", "c", "u"), ("z", "c", "v")]
    )
    outcome = synthesize_language_only(lts)
    assert outcome.success
    graph = reachability_graph(outcome.net)
    assert language_equivalent(graph.lts, lts)


def test_language_only_unfolding_names_states_around_the_labels():
    # generated tree states step around a label named like one of them
    lts = Lts.from_data("q0", [("q0", "a", "q1"), ("q0", "s1", "q1"), ("q1", "b", "q2")])
    outcome = synthesize(lts, PropertySet(language=True))
    assert outcome.success
    tree, origin = outcome.unfolding
    assert list(tree.states) == ["s0", "ss1", "s2", "s3", "s4"]
    assert origin == {"s0": "q0", "ss1": "q1", "s2": "q1", "s3": "q2", "s4": "q2"}
    assert language_equivalent(reachability_graph(outcome.net).lts, lts)


def test_language_only_failures_name_input_states():
    # both tree copies of s1 (reached by a, b or c) fail to disable c; the
    # report names s1 once, and the verbose lists name input states only
    lts = Lts.from_data(
        "s0",
        [("s0", "a", "s1"), ("s0", "b", "s1"), ("s0", "c", "s1"),
         ("s1", "a", "s2"), ("s1", "b", "s3")],
    )
    outcome = synthesize(lts, PropertySet(plain=True, language=True, verbose=True))
    assert not outcome.success
    assert outcome.failed_essp == {"c": ["s1"]}
    lines = format_report(outcome)
    assert "failedEventStateSeparationProblems: {c=[s1]}" in lines
    listed = [line.split("[", 1)[1].rstrip("]").split(", ") for line in lines if "separates" in line]
    assert listed and all(len(set(states)) == len(states) for states in listed)
    assert {s for states in listed for s in states} <= set(lts.states)


def test_language_only_builds_no_state_pair_problems(monkeypatch):
    # state separation is not enforced, so no state pair is ever listed
    # or solved
    kinds = []
    solve = _Engine.solve

    def recording(self, kind, *indices):
        kinds.append(kind)
        return solve(self, kind, *indices)

    monkeypatch.setattr(_Engine, "solve", recording)
    assert word_synthesize(None, "abcabcabcabc").success
    assert not word_synthesize(None, "abbaac").success
    assert not synthesize_language_only(_diamond_chain(2), PropertySet(k=1)).success
    assert kinds and set(kinds) == {"essp"}


def test_language_only_state_lists_walk_the_input_once(monkeypatch):
    # failures and each verbose report name input states in the input's
    # breadth-first order, taken from one walk of the input each; the
    # tree's order of first copies would name [s2, s1] here
    reconverging = Lts.from_data("s0", [("s0", "a", "s1"), ("s0", "b", "s2"), ("s2", "b", "s1")])
    walks = []
    walk = synthesis_module.reachable_states

    def counting(lts):
        walks.append(lts)
        return walk(lts)

    monkeypatch.setattr(synthesis_module, "reachable_states", counting)
    cases = [
        (PropertySet(verbose=True), word_lts("abcabcabcabc")),
        (PropertySet(verbose=True), word_lts("abbaac")),
        (PropertySet(verbose=True), _diamond_chain(2)),
        (PropertySet(k=1, verbose=True), reconverging),
    ]
    for props, lts in cases:
        walks.clear()
        outcome = synthesize_language_only(lts, props)
        assert len(walks) <= 1
        walks.clear()
        lines = format_report(outcome)
        assert len(walks) <= 1 and any("separates event" in line for line in lines)
    assert outcome.failed_essp == {"a": ["s1", "s2"], "b": ["s1"]}
    assert "\tseparates event a at states [s1]" in lines


def _diamond_chain(k):
    """k diamonds in a row: 3k + 1 states, 2^k paths to the last state."""
    arcs = []
    for i in range(k):
        arcs += [(f"d{i}", "a", f"l{i}"), (f"d{i}", "b", f"r{i}"),
                 (f"l{i}", "b", f"d{i + 1}"), (f"r{i}", "a", f"d{i + 1}")]
    return Lts.from_data("d0", arcs)


def test_language_only_unfolding_stops_at_the_state_limit(monkeypatch):
    # the tree unfolding of 4 diamonds has 1 + 2 * (2 + 4 + 8 + 16) = 61 states
    lts = _diamond_chain(4)
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 60)
    with pytest.raises(StateLimitExceededError, match="more than 60 states"):
        synthesize_language_only(lts)
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 61)
    assert synthesize_language_only(lts).success


def _one_label_cycle(n, tail=False):
    """s0 -a-> s1 ... -a-> s0, with `tail` also s0 -b-> t."""
    arcs = [(f"s{i}", "a", f"s{(i + 1) % n}") for i in range(n)]
    return Lts.from_data("s0", arcs + [("s0", "b", "t")] * tail)


@pytest.mark.parametrize("mode", ["none", "safe"])
def test_failed_state_pairs_stop_at_the_state_limit(mode, monkeypatch):
    # a six-state one-label cycle fails its 15 state pairs at once; with a
    # b-arc out of it the basis is not empty, and the pass fails them one by
    # one.  Either report raises past the limit, read at call time
    props = PropertySet.parse(mode)
    for lts in (_one_label_cycle(6), _one_label_cycle(6, tail=True)):
        pairs = len(synthesize(lts, props).failed_ssp)
        assert pairs >= 15
        monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", pairs - 1)
        with pytest.raises(StateLimitExceededError, match=f"more than {pairs - 1} state pairs"):
            synthesize(lts, props)
        monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", pairs)
        assert len(synthesize(lts, props).failed_ssp) == pairs
    monkeypatch.setattr(petri, "DEFAULT_STATE_LIMIT", 10)
    with pytest.raises(StateLimitExceededError, match="more than 10 state pairs"):
        synthesize(_one_label_cycle(6), props)


# -- report rendering -----------------------------------------------------------


def test_report_failure_example(example_lts):
    outcome = synthesize(example_lts, PropertySet(k=1))
    lines = format_report(outcome)
    assert lines[0] == "success: No"
    assert "failedStateSeparationProblems: []" in lines
    assert "failedEventStateSeparationProblems: {b=[s4]}" in lines


def test_report_verbose_region_lines(example_lts):
    outcome = synthesize(example_lts, PropertySet(k=1, verbose=True))
    text = "\n".join(format_report(outcome))
    assert "solvedEventStateSeparationProblems:" in text
    assert "Region { init=" in text
    assert "separates event" in text


def test_verbose_report_builds_no_engine(monkeypatch, example_lts):
    # the report replays each region through check_region on the solved
    # system (the tree unfolding for language-only), not on a second engine
    outcomes = [
        synthesize(example_lts, PropertySet(k=1, verbose=True)),
        synthesize(example_lts, PropertySet(pure=True, verbose=True)),
        word_synthesize(PropertySet(verbose=True), "abbaac"),
        synthesize(_diamond_chain(2), PropertySet(language=True, verbose=True)),
    ]
    expected = [format_report(outcome) for outcome in outcomes]

    def refuse(*args):
        raise AssertionError("format_report built an engine")

    monkeypatch.setattr(synthesis_module, "_Engine", refuse)
    assert [format_report(outcome) for outcome in outcomes] == expected
    assert all(any("separates event" in line for line in lines) for lines in expected)


def test_region_string_format():
    region = Region(("a", "b", "c", "d"), 1, (0, 0, 1, 0), (0, 0, 0, 1))
    assert str(region) == "Region { init=1, 0:a:0, 0:b:0, 1:c:0, 0:d:1 }"


# -- property parsing --------------------------------------------------------------


def test_property_parsing_roundtrip():
    props = PropertySet.parse("plain,pure")
    assert props.plain and props.pure and props.k is None
    assert PropertySet.parse("safe").k == 1
    assert PropertySet.parse("3-bounded").k == 3
    assert PropertySet.parse("none").describe() == "none"
    assert PropertySet.parse("t-net").plain
    assert PropertySet.parse("conflict-free").plain
    assert PropertySet.parse("language,verbose").language


def test_property_description_parses_back():
    # every net property flag, language, and no bound, safe or 2-bounded
    flags = ["pure", "plain", "output-nonbranching", "t-net", "conflict-free", "language"]
    combinations = [
        list(chosen) + bound
        for n in range(len(flags) + 1)
        for chosen in itertools.combinations(flags, n)
        for bound in ([], ["safe"], ["2-bounded"])
    ]
    assert len(combinations) == 192
    for tokens in combinations:
        props = PropertySet.parse(",".join(tokens))
        assert PropertySet.parse(props.describe()) == props
    assert PropertySet.parse("language,2-bounded,pure").describe() == "pure,2-bounded,language"
    assert PropertySet.parse("verbose,safe").describe() == "safe"


def test_property_parsing_rejects_unknown():
    with pytest.raises(AptError):
        PropertySet.parse("shiny")
    with pytest.raises(AptError):
        PropertySet.parse("safe,2-bounded")
    with pytest.raises(AptError):
        PropertySet.parse("2-bounded,safe")
    assert PropertySet.parse("safe,1-bounded").k == 1
    for bound_zero in (lambda: PropertySet(k=0), lambda: PropertySet.parse("0-bounded")):
        with pytest.raises(AptError, match="^k-bounded needs k >= 1$"):
            bound_zero()


def test_property_parsing_rejects_non_decimal_bound():
    # '²' is a digit to str.isdigit, but int() reads no such numeral
    with pytest.raises(AptError, match="unknown property '²-bounded'"):
        PropertySet.parse("²-bounded")


def test_synthesize_is_deterministic(example_lts):
    for text in ("none", "plain,pure", "2-bounded"):
        first = synthesize(example_lts, PropertySet.parse(text))
        second = synthesize(example_lts, PropertySet.parse(text))
        assert render(Document(kind="LPN", net=first.net)) == render(
            Document(kind="LPN", net=second.net)
        )


@pytest.mark.parametrize(
    "props_text",
    ["none", "pure", "plain,pure", "output-nonbranching", "conflict-free", "2-bounded"],
)
def test_generator_graphs_synthesize_under_properties(props_text):
    # every generated net is itself a witness that a solution exists for the
    # properties it satisfies; successes must verify, failures are allowed
    # only where the witness lacks the property (checked per net)
    from aptk.generators import philnet_bistate

    witnesses = {
        "none": lambda net: True,
        "pure": is_pure,
        "plain,pure": lambda net: is_plain(net) and is_pure(net),
        "output-nonbranching": is_output_nonbranching,
        "conflict-free": is_conflict_free,
        "2-bounded": lambda net: bounded(net, 2),
    }
    for net in [bitnet(3), philnet_bistate(3), cyclenet(4, 2), cyclenet(3, 3)]:
        lts = reachability_graph(net).lts
        props = PropertySet.parse(props_text)
        outcome = synthesize(lts, props)
        if witnesses[props_text](net):
            assert outcome.success, (net.name, props_text)
        if outcome.success:
            assert isomorphic(
                reachability_graph(outcome.net, state_limit=4096).lts, lts
            )


# -- cross-output equivalences -------------------------------------------------------


def test_outputs_mutually_equivalent(example_lts, n1, n2, n3):
    graphs = [reachability_graph(net).lts for net in (n1, n2, n3)]
    for lts in graphs:
        assert isomorphic(lts, example_lts)
    for g1, g2 in itertools.combinations(graphs, 2):
        assert isomorphic(g1, g2)
        assert bisimilar(g1, g2)
        assert language_equivalent(g1, g2)
