"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    result = run.measure(workload, seed=3, seconds=0.01, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    report = capsys.readouterr().err
    for m in section:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in report.splitlines())


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)


def test_tracer_restores_the_wrapped_functions():
    program = run.load_program()
    targets = tracing._targets(program)
    before = [vars(owner)[attribute] for owner, attribute, _, _ in targets]
    tracer = tracing.Tracer(program)
    tracer.install()
    assert all(vars(owner)[attribute] is not f for (owner, attribute, _, _), f in zip(targets, before))
    lts = program.aptk.Lts.from_data("s0", [("s0", "a", "s1"), ("s1", "b", "s0")])
    assert program.synthesis.synthesize(lts).success
    tracer.restore()
    assert all(vars(owner)[attribute] is f for (owner, attribute, _, _), f in zip(targets, before))
    names = [span[0] for span in tracer.spans]
    assert names[0] == "synthesis.synthesize" and tracer.spans[0][3] == -1
    assert "linalg.solve_lp" in names and "petri.reachability_graph@synthesis" in names
    assert all(span[3] >= 0 for span in tracer.spans[1:])


def test_wrong_expected_verdict_shows_as_failures(monkeypatch):
    build = jobs.WORKLOADS["synth-bnb"]

    def wrong(*args):
        job_list = build(*args)
        job = next(j for j in job_list if j.tiny and j.expect["fields"]["success"] == "Yes")
        job.expect["fields"]["success"] = "No"
        return job_list

    monkeypatch.setitem(jobs.WORKLOADS, "synth-bnb", wrong)
    result = run.measure("synth-bnb", seed=3, seconds=0.01, trace=False, tiny=True)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-lp", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_sweep_matches_the_acceptance_enumeration():
    assert sum(1 for _ in jobs.canonical_systems(4, 2)) == 21077
    assert len(jobs.PINNED["sweep_solvable"]) == 166


@pytest.mark.parametrize(
    "family, params",
    [("bitnet", (3,)), ("cyclenet", (3, 2)), ("cyclenet", (5, 1)), ("philnet", (2,)), ("philnet", (5,))],
)
def test_closed_form_sizes_match_the_reachability_graph(family, params):
    program = run.load_program()
    make, size = jobs.FAMILIES[family]
    graph = program.petri.reachability_graph(make(program.generators, *params)).lts
    assert size(*params) == (len(graph.states), len(graph.arcs))


def test_seed_changes_the_files_but_not_the_failure_lists(tmp_path):
    program = run.load_program()
    texts = []
    for seed in (1, 2):
        work = tmp_path / str(seed)
        work.mkdir()
        job = jobs._synth_job(program, seed, work, "safe", "cyclenet", 3, 2)
        texts.append(Path(job.argv[2]).read_text())
        _, output = run.run_job(program, job)
        assert jobs.check(job, output) == []
    assert texts[0] != texts[1]


def test_unbounded_witness_is_replayed():
    net = oracle.Net.parse(".places\na b\n.transitions\nt\n.flows\nt: { a } -> { 2 * b }\n.initial_marking { a }\n")
    assert oracle.replay_exceeds(net, ["t"], "b", 1)
    assert not oracle.replay_exceeds(net, ["t", "t"], "b", 1)
