"""The benchmark's four workloads: their jobs, inputs and expected results.

Each workload builder runs inside set-up.  It generates the inputs with
aptk's generators, writes the `.apt` files a job reads, and attaches to
every job what an independent check must find in its output
(see `check`).  The seed renames states and shuffles the listing order of
states and arcs in every LTS file it writes, and shuffles the sweep order;
verdicts and pinned failure lists do not depend on it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import oracle

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())

# Every fourth system of the canonical sweep keeps a pass near two seconds
# while still making thousands of tiny synthesis calls.
SWEEP_STRIDE = 4
TINY_SWEEP_STRIDE = 211


@dataclass
class Job:
    """One `apt` invocation (argv) or one library synthesis call (lts)."""

    id: str
    argv: Tuple[str, ...] = ()
    lts: Any = None
    outfile: Optional[str] = None
    expect: Dict[str, Any] = field(default_factory=dict)
    tiny: bool = False


# -- inputs ---------------------------------------------------------------


def _marking_key(marking) -> str:
    return ",".join(str(c) for c in marking.counts)


def _write_net(program, net, path: Path) -> str:
    path.write_text(program.aptio.render(program.aptio.Document(kind="LPN", net=net)))
    return str(path)


def _write_seeded_lts(graph, rng: random.Random, path: Path) -> Dict[str, str]:
    """Write a reachability graph under seeded state names and listing
    order; returns written name -> marking key.  Labels keep their order."""
    lts = graph.lts
    names = [f"q{i}" for i in range(len(lts.states))]
    rng.shuffle(names)
    rename = dict(zip(lts.states, names))
    states = [rename[s] for s in lts.states]
    rng.shuffle(states)
    arcs = [(rename[a.source], a.label, rename[a.target]) for a in lts.arcs]
    rng.shuffle(arcs)
    path.write_text(oracle.write_lts(states, rename[lts.initial], lts.labels, arcs))
    return {rename[s]: _marking_key(graph.markings[s]) for s in lts.states}


FAMILIES: Dict[str, Tuple[Callable[..., Any], Callable[..., Tuple[int, int]]]] = {
    "bitnet": (lambda g, *a: g.bitnet(*a), oracle.bitnet_size),
    "cyclenet": (lambda g, *a: g.cyclenet(*a), oracle.cyclenet_size),
    "philnet": (lambda g, *a: g.philnet_bistate(*a), oracle.philnet_size),
}


def _synth_job(program, seed: int, work: Path, props: str, family: str, *params: int, tiny=False) -> Job:
    make, size = FAMILIES[family]
    label = f"{family}({','.join(map(str, params))})"
    job_id = f"synthesize {props} {label}"
    graph = program.petri.reachability_graph(make(program.generators, *params))
    stem = f"{props}-{label}".replace(",", "_").replace("(", "_").replace(")", "")
    lts_path = work / f"{stem}.apt"
    rename = _write_seeded_lts(graph, random.Random(f"{seed}/{job_id}"), lts_path)
    outfile = str(work / f"{stem}.net.apt")
    states, arcs = size(*params)
    pinned = PINNED["failures"].get(job_id)
    expect = {
        "fields": {"success": "No" if pinned else "Yes"},
        "input_size": (len(graph.lts.states), len(graph.lts.arcs), states, arcs),
    }
    if pinned:
        expect["failures"] = (pinned, rename)
    else:
        expect["net_size"] = (states, arcs)
    return Job(job_id, ("synthesize", props, str(lts_path), outfile), outfile=outfile, expect=expect, tiny=tiny)


def canonical_systems(max_states: int, max_labels: int) -> Iterator[Tuple[int, int, Tuple[int, ...]]]:
    """All deterministic, totally reachable systems up to isomorphism.

    A system is (k states, n labels, delta) with delta[s*n+l] the target of
    label l at state s or -1; it is canonical when breadth-first discovery
    (labels in order) meets the states as 0, 1, ..., k-1 and every label is
    used.  Generated in lexicographic order of delta, so the order matches a
    filtered product over all deltas.
    """
    for k in range(1, max_states + 1):
        for n in range(max_labels + 1):
            if n == 0:
                if k == 1:
                    yield (1, 0, ())
                continue
            yield from _extend(k, n, [], 1)


def _extend(k: int, n: int, delta: List[int], found: int):
    position = len(delta)
    if position == k * n:
        if found == k and all(any(delta[s * n + l] >= 0 for s in range(k)) for l in range(n)):
            yield (k, n, tuple(delta))
        return
    if position // n >= found:  # this state was never reached
        return
    for target in range(-1, found + (found < k)):
        delta.append(target)
        yield from _extend(k, n, delta, found + (target == found))
        delta.pop()


def _sweep_jobs(program, seed: int, stride: int) -> List[Job]:
    solvable = set(PINNED["sweep_solvable"])
    jobs = []
    for index, (k, n, delta) in enumerate(canonical_systems(4, 2)):
        if index % stride:
            continue
        states = [f"s{i}" for i in range(k)]
        labels = [chr(ord("a") + i) for i in range(n)]
        arcs = [
            (states[s], labels[l], states[delta[s * n + l]])
            for s in range(k)
            for l in range(n)
            if delta[s * n + l] >= 0
        ]
        key = f"{k}:{n}:{','.join(map(str, delta))}"
        jobs.append(
            Job(
                f"sweep {key}",
                lts=program.aptk.Lts.from_data("s0", arcs, states=states, labels=labels),
                expect={"success": key in solvable, "net_size": (k, len(arcs))},
                tiny=True,
            )
        )
    random.Random(f"{seed}/sweep").shuffle(jobs)
    return jobs


# -- workloads --------------------------------------------------------------


def synth_lp(program, seed: int, work: Path, tiny: bool) -> List[Job]:
    s = lambda *a, **k: _synth_job(program, seed, work, *a, **k)
    return [
        s("none", "bitnet", 5),
        s("pure", "bitnet", 5),
        s("none", "cyclenet", 3, 8),
        s("pure", "cyclenet", 3, 8),
        s("none", "philnet", 6, tiny=True),
        s("pure", "philnet", 6),
        s("none", "philnet", 7),
    ]


def synth_bnb(program, seed: int, work: Path, tiny: bool) -> List[Job]:
    s = lambda *a, **k: _synth_job(program, seed, work, *a, **k)
    return [
        s("safe", "cyclenet", 3, 2),
        s("2-bounded", "cyclenet", 2, 3, tiny=True),
        s("safe", "bitnet", 4),
        s("plain,pure", "bitnet", 4),
        s("conflict-free", "bitnet", 4),
        s("safe", "philnet", 5),
        s("conflict-free", "philnet", 5),
        s("conflict-free", "cyclenet", 4, 1, tiny=True),
    ]


def synth_sep(program, seed: int, work: Path, tiny: bool) -> List[Job]:
    s = lambda *a, **k: _synth_job(program, seed, work, *a, **k)
    rings = [
        s("none", "cyclenet", 16, 1, tiny=True),
        s("pure", "cyclenet", 16, 1),
        s("none", "cyclenet", 24, 1),
    ]
    return rings + _sweep_jobs(program, seed, TINY_SWEEP_STRIDE if tiny else SWEEP_STRIDE)


def unbounded_bitnet(program, n: int):
    """bitnet(n) in which every set_i also feeds the place acc."""
    net = program.generators.bitnet(n)
    net.add_place("acc")
    for i in range(n):
        net.add_flow(f"set{i}", "acc")
    return net


def statespace(program, seed: int, work: Path, tiny: bool) -> List[Job]:
    g = program.generators
    big = _write_net(program, g.bitnet(11), work / "bitnet11.apt")
    mid = _write_net(program, g.bitnet(10), work / "bitnet10.apt")
    small = _write_net(program, g.bitnet(9), work / "bitnet9.apt")
    n = PINNED["unbounded"]["n"]
    unbounded = _write_net(program, unbounded_bitnet(program, n), work / f"unbounded{n}.apt")
    graph = program.petri.reachability_graph(g.bitnet(9))
    lts_a, lts_b = str(work / "lts_a.apt"), str(work / "lts_b.apt")
    _write_seeded_lts(graph, random.Random(f"{seed}/lts_a"), Path(lts_a))
    _write_seeded_lts(graph, random.Random(f"{seed}/lts_b"), Path(lts_b))

    def graph_job(module, path, label, size, tiny=False):
        outfile = str(work / f"{module}-{label}.out.apt")
        return Job(
            f"{module} {label}",
            (module, path, outfile),
            outfile=outfile,
            expect={"stdout": f"output_written_to: {outfile}", "lts_size": size},
            tiny=tiny,
        )

    def bounded_job(k):
        return Job(
            f"bounded unbounded-bitnet({n}) {k}",
            ("bounded", unbounded, str(k)),
            expect={"fields": {"bounded": "No", "witness_place": "acc"}, "witness": (unbounded, "acc", k)},
        )

    pinned = PINNED["unbounded"]
    return [
        graph_job("reachability_graph", big, "bitnet(11)", oracle.bitnet_size(11)),
        graph_job("coverability_graph", mid, "bitnet(10)", oracle.bitnet_size(10)),
        graph_job("coverability_graph", unbounded, f"unbounded-bitnet({n})", (pinned["states"], pinned["arcs"])),
        bounded_job(1),
        bounded_job(3),
        Job("bounded bitnet(9) 1", ("bounded", small, "1"), expect={"fields": {"bounded": "Yes"}}, tiny=True),
        Job(
            "isomorphism lts_a lts_b",
            ("isomorphism", lts_a, lts_b),
            expect={"fields": {"isomorphic": "Yes"}, "mapping": (lts_a, lts_b)},
            tiny=True,
        ),
        Job("bisimulation lts_a lts_b", ("bisimulation", lts_a, lts_b), expect={"fields": {"bisimilar": "Yes"}}),
        Job("persistent lts_a", ("persistent", lts_a), expect={"fields": {"persistent": "Yes"}}),
        Job("reversible lts_a", ("reversible", lts_a), expect={"fields": {"reversible": "Yes"}}, tiny=True),
    ]


WORKLOADS: Dict[str, Callable[..., List[Job]]] = {
    "synth-lp": synth_lp,
    "synth-bnb": synth_bnb,
    "synth-sep": synth_sep,
    "statespace": statespace,
}


def build(name: str, program, seed: int, work: Path, tiny: bool = False) -> List[Job]:
    jobs = WORKLOADS[name](program, seed, work, tiny)
    return [job for job in jobs if job.tiny] if tiny else jobs


# -- checking ---------------------------------------------------------------


def check(job: Job, output: Tuple) -> List[str]:
    """Independent check of one job's output; returns what is wrong."""
    try:
        return _check(job, output)
    except (KeyError, ValueError, IndexError, OSError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]


def _check(job: Job, output: Tuple) -> List[str]:
    expect = job.expect
    if output[0] == "exception":
        return [f"raised {output[1]}"]
    if job.lts is not None:
        _, success, labels, regions, _ = output
        if success != expect["success"]:
            return [f"success {success}, expected {expect['success']}"]
        if success:
            got = oracle.expand(oracle.net_from_regions(labels, regions), 4 * expect["net_size"][0] + 16)
            if got != expect["net_size"]:
                return [f"net expands to {got}, expected {expect['net_size']}"]
        return []

    status, stdout, stderr, written = output
    errors = []
    if status != 0:
        errors.append(f"apt exited {status}: {stderr.strip()}")
    fields = oracle.report(stdout)
    for key, value in expect.get("fields", {}).items():
        if fields.get(key) != value:
            errors.append(f"{key}: {fields.get(key)!r}, expected {value!r}")
    if "stdout" in expect and stdout.strip() != expect["stdout"]:
        errors.append(f"stdout {stdout.strip()!r}")
    if "input_size" in expect:
        states, arcs, want_states, want_arcs = expect["input_size"]
        if (states, arcs) != (want_states, want_arcs):
            errors.append(f"input has {states} states and {arcs} arcs, expected {want_states} and {want_arcs}")
    if ("net_size" in expect or "lts_size" in expect) and written is None:
        errors.append("no output file was written")
    if errors:
        return errors
    if "net_size" in expect:
        want = expect["net_size"]
        got = oracle.expand(oracle.Net.parse(written), 4 * want[0] + 16)
        if got != want:
            errors.append(f"synthesized net expands to {got}, expected {want}")
    if "failures" in expect:
        pinned, rename = expect["failures"]
        ssp, essp = oracle.failed_problems(fields, rename)
        if ssp != {frozenset(pair) for pair in pinned["ssp"]}:
            errors.append("failed state separation problems differ from the pinned list")
        if essp != {label: set(states) for label, states in pinned["essp"].items()}:
            errors.append("failed event/state separation problems differ from the pinned list")
    if "lts_size" in expect:
        lts = oracle.LtsText(written)
        got = (len(lts.states), len(lts.arcs))
        if got != tuple(expect["lts_size"]):
            errors.append(f"graph has {got} states and arcs, expected {tuple(expect['lts_size'])}")
    if "witness" in expect:
        path, place, k = expect["witness"]
        sequence = [t.strip() for t in fields["witness_firing_sequence"].strip("[]").split(",") if t.strip()]
        if len(sequence) != k + 1:
            errors.append(f"witness has length {len(sequence)}, expected {k + 1}")
        elif not oracle.replay_exceeds(oracle.Net.parse(Path(path).read_text()), sequence, place, k):
            errors.append("witness does not fire or does not exceed the bound")
    if "mapping" in expect:
        first, second = (oracle.LtsText(Path(p).read_text()) for p in expect["mapping"])
        errors += oracle.isomorphism_errors(fields.get("mapping", ""), first, second)
    return errors
