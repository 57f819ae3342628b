"""Outside-in tracing of aptk's layers.

The tracer replaces public functions of each layer with wrappers that
record a span (name, start, end, parent span, job id) and count work at
the boundary.  It patches the attribute the caller actually looks up:
`synthesis` binds several functions with `from ... import`, so those are
patched on `aptk.synthesis`; the rest are patched on their own modules,
and `LinearSystem.solve` on the class.  A span's layer is the part of its
name before the first dot; `@synthesis` marks a call made by synthesis to
verify its result.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple


def _count_lp(args, kwargs, result) -> Dict[str, int]:
    num_vars = args[0] if args else kwargs["num_vars"]
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"lp_calls": 1, "lp_rows": len(rows), "lp_cols": num_vars}


def _count_solve(args, kwargs, result) -> Dict[str, int]:
    return {"system_solves": 1, "system_feasible": int(result is not None)}


def _count_graph(args, kwargs, result) -> Dict[str, int]:
    return {"states": len(result.lts.states), "arcs": len(result.lts.arcs)}


def _targets(program) -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, counter) for every wrapped function."""
    s, p, l = program.synthesis, program.petri, program.lts
    return [
        (program.cli, "main", "cli.main", None),
        (program.aptio, "parse", "aptio.parse", lambda a, k, r: {"parse_chars": len(a[0])}),
        (program.aptio, "render", "aptio.render", lambda a, k, r: {"render_chars": len(r)}),
        (s, "synthesize", "synthesis.synthesize", None),
        (s, "enumerate_separation_problems", "synthesis.enumerate", lambda a, k, r: {"problems": len(r)}),
        (s, "minimize_regions", "synthesis.minimize",
         lambda a, k, r: {"regions_found": len(a[1]), "regions_kept": len(r)}),
        (s, "check_region", "synthesis.check_region", None),
        (s, "reachability_graph", "petri.reachability_graph@synthesis", _count_graph),
        (s, "isomorphic", "lts.isomorphic@synthesis", None),
        (s, "bounded", "petri.bounded@synthesis", None),
        (s, "spanning_tree", "lts.spanning_tree", None),
        (s, "integer_kernel_basis", "linalg.kernel_basis", None),
        (program.linalg, "solve_lp", "linalg.solve_lp", _count_lp),
        (program.linalg.LinearSystem, "solve", "linalg.system_solve", _count_solve),
        (p, "reachability_graph", "petri.reachability_graph", _count_graph),
        (p, "coverability_graph", "petri.coverability_graph", _count_graph),
        (p, "bounded", "petri.bounded", None),
        (l, "isomorphic", "lts.isomorphic", None),
        (l, "bisimilar", "lts.check.bisimilar", None),
        (l, "is_persistent", "lts.check.is_persistent", None),
        (l, "is_reversible", "lts.check.is_reversible", None),
    ]


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, program):
        self.program = program
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attribute, name, counter in _targets(self.program):
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original, counter))

    def restore(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, name: str, function, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if counter is not None:
                self.counts.update(counter(args, kwargs, result))
            return result

        return traced

    def write(self, path) -> None:
        """Write every span as a tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\tjob\n")
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{job}\n")


def pass_metrics(spans, first: int, counts: Counter, wall: float) -> Dict[str, float]:
    """Per-layer metrics of the spans from index `first` on, one pass."""
    spans = spans[first:]
    duration = [end - start for _, start, end, _, _ in spans]
    children = [0.0] * len(spans)
    for (_, _, _, parent, _), d in zip(spans, duration):
        if parent >= first:
            children[parent - first] += d
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    verify = 0.0
    for (name, *_), d, c in zip(spans, duration, children):
        base = name.split("@")[0]
        total[base] += d
        own[base] += d - c
        calls[base] += 1
        layer_self[name.split(".")[0]] += d - c
        if name.endswith("@synthesis"):
            verify += d
    graph_s = total["petri.reachability_graph"] + total["petri.coverability_graph"]
    solves = counts["system_solves"]
    m = {
        "linalg.solve_lp_s": total["linalg.solve_lp"],
        "linalg.lp_calls": counts["lp_calls"],
        "linalg.lp_rows": counts["lp_rows"],
        "linalg.lp_cols": counts["lp_cols"],
        "linalg.system_solve_s": total["linalg.system_solve"],
        "linalg.system_solves": solves,
        "linalg.system_feasible": counts["system_feasible"],
        "linalg.lp_per_solve": counts["lp_calls"] / solves if solves else 0.0,
        "linalg.feasible_ratio": counts["system_feasible"] / solves if solves else 0.0,
        "linalg.kernel_basis_s": total["linalg.kernel_basis"],
        "synthesis.synthesize_s": total["synthesis.synthesize"],
        "synthesis.self_s": own["synthesis.synthesize"],
        "synthesis.enumerate_s": total["synthesis.enumerate"],
        "synthesis.problems": counts["problems"],
        "synthesis.minimize_s": total["synthesis.minimize"],
        "synthesis.regions_found": counts["regions_found"],
        "synthesis.regions_kept": counts["regions_kept"],
        "synthesis.check_region_s": total["synthesis.check_region"],
        "synthesis.check_region_calls": calls["synthesis.check_region"],
        "synthesis.verify_s": verify,
        "petri.reachability_graph_s": total["petri.reachability_graph"],
        "petri.coverability_graph_s": total["petri.coverability_graph"],
        "petri.bounded_self_s": own["petri.bounded"],
        "petri.states": counts["states"],
        "petri.arcs": counts["arcs"],
        "petri.states_per_s": counts["states"] / graph_s if graph_s else 0.0,
        "aptio.parse_s": total["aptio.parse"],
        "aptio.parse_chars": counts["parse_chars"],
        "aptio.render_s": total["aptio.render"],
        "aptio.render_chars": counts["render_chars"],
        "lts.isomorphic_s": total["lts.isomorphic"],
        "lts.spanning_tree_s": total["lts.spanning_tree"],
        "lts.check_s": sum(v for k, v in total.items() if k.startswith("lts.check.")),
        "cli.self_s": own["cli.main"],
        "trace.spans": len(spans),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(layer_self.values()),
    }
    for layer in ("aptio", "synthesis", "linalg", "lts", "petri"):  # cli's is cli.self_s
        m[f"{layer}.layer_self_s"] = layer_self[layer]
    return m


COUNTS = (
    "linalg.lp_calls", "linalg.lp_rows", "linalg.lp_cols", "linalg.system_solves",
    "linalg.system_feasible", "synthesis.problems", "synthesis.regions_found",
    "synthesis.regions_kept", "synthesis.check_region_calls", "petri.states",
    "petri.arcs", "aptio.parse_chars", "aptio.render_chars", "trace.spans",
)


def summarize(passes: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over passes of every per-pass metric."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}


def counts_repeat(passes: List[Dict[str, float]]) -> bool:
    return all(p[key] == passes[0][key] for p in passes for key in COUNTS)
