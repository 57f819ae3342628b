"""Module-registry command line front end.

Every analysis is a module with a typed parameter list; `apt <module>
<args...>` dispatches by exact name or any unique prefix.  Reports are
`key: value` lines on stdout, diagnostics go to stderr.  Exit status: 0 for
a completed analysis (also for a negative answer), 1 for usage or parse
errors, 2 for violated analysis preconditions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from difflib import get_close_matches
from typing import Callable, List, Optional, Sequence, Tuple

from . import aptio, generators, structure, synthesis
from . import lts as ltsmod
from . import petri
from .common import AptError, ParseError, UsageError


@dataclass
class Parameter:
    name: str
    kind: str  # pn | lts | file | outfile | int | word | properties | mode
    description: str
    optional: bool = False


@dataclass
class ModuleDescriptor:
    name: str
    description: str
    parameters: List[Parameter]
    run: Callable[..., List[str]]
    extra_help: str = ""


def _yesno(check) -> str:
    return "Yes" if check else "No"


def _load(path: str) -> aptio.Document:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return aptio.parse(handle.read())
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {path}: {err}") from None


def _load_net(path: str) -> petri.PetriNet:
    doc = _load(path)
    if doc.kind != "LPN":
        raise UsageError(f"{path} is not an LPN file")
    return doc.net


def _load_lts(path: str) -> ltsmod.Lts:
    doc = _load(path)
    if doc.kind != "LTS":
        raise UsageError(f"{path} is not an LTS file")
    return doc.lts


def _write_or_print(text: str, path: Optional[str]) -> List[str]:
    if path is None:
        return [text.rstrip("\n")]
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err}") from None
    return [f"output_written_to: {path}"]


def _sequence_text(sequence: Sequence[str]) -> str:
    return "[" + ", ".join(sequence) + "]"


# ---------------------------------------------------------------------------
# Module implementations.
# ---------------------------------------------------------------------------


def _run_bounded(net: petri.PetriNet, k: Optional[int] = None) -> List[str]:
    check = petri.bounded(net, k)
    lines = [f"bounded: {_yesno(check)}"]
    if not check:
        place, sequence = check.witness
        lines.append(f"witness_place: {place}")
        lines.append(f"witness_firing_sequence: {_sequence_text(sequence)}")
    return lines


def _run_coverability(net: petri.PetriNet, outfile: Optional[str] = None) -> List[str]:
    graph = petri.coverability_graph(net)
    doc = aptio.Document(kind="LTS", lts=graph.lts, state_markings=graph.markings)
    return _write_or_print(aptio.render(doc), outfile)


def _run_reachability(net: petri.PetriNet, outfile: Optional[str] = None) -> List[str]:
    graph = petri.reachability_graph(net)
    doc = aptio.Document(kind="LTS", lts=graph.lts, state_markings=graph.markings)
    return _write_or_print(aptio.render(doc), outfile)


def _simple_check(key: str, check) -> List[str]:
    lines = [f"{key}: {_yesno(check)}"]
    if check.detail:
        lines.append(f"detail: {check.detail}")
    return lines


def _run_isolated(net) -> List[str]:
    check = petri.has_isolated_elements(net)
    lines = [f"isolated_elements: {_yesno(check)}"]
    if check.ok:
        lines.append(f"witness: {check.witness}")
    return lines


def _run_side_conditions(net) -> List[str]:
    conds = petri.side_conditions(net)
    rendered = ", ".join(f"({p}, {t})" for p, t in conds)
    return [f"side_conditions: [{rendered}]"]


def _run_word(net, word: List[str]) -> List[str]:
    check = petri.word_in_language(net, word)
    lines = [f"word_in_language: {_yesno(check)}"]
    if not check:
        lines.append(f"maximal_enabled_prefix: {_sequence_text(check.witness)}")
    return lines


def _run_separable(net, k: int, bound: int, mode: str = "weak") -> List[str]:
    verdict = petri.separable(net, k, bound, mode)
    lines = [f"separable: {verdict.verdict}"]
    if verdict.counterexample is not None:
        lines.append(f"counterexample: {_sequence_text(verdict.counterexample)}")
    return lines


def _run_pvs(lts) -> List[str]:
    vectors = ltsmod.small_cycle_parikh_vectors(lts)
    rendered = []
    for pv in vectors:
        inner = ", ".join(f"{t}:{pv.get(t)}" for t in lts.labels if pv.get(t))
        rendered.append("{" + inner + "}")
    return [f"small_cycle_parikh_vectors: [{', '.join(rendered)}]"]


def _run_components(lts, strong: bool) -> List[str]:
    parts = (
        ltsmod.strongly_connected_components(lts)
        if strong
        else ltsmod.weakly_connected_components(lts)
    )
    rendered = ", ".join("{" + ", ".join(c) + "}" for c in parts)
    key = "strongly_connected_components" if strong else "weakly_connected_components"
    return [f"{key}: [{rendered}]", f"count: {len(parts)}"]


def _run_two_lts(kind: str, l1, l2) -> List[str]:
    if kind == "isomorphism":
        check = ltsmod.isomorphic(l1, l2)
        lines = [f"isomorphic: {_yesno(check)}"]
        if check.ok:
            pairs = ", ".join(f"{a}->{b}" for a, b in check.witness.items())
            lines.append(f"mapping: {{{pairs}}}")
        elif check.detail:
            lines.append(f"detail: {check.detail}")
        return lines
    if kind == "bisimulation":
        check = ltsmod.bisimilar(l1, l2)
        return [f"bisimilar: {_yesno(check)}"]
    check = ltsmod.language_equivalent(l1, l2)
    lines = [f"language_equivalent: {_yesno(check)}"]
    if not check:
        lines.append(f"distinguishing_word: {_sequence_text(check.witness)}")
    return lines


def _run_invariants(net, kind: str) -> List[str]:
    solutions = structure.invariants(net, kind)
    names = net.places if kind == "S" else net.transitions
    rendered = []
    for sol in solutions:
        inner = ", ".join(f"{n}:{v}" for n, v in zip(names, sol) if v)
        rendered.append("{" + inner + "}")
    return [f"{kind.lower()}_invariants: [{', '.join(rendered)}]"]


def _run_covered(net, kind: str) -> List[str]:
    check = structure.covered_by_invariants(net, kind)
    lines = [f"covered: {_yesno(check)}"]
    if not check:
        lines.append(f"uncovered: {check.witness}")
    return lines


def _run_siphons(net, traps: bool) -> List[str]:
    sets = structure.minimal_traps(net) if traps else structure.minimal_siphons(net)
    rendered = ", ".join("{" + ", ".join(s) + "}" for s in sets)
    key = "minimal_traps" if traps else "minimal_siphons"
    return [f"{key}: [{rendered}]"]


def _run_synthesize(props: synthesis.PropertySet, lts, outfile: Optional[str] = None) -> List[str]:
    return _synthesis_output(synthesis.synthesize(lts, props), outfile)


def _run_word_synthesize(props: synthesis.PropertySet, word: List[str], outfile: Optional[str] = None) -> List[str]:
    return _synthesis_output(synthesis.word_synthesize(props, word), outfile)


def _synthesis_output(outcome: synthesis.SynthesisOutcome, outfile: Optional[str]) -> List[str]:
    """The report, then the synthesized net (printed, or written to outfile)."""
    lines = synthesis.format_report(outcome)
    if outcome.success and outcome.net is not None:
        lines += _write_or_print(aptio.render(aptio.Document(kind="LPN", net=outcome.net)), outfile)
    return lines


def _run_generator(maker, outfile: Optional[str] = None) -> List[str]:
    net = maker()
    return _write_or_print(aptio.render(aptio.Document(kind="LPN", net=net)), outfile)


def _run_draw(path: str) -> List[str]:
    return [aptio.to_dot(_load(path)).rstrip("\n")]


def _run_persistent(path: str) -> List[str]:
    doc = _load(path)
    check = (
        petri.persistent(doc.net)
        if doc.kind == "LPN"
        else ltsmod.is_persistent(doc.lts)
    )
    return _simple_check("persistent", check)


def _run_reversible(path: str) -> List[str]:
    doc = _load(path)
    check = (
        petri.reversible(doc.net)
        if doc.kind == "LPN"
        else ltsmod.is_reversible(doc.lts)
    )
    return _simple_check("reversible", check)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


def _registry() -> List[ModuleDescriptor]:
    pn = lambda desc="The Petri net that should be examined": Parameter("pn", "pn", desc)
    lts_param = lambda desc="The transition system that should be examined": Parameter(
        "lts", "lts", desc
    )
    out = Parameter("output", "outfile", "Optional file to write the result to", optional=True)

    modules = [
        ModuleDescriptor(
            "bounded",
            "Check if a Petri net is bounded or k-bounded.",
            [pn(), Parameter("k", "int", "If given, k-boundedness is checked", optional=True)],
            _run_bounded,
        ),
        ModuleDescriptor(
            "coverability_graph",
            "Compute the coverability graph of a Petri net.",
            [pn(), out],
            _run_coverability,
        ),
        ModuleDescriptor(
            "reachability_graph",
            "Compute the reachability graph of a bounded Petri net.",
            [pn(), out],
            _run_reachability,
        ),
        ModuleDescriptor(
            "weakly_live",
            "Check that a Petri net has no unfireable transitions.",
            [pn()],
            lambda net: _simple_check("weakly_live", petri.weakly_live(net)),
        ),
        ModuleDescriptor(
            "plain",
            "Check if all arc weights are at most one.",
            [pn()],
            lambda net: _simple_check("plain", petri.is_plain(net)),
        ),
        ModuleDescriptor(
            "pure",
            "Check if the net is free of side conditions.",
            [pn()],
            lambda net: _simple_check("pure", petri.is_pure(net)),
        ),
        ModuleDescriptor(
            "side_conditions",
            "List all side conditions of a Petri net.",
            [pn()],
            _run_side_conditions,
        ),
        ModuleDescriptor(
            "isolated_elements",
            "Check for places or transitions without any arcs.",
            [pn()],
            _run_isolated,
        ),
        ModuleDescriptor(
            "output_nonbranching",
            "Check that every place has at most one outgoing transition.",
            [pn()],
            lambda net: _simple_check("output_nonbranching", petri.is_output_nonbranching(net)),
        ),
        ModuleDescriptor(
            "conflict_free",
            "Check that every place is output-nonbranching or feeds its preset.",
            [pn()],
            lambda net: _simple_check("conflict_free", petri.is_conflict_free(net)),
        ),
        ModuleDescriptor(
            "tnet",
            "Check that every place has at most one pre- and post-transition.",
            [pn()],
            lambda net: _simple_check("tnet", petri.is_tnet(net)),
        ),
        ModuleDescriptor(
            "marked_graph",
            "Check that every place has exactly one pre- and post-transition.",
            [pn()],
            lambda net: _simple_check("marked_graph", petri.is_marked_graph(net)),
        ),
        ModuleDescriptor(
            "bcf",
            "Check behavioural conflict freeness over all reachable markings.",
            [pn()],
            lambda net: _simple_check("bcf", petri.is_bcf(net)),
        ),
        ModuleDescriptor(
            "bicf",
            "Check binary conflict freeness over all reachable markings.",
            [pn()],
            lambda net: _simple_check("bicf", petri.is_bicf(net)),
        ),
        ModuleDescriptor(
            "persistent",
            "Check persistence of a Petri net or transition system.",
            [Parameter("file", "file", "A Petri net or transition system file")],
            _run_persistent,
        ),
        ModuleDescriptor(
            "reversible",
            "Check reversibility of a Petri net or transition system.",
            [Parameter("file", "file", "A Petri net or transition system file")],
            _run_reversible,
        ),
        ModuleDescriptor(
            "deterministic",
            "Check determinism of a transition system.",
            [lts_param()],
            lambda lts: _simple_check("deterministic", ltsmod.is_deterministic(lts)),
        ),
        ModuleDescriptor(
            "totally_reachable",
            "Check total reachability of a transition system.",
            [lts_param()],
            lambda lts: _simple_check("totally_reachable", ltsmod.is_totally_reachable(lts)),
        ),
        ModuleDescriptor(
            "compute_pvs",
            "Compute the Parikh vectors of all small cycles.",
            [lts_param()],
            _run_pvs,
        ),
        ModuleDescriptor(
            "cycles_same_pv",
            "Check whether all small cycles have the same Parikh vector.",
            [lts_param()],
            lambda lts: [f"cycles_same_pv: {_yesno(ltsmod.cycles_same_pv(lts))}"],
        ),
        ModuleDescriptor(
            "weak_small_cycle_property",
            "Check the weak small cycle property.",
            [lts_param()],
            lambda lts: [
                f"weak_small_cycle_property: {_yesno(ltsmod.weak_small_cycle_property(lts))}"
            ],
        ),
        ModuleDescriptor(
            "strongly_connected_components",
            "Compute the strongly connected components of a transition system.",
            [lts_param()],
            lambda lts: _run_components(lts, strong=True),
        ),
        ModuleDescriptor(
            "weakly_connected_components",
            "Compute the weakly connected components of a transition system.",
            [lts_param()],
            lambda lts: _run_components(lts, strong=False),
        ),
        ModuleDescriptor(
            "isomorphism",
            "Check if two transition systems are isomorphic.",
            [lts_param("The first transition system"), Parameter("lts2", "lts", "The second transition system")],
            lambda l1, l2: _run_two_lts("isomorphism", l1, l2),
        ),
        ModuleDescriptor(
            "bisimulation",
            "Check if two transition systems are bisimilar.",
            [lts_param("The first transition system"), Parameter("lts2", "lts", "The second transition system")],
            lambda l1, l2: _run_two_lts("bisimulation", l1, l2),
        ),
        ModuleDescriptor(
            "language_equivalence",
            "Check if two transition systems have the same prefix language.",
            [lts_param("The first transition system"), Parameter("lts2", "lts", "The second transition system")],
            lambda l1, l2: _run_two_lts("language_equivalence", l1, l2),
        ),
        ModuleDescriptor(
            "word_in_language",
            "Check whether a word is in the language of a Petri net.",
            [pn(), Parameter("word", "word", "The word, letters separated by commas")],
            _run_word,
        ),
        ModuleDescriptor(
            "separable",
            "Search for violations of weak or strong separability.",
            [
                pn(),
                Parameter("k", "int", "The divisor of the initial marking"),
                Parameter("bound", "int", "Maximal length of checked firing sequences"),
                Parameter("mode", "mode", "weak or strong", optional=True),
            ],
            _run_separable,
        ),
        ModuleDescriptor(
            "gcd_marking",
            "Compute the greatest common divisor of the initial marking.",
            [pn()],
            lambda net: [f"gcd: {petri.gcd_initial_marking(net)}"],
        ),
        ModuleDescriptor(
            "s_invariants",
            "Compute all minimal semipositive S-invariants.",
            [pn()],
            lambda net: _run_invariants(net, "S"),
        ),
        ModuleDescriptor(
            "t_invariants",
            "Compute all minimal semipositive T-invariants.",
            [pn()],
            lambda net: _run_invariants(net, "T"),
        ),
        ModuleDescriptor(
            "covered_by_s_invariants",
            "Check coveredness by S-invariants.",
            [pn()],
            lambda net: _run_covered(net, "S"),
        ),
        ModuleDescriptor(
            "covered_by_t_invariants",
            "Check coveredness by T-invariants.",
            [pn()],
            lambda net: _run_covered(net, "T"),
        ),
        ModuleDescriptor(
            "siphons",
            "Compute all minimal siphons.",
            [pn()],
            lambda net: _run_siphons(net, traps=False),
        ),
        ModuleDescriptor(
            "traps",
            "Compute all minimal traps.",
            [pn()],
            lambda net: _run_siphons(net, traps=True),
        ),
        ModuleDescriptor(
            "synthesize",
            "Synthesize a Petri net from a transition system.",
            [
                Parameter("properties", "properties", "Comma-separated list of properties"),
                lts_param("The transition system to synthesize"),
                out,
            ],
            _run_synthesize,
            extra_help=(
                "Supported properties: none, pure, plain, output-nonbranching, t-net,\n"
                "conflict-free, k-bounded (as e.g. 2-bounded), safe, language, verbose."
            ),
        ),
        ModuleDescriptor(
            "word_synthesize",
            "Synthesize a Petri net from a word.",
            [
                Parameter("properties", "properties", "Comma-separated list of properties"),
                Parameter("word", "word", "The word, letters separated by commas"),
                out,
            ],
            _run_word_synthesize,
        ),
        ModuleDescriptor(
            "bitnet_generator",
            "Generate a net of n independently flippable bits.",
            [Parameter("n", "int", "The number of bits"), out],
            lambda n, outfile=None: _run_generator(lambda: generators.bitnet(n), outfile),
        ),
        ModuleDescriptor(
            "bistate_philnet_generator",
            "Generate a philosophers net where both forks are taken at once.",
            [Parameter("n", "int", "The number of philosophers"), out],
            lambda n, outfile=None: _run_generator(
                lambda: generators.philnet_bistate(n), outfile
            ),
        ),
        ModuleDescriptor(
            "cycle_generator",
            "Generate a cycle of n places around which k tokens move.",
            [
                Parameter("n", "int", "The size of the cycle"),
                Parameter("k", "int", "The number of tokens"),
                out,
            ],
            lambda n, k, outfile=None: _run_generator(
                lambda: generators.cyclenet(n, k), outfile
            ),
        ),
        ModuleDescriptor(
            "draw",
            "Translate a net or transition system into the DOT format.",
            [Parameter("file", "file", "A Petri net or transition system file")],
            _run_draw,
        ),
    ]
    modules.sort(key=lambda m: m.name)
    return modules


def _usage(module: ModuleDescriptor) -> str:
    parts = [f"<{p.name}>" if not p.optional else f"[<{p.name}>]" for p in module.parameters]
    lines = [f"Usage: apt {module.name} {' '.join(parts)}".rstrip()]
    for p in module.parameters:
        lines.append(f"  {p.name:<10} {p.description}")
    lines.append(module.description)
    if module.extra_help:
        lines.append(module.extra_help)
    return "\n".join(lines)


def _convert(parameter: Parameter, raw: str):
    if parameter.kind == "pn":
        return _load_net(raw)
    if parameter.kind == "lts":
        return _load_lts(raw)
    if parameter.kind in ("file", "outfile"):
        return raw
    if parameter.kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"{parameter.name} must be an integer, got {raw!r}") from None
    if parameter.kind == "word":
        return [part.strip() for part in raw.split(",") if part.strip()]
    if parameter.kind == "properties":
        return synthesis.PropertySet.parse(raw)
    if parameter.kind == "mode":
        if raw not in ("weak", "strong"):
            raise UsageError("mode must be weak or strong")
        return raw
    raise UsageError(f"unknown parameter kind {parameter.kind}")


def _resolve(name: str, modules: List[ModuleDescriptor]) -> ModuleDescriptor:
    for module in modules:
        if module.name == name:
            return module
    matches = [m for m in modules if m.name.startswith(name)]
    if len(matches) == 1:
        return matches[0]
    if len(matches) > 1:
        raise UsageError(
            f"ambiguous module name {name!r}; candidates: "
            + ", ".join(m.name for m in matches)
        )
    suggestions = get_close_matches(name, [m.name for m in modules], n=3)
    hint = f"; did you mean {', '.join(suggestions)}?" if suggestions else ""
    raise UsageError(f"unknown module {name!r}{hint}")


def _module_list(modules: List[ModuleDescriptor]) -> str:
    width = max(len(m.name) for m in modules)
    lines = ["Available modules:"]
    for module in modules:
        lines.append(f"  {module.name:<{width}}  {module.description}")
    lines.append("Run 'apt help <module>' for details on one module.")
    return "\n".join(lines)


def dispatch(argv: Sequence[str]) -> Tuple[int, str]:
    """Run one invocation; returns (exit status, stdout text)."""
    modules = _registry()
    if not argv:
        return 0, _module_list(modules)
    name, *args = argv
    if name == "help":
        if not args:
            return 0, _module_list(modules)
        module = _resolve(args[0], modules)
        return 0, _usage(module)
    module = _resolve(name, modules)
    required = [p for p in module.parameters if not p.optional]
    if len(args) < len(required) or len(args) > len(module.parameters):
        raise UsageError(_usage(module))
    values = [
        _convert(parameter, raw) for parameter, raw in zip(module.parameters, args)
    ]
    lines = module.run(*values)
    return 0, "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        status, output = dispatch(argv)
    except (UsageError, ParseError) as err:
        print(str(err), file=sys.stderr)
        return 1
    except AptError as err:  # violated preconditions and every other analysis error
        print(str(err), file=sys.stderr)
        return 2
    if output:
        print(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
