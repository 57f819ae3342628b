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
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

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


def _write_apt(path: Optional[str], **document) -> List[str]:
    """Print the `.apt` document with these fields, or write it to path."""
    text = aptio.render(aptio.Document(**document))
    if path is None:
        return [text.rstrip("\n")]
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err}") from None
    return [f"output_written_to: {path}"]


def _sequence_text(sequence: Iterable[str]) -> str:
    return "[" + ", ".join(sequence) + "]"


def _braces(groups: Iterable[Iterable[str]]) -> str:
    """Sets as a list of brace groups: `[{a, b}, {c}]`."""
    return _sequence_text("{" + ", ".join(group) + "}" for group in groups)


def _vectors(names: Sequence[str], rows: Iterable[Iterable[int]]) -> str:
    """Vectors over `names` as brace groups of their nonzero entries: `[{a:1, c:2}]`."""
    return _braces([f"{n}:{v}" for n, v in zip(names, row) if v] for row in rows)


# ---------------------------------------------------------------------------
# Module implementations.
# ---------------------------------------------------------------------------


def _report(key: str, check, witness: str = "", when: bool = False) -> List[str]:
    """`key: Yes|No`; then, given a witness key, the check's witness on that
    line when the answer is `when`, or else the check's detail if it has one."""
    lines = [f"{key}: {_yesno(check)}"]
    if witness and bool(check) == when:
        value = check.witness
        lines.append(f"{witness}: {value if isinstance(value, str) else _sequence_text(value)}")
    elif not witness and check.detail:
        lines.append(f"detail: {check.detail}")
    return lines


def _reporter(key: str, check) -> Callable[..., List[str]]:
    return lambda arg: _report(key, check(arg))


def _by_kind(path: str, net_check, lts_check):
    """Check the net or transition system in the file, by the file's kind."""
    doc = _load(path)
    return net_check(doc.net) if doc.kind == "LPN" else lts_check(doc.lts)


def _write_graph(graph, outfile: Optional[str]) -> List[str]:
    return _write_apt(outfile, kind="LTS", lts=graph.lts, state_markings=graph.markings)


def _run_bounded(net: petri.PetriNet, k: Optional[int] = None) -> List[str]:
    check = petri.bounded(net, k)
    lines = [f"bounded: {_yesno(check)}"]
    if not check:
        place, sequence = check.witness
        lines.append(f"witness_place: {place}")
        lines.append(f"witness_firing_sequence: {_sequence_text(sequence)}")
    return lines


def _run_separable(net, k: int, bound: int, mode: str = "weak") -> List[str]:
    verdict = petri.separable(net, k, bound, mode)
    lines = [f"separable: {verdict.verdict}"]
    if verdict.counterexample is not None:
        lines.append(f"counterexample: {_sequence_text(verdict.counterexample)}")
    return lines


def _run_isomorphism(l1, l2) -> List[str]:
    check = ltsmod.isomorphic(l1, l2)
    lines = [f"isomorphic: {_yesno(check)}"]
    if check.ok:
        pairs = ", ".join(f"{a}->{b}" for a, b in check.witness.items())
        lines.append(f"mapping: {{{pairs}}}")
    elif check.detail:
        lines.append(f"detail: {check.detail}")
    return lines


def _components(key: str, find) -> Callable[..., List[str]]:
    def run(lts: ltsmod.Lts) -> List[str]:
        parts = find(lts)
        return [f"{key}: {_braces(parts)}", f"count: {len(parts)}"]

    return run


def _synthesis_output(outcome: synthesis.SynthesisOutcome, outfile: Optional[str]) -> List[str]:
    """The report, then the synthesized net (printed, or written to outfile)."""
    lines = synthesis.format_report(outcome)
    if outcome.success and outcome.net is not None:
        lines += _write_apt(outfile, kind="LPN", net=outcome.net)
    return lines


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


def _registry() -> List[ModuleDescriptor]:
    pn = Parameter("pn", "pn", "The Petri net that should be examined")
    lts_param = Parameter("lts", "lts", "The transition system that should be examined")
    out = Parameter("output", "outfile", "Optional file to write the result to", optional=True)
    file = Parameter("file", "file", "A Petri net or transition system file")
    two_lts = [
        Parameter("lts", "lts", "The first transition system"),
        Parameter("lts2", "lts", "The second transition system"),
    ]
    word = Parameter("word", "word", "The word, letters separated by commas")
    properties = Parameter("properties", "properties", "Comma-separated list of properties")

    # modules that report `<name>: Yes|No` and the check's detail
    net_checks = [
        ("weakly_live", "Check that a Petri net has no unfireable transitions.", petri.weakly_live),
        ("plain", "Check if all arc weights are at most one.", petri.is_plain),
        ("pure", "Check if the net is free of side conditions.", petri.is_pure),
        ("output_nonbranching", "Check that every place has at most one outgoing transition.",
         petri.is_output_nonbranching),
        ("conflict_free", "Check that every place is output-nonbranching or feeds its preset.",
         petri.is_conflict_free),
        ("tnet", "Check that every place has at most one pre- and post-transition.", petri.is_tnet),
        ("marked_graph", "Check that every place has exactly one pre- and post-transition.",
         petri.is_marked_graph),
        ("bcf", "Check behavioural conflict freeness over all reachable markings.", petri.is_bcf),
        ("bicf", "Check binary conflict freeness over all reachable markings.", petri.is_bicf),
    ]
    lts_checks = [
        ("deterministic", "Check determinism of a transition system.", ltsmod.is_deterministic),
        ("totally_reachable", "Check total reachability of a transition system.",
         ltsmod.is_totally_reachable),
    ]
    file_checks = [
        ("persistent", "Check persistence of a Petri net or transition system.",
         lambda path: _by_kind(path, petri.persistent, ltsmod.is_persistent)),
        ("reversible", "Check reversibility of a Petri net or transition system.",
         lambda path: _by_kind(path, petri.reversible, ltsmod.is_reversible)),
    ]
    modules = [
        ModuleDescriptor(name, description, [parameter], _reporter(name, check))
        for parameter, checks in ((pn, net_checks), (lts_param, lts_checks), (file, file_checks))
        for name, description, check in checks
    ]
    modules += [
        ModuleDescriptor(
            "bounded",
            "Check if a Petri net is bounded or k-bounded.",
            [pn, Parameter("k", "int", "If given, k-boundedness is checked", optional=True)],
            _run_bounded,
        ),
        ModuleDescriptor(
            "coverability_graph",
            "Compute the coverability graph of a Petri net.",
            [pn, out],
            lambda net, outfile=None: _write_graph(petri.coverability_graph(net), outfile),
        ),
        ModuleDescriptor(
            "reachability_graph",
            "Compute the reachability graph of a bounded Petri net.",
            [pn, out],
            lambda net, outfile=None: _write_graph(petri.reachability_graph(net), outfile),
        ),
        ModuleDescriptor(
            "side_conditions",
            "List all side conditions of a Petri net.",
            [pn],
            lambda net: [
                "side_conditions: "
                + _sequence_text(f"({p}, {t})" for p, t in petri.side_conditions(net))
            ],
        ),
        ModuleDescriptor(
            "isolated_elements",
            "Check for places or transitions without any arcs.",
            [pn],
            lambda net: _report(
                "isolated_elements", petri.has_isolated_elements(net), "witness", when=True
            ),
        ),
        ModuleDescriptor(
            "compute_pvs",
            "Compute the Parikh vectors of all small cycles.",
            [lts_param],
            lambda lts: [
                "small_cycle_parikh_vectors: "
                + _vectors(
                    lts.labels,
                    [map(pv.get, lts.labels) for pv in ltsmod.small_cycle_parikh_vectors(lts)],
                )
            ],
        ),
        ModuleDescriptor(
            "cycles_same_pv",
            "Check whether all small cycles have the same Parikh vector.",
            [lts_param],
            lambda lts: [f"cycles_same_pv: {_yesno(ltsmod.cycles_same_pv(lts))}"],
        ),
        ModuleDescriptor(
            "weak_small_cycle_property",
            "Check the weak small cycle property.",
            [lts_param],
            lambda lts: [
                f"weak_small_cycle_property: {_yesno(ltsmod.weak_small_cycle_property(lts))}"
            ],
        ),
        ModuleDescriptor(
            "strongly_connected_components",
            "Compute the strongly connected components of a transition system.",
            [lts_param],
            _components("strongly_connected_components", ltsmod.strongly_connected_components),
        ),
        ModuleDescriptor(
            "weakly_connected_components",
            "Compute the weakly connected components of a transition system.",
            [lts_param],
            _components("weakly_connected_components", ltsmod.weakly_connected_components),
        ),
        ModuleDescriptor(
            "isomorphism",
            "Check if two transition systems are isomorphic.",
            two_lts,
            _run_isomorphism,
        ),
        ModuleDescriptor(
            "bisimulation",
            "Check if two transition systems are bisimilar.",
            two_lts,
            lambda l1, l2: [f"bisimilar: {_yesno(ltsmod.bisimilar(l1, l2))}"],
        ),
        ModuleDescriptor(
            "language_equivalence",
            "Check if two transition systems have the same prefix language.",
            two_lts,
            lambda l1, l2: _report(
                "language_equivalent", ltsmod.language_equivalent(l1, l2), "distinguishing_word"
            ),
        ),
        ModuleDescriptor(
            "word_in_language",
            "Check whether a word is in the language of a Petri net.",
            [pn, word],
            lambda net, w: _report(
                "word_in_language", petri.word_in_language(net, w), "maximal_enabled_prefix"
            ),
        ),
        ModuleDescriptor(
            "separable",
            "Search for violations of weak or strong separability.",
            [
                pn,
                Parameter("k", "int", "The divisor of the initial marking"),
                Parameter("bound", "int", "Maximal length of checked firing sequences"),
                Parameter("mode", "mode", "weak or strong", optional=True),
            ],
            _run_separable,
        ),
        ModuleDescriptor(
            "gcd_marking",
            "Compute the greatest common divisor of the initial marking.",
            [pn],
            lambda net: [f"gcd: {petri.gcd_initial_marking(net)}"],
        ),
        ModuleDescriptor(
            "s_invariants",
            "Compute all minimal semipositive S-invariants.",
            [pn],
            lambda net: [f"s_invariants: {_vectors(net.places, structure.invariants(net, 'S'))}"],
        ),
        ModuleDescriptor(
            "t_invariants",
            "Compute all minimal semipositive T-invariants.",
            [pn],
            lambda net: [
                f"t_invariants: {_vectors(net.transitions, structure.invariants(net, 'T'))}"
            ],
        ),
        ModuleDescriptor(
            "covered_by_s_invariants",
            "Check coveredness by S-invariants.",
            [pn],
            lambda net: _report("covered", structure.covered_by_invariants(net, "S"), "uncovered"),
        ),
        ModuleDescriptor(
            "covered_by_t_invariants",
            "Check coveredness by T-invariants.",
            [pn],
            lambda net: _report("covered", structure.covered_by_invariants(net, "T"), "uncovered"),
        ),
        ModuleDescriptor(
            "siphons",
            "Compute all minimal siphons.",
            [pn],
            lambda net: [f"minimal_siphons: {_braces(structure.minimal_siphons(net))}"],
        ),
        ModuleDescriptor(
            "traps",
            "Compute all minimal traps.",
            [pn],
            lambda net: [f"minimal_traps: {_braces(structure.minimal_traps(net))}"],
        ),
        ModuleDescriptor(
            "synthesize",
            "Synthesize a Petri net from a transition system.",
            [properties, Parameter("lts", "lts", "The transition system to synthesize"), out],
            lambda props, lts, outfile=None: _synthesis_output(
                synthesis.synthesize(lts, props), outfile
            ),
            extra_help=(
                "Supported properties: none, pure, plain, output-nonbranching, t-net,\n"
                "conflict-free, k-bounded (as e.g. 2-bounded), safe, language, verbose."
            ),
        ),
        ModuleDescriptor(
            "word_synthesize",
            "Synthesize a Petri net from a word.",
            [properties, word, out],
            lambda props, w, outfile=None: _synthesis_output(
                synthesis.word_synthesize(props, w), outfile
            ),
        ),
        ModuleDescriptor(
            "bitnet_generator",
            "Generate a net of n independently flippable bits.",
            [Parameter("n", "int", "The number of bits"), out],
            lambda n, outfile=None: _write_apt(outfile, kind="LPN", net=generators.bitnet(n)),
        ),
        ModuleDescriptor(
            "bistate_philnet_generator",
            "Generate a philosophers net where both forks are taken at once.",
            [Parameter("n", "int", "The number of philosophers"), out],
            lambda n, outfile=None: _write_apt(
                outfile, kind="LPN", net=generators.philnet_bistate(n)
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
            lambda n, k, outfile=None: _write_apt(
                outfile, kind="LPN", net=generators.cyclenet(n, k)
            ),
        ),
        ModuleDescriptor(
            "draw",
            "Translate a net or transition system into the DOT format.",
            [file],
            lambda path: [aptio.to_dot(_load(path)).rstrip("\n")],
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
