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
from functools import partial
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import aptio, generators, structure, synthesis
from . import lts as ltsmod
from . import petri
from .common import AptError, ParseError, UsageError


@dataclass
class Parameter:
    name: str
    description: str
    convert: Callable[[str], object] = str  # the argument's text to the value the module takes
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


def _load(path: str, kind: Optional[str] = None) -> aptio.Document:
    """The document in the file; given a kind, it must be of that kind."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = aptio.parse(handle.read())
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"cannot read {path}: {err}") from None
    if kind is not None and doc.kind != kind:
        raise UsageError(f"{path} is not an {kind} file")
    return doc


def _load_net(path: str) -> petri.PetriNet:
    return _load(path, "LPN").net


def _load_lts(path: str) -> ltsmod.Lts:
    return _load(path, "LTS").lts


def _integer(name: str, description: str, optional: bool = False) -> Parameter:
    def convert(raw: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise UsageError(f"{name} must be an integer, got {raw!r}") from None

    return Parameter(name, description, convert, optional)


def _word(raw: str) -> List[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _mode(raw: str) -> str:
    if raw not in ("weak", "strong"):
        raise UsageError("mode must be weak or strong")
    return raw


def _write_apt(path: Optional[str] = None, **document) -> List[str]:
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


def _reporter(key: str, check, arg) -> List[str]:
    return _report(key, check(arg))


def _answer(key: str, check, *args) -> List[str]:
    """`key: Yes|No`, and no detail or witness."""
    return [f"{key}: {_yesno(check(*args))}"]


def _by_kind(doc: aptio.Document, net_check, lts_check):
    """Check the document's net or transition system, by the document's kind."""
    return net_check(doc.net) if doc.kind == "LPN" else lts_check(doc.lts)


def _write_graph(build, net: petri.PetriNet, outfile: Optional[str] = None) -> List[str]:
    graph = build(net)
    return _write_apt(outfile, kind="LTS", lts=graph.lts, state_markings=graph.markings)


def _generate(build, sizes: int, *args) -> List[str]:
    """Write the net `build` makes of the first `sizes` arguments (to the next one, if given)."""
    return _write_apt(*args[sizes:], kind="LPN", net=build(*args[:sizes]))


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
    lines = _report("isomorphic", check)
    if check:
        pairs = ", ".join(f"{a}->{b}" for a, b in check.witness.items())
        lines.append(f"mapping: {{{pairs}}}")
    return lines


def _components(key: str, find, lts: ltsmod.Lts) -> List[str]:
    parts = find(lts)
    return [f"{key}: {_braces(parts)}", f"count: {len(parts)}"]


def _minimal(sets: str, find, net: petri.PetriNet) -> List[str]:
    return [f"minimal_{sets}: {_braces(find(net))}"]


def _invariants(kind: str, pn: Parameter) -> List[ModuleDescriptor]:
    """`s_invariants` and `covered_by_s_invariants`, or the same for kind T."""
    key = f"{kind.lower()}_invariants"

    def show(net: petri.PetriNet) -> List[str]:
        names = net.places if kind == "S" else net.transitions
        return [f"{key}: {_vectors(names, structure.invariants(net, kind))}"]

    def covered(net: petri.PetriNet) -> List[str]:
        return _report("covered", structure.covered_by_invariants(net, kind), "uncovered")

    return [
        ModuleDescriptor(key, f"Compute all minimal semipositive {kind}-invariants.", [pn], show),
        ModuleDescriptor(f"covered_by_{key}", f"Check coveredness by {kind}-invariants.", [pn],
                         covered),
    ]


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
    """Every module, by name.  Built per call, so that each run looks up the
    analysis functions on their modules as they are at that moment."""
    pn = Parameter("pn", "The Petri net that should be examined", _load_net)
    lts_param = Parameter("lts", "The transition system that should be examined", _load_lts)
    out = Parameter("output", "Optional file to write the result to", optional=True)
    file = Parameter("file", "A Petri net or transition system file", _load)
    two_lts = [
        Parameter("lts", "The first transition system", _load_lts),
        Parameter("lts2", "The second transition system", _load_lts),
    ]
    word = Parameter("word", "The word, letters separated by commas", _word)
    properties = Parameter(
        "properties", "Comma-separated list of properties", synthesis.PropertySet.parse
    )

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
         lambda doc: _by_kind(doc, petri.persistent, ltsmod.is_persistent)),
        ("reversible", "Check reversibility of a Petri net or transition system.",
         lambda doc: _by_kind(doc, petri.reversible, ltsmod.is_reversible)),
    ]
    # (parameter, factory, rows): each row's module runs `factory(name, function, arg)`
    modules = [
        ModuleDescriptor(name, description, [parameter], partial(make, name, function))
        for parameter, make, rows in [
            (pn, _reporter, net_checks),
            (lts_param, _reporter, lts_checks),
            (file, _reporter, file_checks),
            (lts_param, _answer, [
                ("cycles_same_pv", "Check whether all small cycles have the same Parikh vector.",
                 ltsmod.cycles_same_pv),
                ("weak_small_cycle_property", "Check the weak small cycle property.",
                 ltsmod.weak_small_cycle_property),
            ]),
            (lts_param, _components, [
                ("strongly_connected_components",
                 "Compute the strongly connected components of a transition system.",
                 ltsmod.strongly_connected_components),
                ("weakly_connected_components",
                 "Compute the weakly connected components of a transition system.",
                 ltsmod.weakly_connected_components),
            ]),
            (pn, _minimal, [
                ("siphons", "Compute all minimal siphons.", structure.minimal_siphons),
                ("traps", "Compute all minimal traps.", structure.minimal_traps),
            ]),
        ]
        for name, description, function in rows
    ]
    modules += [
        ModuleDescriptor(name, description, [pn, out], partial(_write_graph, build))
        for name, description, build in [
            ("coverability_graph", "Compute the coverability graph of a Petri net.",
             petri.coverability_graph),
            ("reachability_graph", "Compute the reachability graph of a bounded Petri net.",
             petri.reachability_graph),
        ]
    ]
    modules += _invariants("S", pn) + _invariants("T", pn)
    # generators: (name, description, function, its integer parameters)
    modules += [
        ModuleDescriptor(name, description, [_integer(*size) for size in sizes] + [out],
                         partial(_generate, build, len(sizes)))
        for name, description, build, sizes in [
            ("bitnet_generator", "Generate a net of n independently flippable bits.",
             generators.bitnet, [("n", "The number of bits")]),
            ("bistate_philnet_generator",
             "Generate a philosophers net where both forks are taken at once.",
             generators.philnet_bistate, [("n", "The number of philosophers")]),
            ("cycle_generator", "Generate a cycle of n places around which k tokens move.",
             generators.cyclenet, [("n", "The size of the cycle"), ("k", "The number of tokens")]),
        ]
    ]
    modules += [
        ModuleDescriptor(
            "bounded",
            "Check if a Petri net is bounded or k-bounded.",
            [pn, _integer("k", "If given, k-boundedness is checked", optional=True)],
            _run_bounded,
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
            "isomorphism",
            "Check if two transition systems are isomorphic.",
            two_lts,
            _run_isomorphism,
        ),
        ModuleDescriptor(
            "bisimulation",
            "Check if two transition systems are bisimilar.",
            two_lts,
            partial(_answer, "bisimilar", ltsmod.bisimilar),
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
                _integer("k", "The divisor of the initial marking"),
                _integer("bound", "Maximal length of checked firing sequences"),
                Parameter("mode", "weak or strong", _mode, optional=True),
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
            "synthesize",
            "Synthesize a Petri net from a transition system.",
            [properties, Parameter("lts", "The transition system to synthesize", _load_lts), out],
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
            "draw",
            "Translate a net or transition system into the DOT format.",
            [file],
            lambda doc: [aptio.to_dot(doc).rstrip("\n")],
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
        return 0, _usage(_resolve(args[0], modules))
    module = _resolve(name, modules)
    required = [p for p in module.parameters if not p.optional]
    if len(args) < len(required) or len(args) > len(module.parameters):
        raise UsageError(_usage(module))
    values = [parameter.convert(raw) for parameter, raw in zip(module.parameters, args)]
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
