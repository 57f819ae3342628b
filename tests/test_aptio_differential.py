"""The regex lexer of aptk.aptio against the character-by-character lexer it
replaced (tests/reference_aptio.py): the same tokens, or the same
ParseError message at the same line and column.  aptio keeps no token
positions; aptio._offset rescans the text for the token's offset, which
aptio._position turns into the line and column compared.  aptio.parse
against the parser over one token object per token that it replaced: the
same document, or the same ParseError.  aptio.render of a state graph must
match, byte for byte, the renderer that built one marking comment per
state, and its net text and to_dot the ones that scanned every place for
each transition."""

import pytest
from hypothesis import given, seed, settings, strategies as st

import reference_aptio
from aptk import (
    Lts,
    PetriNet,
    PropertySet,
    aptio,
    coverability_graph,
    reachability_graph,
    synthesize,
)
from aptk.common import AptError, ParseError
from aptk.generators import bitnet, cyclenet, philnet_bistate
from aptk.synthesis import word_lts

from conftest import N1_TEXT, make_example_lts, make_n1, make_n2, make_n3
from test_output_digests import _aptio_corpus, _mutants
from test_petri_differential import cases as petri_cases, outcome, structural_cases


def lex(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as err:
        return ("error", str(err), err.line, err.column)


def aptio_tokens(text):
    kinds, values = aptio._tokenize(text)
    return [
        (kind, value, *aptio._position(text, aptio._offset(text, k)))
        for k, (kind, value) in enumerate(zip(kinds, values))
    ]


def reference_tokens(text):
    return [(t.kind, t.value, t.line, t.column) for t in reference_aptio._char_tokenize(text)]


def assert_same_tokens(text):
    assert lex(aptio_tokens, text) == lex(reference_tokens, text), text[:200]


def structure(doc):
    """Everything a parsed document holds, in order."""
    if doc.kind == "LPN":
        net = doc.net
        return (
            "LPN", net.name, net.description, net.places, tuple(net.initial_marking().items()),
            tuple((t, net.label(t)) for t in net.transitions), tuple(net.flows.items()),
        )
    lts = doc.lts
    return (
        "LTS", lts.name, lts.description, lts.states, lts.initial,
        tuple((t, lts.location(t)) for t in lts.labels), lts.arcs,
        tuple((lts.arcs_from(s), lts.arcs_to(s)) for s in lts.states), doc.state_markings,
    )


def parsed(parse, text):
    try:
        return structure(parse(text))
    except ParseError as err:
        return ("error", str(err), err.line, err.column)
    except AptError as err:
        return (type(err).__name__, str(err))


def assert_same_document(text):
    assert parsed(aptio.parse, text) == parsed(reference_aptio.parse, text), text[:200]


@pytest.mark.parametrize(
    "text",
    [
        "",
        ".",
        ".type LPN .",
        "a\n  . b",
        ".type\n/* open",
        "x /* a */ y /*/",
        "// only a comment",
        "a // rest\nb",
        '"open',
        '.name "line\nbreak',
        '"ends in \\',
        'a\n"x\\\ny\\',
        '"bad \\n escape"',
        '"a\n\\t"',
        '"quote \\" and \\\\ slash"',
        "a - b",
        "a -> b",
        "a\t\r\n$",
        "a\n\n  b",
        "/* x\n y\n */ c",
        '"a\nb\nc" d',
        "a\x0bb",
        "a   b",
        "été _x1 x_",
        # str.isdigit holds for '²' and '①', which \d misses
        "1²",
        "²",
        "²x",
        "a²",
        ".s²",
        "3① ①a",
        # numerals that are not digits start no token, but continue one
        "½",
        "x½",
        "Ⅻ",
        "一二",
        "{ 2 * p, 10 * q } -> { }",
        "t[label=\"a\"] s0[initial]",
        "007 12ab a12 _",
    ],
)
def test_hand_cases_match_reference(text):
    assert_same_tokens(text)


@pytest.mark.parametrize(
    "text",
    [
        " " * 200_000,
        "a" + " \n\t" * 70_000 + "b",
        "/* c */" * 20_000,
        "x\n" + "// line\n/* block\n */ " * 10_000,
        ".type LTS" + " /**/" * 20_000 + " /* open",
    ],
    ids=["spaces", "whitespace-between-ids", "comments", "mixed-comments", "comments-then-open"],
)
def test_long_skips_match_reference(text):
    """Whitespace and comments are folded into the match of the token after
    them, EOF included; a long run of them must end at the same EOF or error
    position as in the character lexer, without backtracking."""
    assert_same_tokens(text)


# single characters, heavy in the ones that start or end a token, plus the
# pairs that open or close a comment, an arrow or an escape
PIECES = list('./*"\\->{}[],:= \n09az_$²½') + ["/*", "*/", "//", "->", '\\"', "\n\n", "s1"]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
def test_random_text_matches_reference(text):
    assert_same_tokens(text)


def rendered_documents():
    """The kinds of document aptio.render writes across the suite."""
    docs = [aptio.parse(N1_TEXT)]
    for net in (make_n1(), make_n2(), make_n3(), bitnet(3), cyclenet(3, 2), philnet_bistate(2)):
        docs.append(aptio.Document(kind="LPN", net=net))
        graph = reachability_graph(net)
        docs.append(aptio.Document(kind="LTS", lts=graph.lts, state_markings=graph.markings))
    unbounded = PetriNet(name="unbounded")
    unbounded.add_place("p")
    unbounded.add_transition("t")
    unbounded.add_flow("t", "p")
    cover = coverability_graph(unbounded)
    docs.append(aptio.Document(kind="LTS", lts=cover.lts, state_markings=cover.markings))
    example = make_example_lts()
    for props in ("none", "plain,pure", "2-bounded"):
        net = synthesize(example, PropertySet.parse(props)).net
        docs.append(aptio.Document(kind="LPN", net=net))
    docs.append(aptio.Document(kind="LTS", lts=example))
    docs.append(aptio.Document(kind="LTS", lts=make_example_lts({"a": "left", "b": 'q"\\'})))
    docs.append(aptio.Document(kind="LTS", lts=Lts.from_data("s0", [])))
    docs.append(aptio.Document(kind="LTS", lts=word_lts("aabab")))
    escaped = PetriNet(name='quote " and \\ slash', description="d")
    docs.append(aptio.Document(kind="LPN", net=escaped))
    return [aptio.render(doc) for doc in docs]


def test_rendered_documents_match_reference():
    for text in rendered_documents():
        assert_same_tokens(text)
        assert parsed(aptio.parse, text)[0] in ("LPN", "LTS")
        assert_same_document(text)


def test_digest_corpus_parses_as_in_reference():
    # the aptio/errors digest corpus: its documents, every one-character
    # deletion and every insertion of a string quote, comment, dot or digit
    errors = 0
    for text in _aptio_corpus():
        assert_same_document(text)
        for mutant in _mutants(text):
            assert_same_document(mutant)
            errors += parsed(aptio.parse, mutant)[0] == "error"
    assert errors > 3000


SECTIONS = [
    "type", "name", "description", "places", "transitions", "flows", "initial_marking",
    "states", "labels", "arcs", "bogus",
]
# stray tokens: section keywords, IDs, numbers, strings and punctuation
PIECES_IN_BODIES = [
    "LPN", "LTS", "s0", "p", "a", "t", "initial", "label", "location", "0", "2", "12", "²",
    '"x"', '"q\\"s"', '""', "{", "}", "[", "]", ",", ":", "*", "=", "->", "/* c */", "// c\n",
    ".type", ".arcs",
]
# entries that read back in a section of that name
ENTRIES = {
    "name": ['"x"'],
    "description": ['"q\\"s"', '""'],
    "places": ["p", "q", "r"],
    "transitions": ["t", 'u[label="x"]', "v[label=\"\"]"],
    "flows": ["t: { p } -> { 2 * q }", "u: { } -> { p, q }", "v: { r, 1 * r } -> { }"],
    "initial_marking": ["{ p, 2 * q }", "{ }"],
    "states": ["s0[initial]", "s1", "s2"],
    "labels": ["a", 'b[location="A"]'],
    "arcs": ["s0 a s1", "s1 b s0", "s1 a s1", "s2 a s0"],  # drawn with repeats
}
KIND_SECTIONS = {
    "LPN": ["name", "description", "places", "transitions", "flows", "initial_marking"],
    "LTS": ["name", "description", "states", "labels", "arcs"],
}


@st.composite
def section_soup(draw):
    """Texts of a .type header, or none, and sections of stray tokens."""
    kind = draw(st.sampled_from(["LPN", "LTS", None]))
    body = st.lists(st.sampled_from(PIECES_IN_BODIES), max_size=10)
    sections = draw(st.lists(st.tuples(st.sampled_from(SECTIONS), body), max_size=6))
    sep = draw(st.sampled_from([" ", "\n"]))
    parts = [f".type {kind}"] if kind else []
    parts += [f".{name}{sep}{sep.join(body)}" for name, body in sections]
    return sep.join(parts)


@st.composite
def documents(draw):
    """Texts of one LPN or LTS: distinct sections of the kind, each of
    entries that read back in it; one in two texts gets a stray token."""
    kind = draw(st.sampled_from(["LPN", "LTS"]))
    sep = draw(st.sampled_from([" ", "\n"]))
    bodies = []
    for name in draw(st.lists(st.sampled_from(KIND_SECTIONS[kind]), unique=True)):
        size = 1 if name in ("name", "description") else 6
        entries = st.lists(st.sampled_from(ENTRIES[name]), min_size=1, max_size=size, unique=name != "arcs")
        bodies.append([f".{name}"] + draw(entries))
    bodies.insert(draw(st.integers(0, len(bodies))), [f".type {kind}"])
    if draw(st.booleans()):
        body = draw(st.sampled_from(bodies))
        body.insert(draw(st.integers(1, len(body))), draw(st.sampled_from(PIECES_IN_BODIES)))
    return sep.join(sep.join(body) for body in bodies)


@seed(20)
@settings(max_examples=1000, deadline=None)
@given(st.one_of(section_soup(), documents()))
def test_random_documents_parse_as_in_reference(text):
    assert_same_document(text)


def test_large_graph_reads_back_structurally_equal():
    graph = reachability_graph(bitnet(11))
    assert (len(graph.lts.states), len(graph.lts.arcs)) == (2048, 22528)
    text = aptio.render(aptio.Document(kind="LTS", lts=graph.lts, state_markings=graph.markings))
    assert structure(aptio.parse(text)) == structure(aptio.Document(kind="LTS", lts=graph.lts))


def test_first_bad_arc_of_a_large_lts_fails_first():
    text = aptio.render(aptio.Document(kind="LTS", lts=reachability_graph(bitnet(9)).lts))
    assert len(text) > 70_000
    lines = text.splitlines()
    arcs = lines.index(".arcs") + 1
    last, middle = len(lines) - 1, (arcs + len(lines)) // 2
    source, label, _ = lines[last].split()
    lines[last] = f"{source} {label} nowhere"
    unknown_last = "\n".join(lines) + "\n"
    source, _, target = lines[middle].split()
    lines[middle] = f"{source} 5 {target}"
    both = "\n".join(lines) + "\n"
    for text, message, line in (
        (unknown_last, "unknown state 'nowhere'", last + 1),
        (both, "expected an identifier in .arcs", middle + 1),
    ):
        ours = parsed(aptio.parse, text)
        assert ours == parsed(reference_aptio.parse, text)
        assert ours[1].endswith(message) and ours[2] == line


def test_rendered_graphs_match_per_state_marking_comments():
    # the coverability graphs of the petri differential cases, with and
    # without OMEGA, then state markings from three nets, two of them over
    # equal place tuples, and a graph without markings
    with_omega = 0
    for net in petri_cases():
        graph = coverability_graph(net)
        doc = aptio.Document(kind="LTS", lts=graph.lts, state_markings=graph.markings)
        assert aptio.render(doc) == reference_aptio._render_lts(graph.lts, graph.markings)
        with_omega += any(m.has_omega() for m in graph.markings.values())
    assert with_omega > 10
    graph = reachability_graph(bitnet(2))
    markings = dict(graph.markings)
    markings["s2"] = reachability_graph(bitnet(1)).markings["s1"]
    markings["s3"] = reachability_graph(bitnet(2)).markings["s1"]
    doc = aptio.Document(kind="LTS", lts=graph.lts, state_markings=markings)
    assert aptio.render(doc) == reference_aptio._render_lts(graph.lts, markings)
    doc = aptio.Document(kind="LTS", lts=graph.lts)
    assert aptio.render(doc) == reference_aptio._render_lts(graph.lts)


def test_net_renders_match_reference():
    # nets whose flows were added out of place order, repeated flows and
    # isolated places among them, and a place name that cannot be written
    unwritable = PetriNet()
    unwritable.add_place("two words", tokens=1)
    for net in [*structural_cases(), unwritable]:
        doc = aptio.Document(kind="LPN", net=net)
        assert outcome(aptio.render, doc) == outcome(reference_aptio._render_net, net)
        assert aptio.to_dot(doc) == reference_aptio.net_to_dot(doc)
    assert outcome(aptio.render, aptio.Document(kind="LPN", net=unwritable))[0] == "error"
