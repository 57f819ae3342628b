"""The regex lexer of aptk.aptio against the character-by-character lexer it
replaced (tests/reference_aptio.py): the same tokens, or the same
ParseError message at the same line and column.  aptio's tokens carry an
offset, which aptio._position turns into the line and column compared.
aptio.render of a state graph must match, byte for byte, the renderer that
built one marking comment per state."""

import pytest
from hypothesis import given, settings, strategies as st

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
from aptk.common import ParseError
from aptk.generators import bitnet, cyclenet, philnet_bistate
from aptk.synthesis import word_lts

from conftest import N1_TEXT, make_example_lts, make_n1, make_n2, make_n3
from test_petri_differential import cases as petri_cases


def lex(tokenize, position, text):
    try:
        return [(t.kind, t.value, *position(text, t)) for t in tokenize(text)]
    except ParseError as err:
        return ("error", str(err), err.line, err.column)


def assert_same_tokens(text):
    ours = lex(aptio._tokenize, lambda text, t: aptio._position(text, t.offset), text)
    reference = lex(reference_aptio._tokenize, lambda text, t: (t.line, t.column), text)
    assert ours == reference, text[:200]


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
