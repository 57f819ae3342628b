import re

import pytest
from hypothesis import given, settings, strategies as st

from aptk import AptError, Document, Lts, ParseError, PetriNet, parse, render, to_dot
from aptk.aptio import parse_lts, parse_net
from aptk.petri import reachability_graph

from conftest import N1_TEXT, make_example_lts


EXAMPLE_LTS_TEXT = """\
.name "example"
.type LTS
.states
s0[initial] s1 s2 s3 s4 s5 s6
.labels
a b c d
.arcs
s0 a s1     s0 b s2     s1 b s3     s2 a s3     s3 c s4
s4 a s5     s4 d s0     s5 b s6     s5 d s1     s6 d s3
"""


def test_parse_n1_structure():
    net = parse_net(N1_TEXT)
    assert net.places == ("p0", "p1", "p2", "p3", "p4")
    assert net.transitions == ("a", "b", "c", "d")
    assert dict(net.initial_marking().items()) == {
        "p0": 1, "p1": 1, "p2": 0, "p3": 0, "p4": 1
    }
    assert net.flow("p4", "b") == 1 and net.flow("b", "p3") == 1
    assert net.flow("p2", "d") == 1 and net.flow("d", "p4") == 1


def test_parse_example_lts():
    lts = parse_lts(EXAMPLE_LTS_TEXT)
    assert len(lts.states) == 7 and len(lts.arcs) == 10
    assert lts.initial == "s0"
    from aptk import isomorphic

    assert isomorphic(lts, make_example_lts())


def test_multiset_repetition_equals_weight():
    doubled = parse_net(
        ".type LPN\n.places p\n.transitions t\n.flows\nt: { p, p } -> { }\n"
        ".initial_marking { }"
    )
    weighted = parse_net(
        ".type LPN\n.places p\n.transitions t\n.flows\nt: { 2 * p } -> { }\n"
        ".initial_marking { }"
    )
    assert doubled.flow("p", "t") == weighted.flow("p", "t") == 2


def test_comments_anywhere():
    text = (
        '.type /* here */ LPN // line\n.places p /* and here */\n'
        ".transitions t\n.flows\nt: { /* why not */ p } -> { }\n.initial_marking { p }"
    )
    net = parse_net(text)
    assert net.flow("p", "t") == 1


def test_print_parse_fixed_point():
    first = render(parse(N1_TEXT))
    second = render(parse(first))
    assert first == second


def test_roundtrip_preserves_structure(n1):
    doc = Document(kind="LPN", net=n1)
    again = parse(render(doc)).net
    assert again.places == n1.places
    assert again.transitions == n1.transitions
    assert again.flows == n1.flows
    assert again.initial_marking() == n1.initial_marking()


def test_roundtrip_weighted_and_labelled(n2):
    n2.set_label("a", "alpha")
    text = render(Document(kind="LPN", net=n2))
    assert "2 * q3" in text
    again = parse(text).net
    assert again.label("a") == "alpha"
    assert again.flow("q3", "b") == 2


def test_roundtrip_lts_with_locations():
    lts = make_example_lts(locations={"a": "A", "b": "B", "c": "A", "d": "A"})
    text = render(Document(kind="LTS", lts=lts))
    assert 'a[location="A"]' in text
    again = parse(text).lts
    assert again.locations == {"a": "A", "b": "B", "c": "A", "d": "A"}


def test_single_state_lts_renders_initial():
    lts = Lts.from_data("s0", [])
    text = render(Document(kind="LTS", lts=lts))
    assert "s0[initial]" in text
    assert parse(text).lts.initial == "s0"


def test_reachability_output_reparses(n1):
    graph = reachability_graph(n1)
    text = render(Document(kind="LTS", lts=graph.lts, state_markings=graph.markings))
    assert "/* [ [p0:1] [p1:1] [p2:0] [p3:0] [p4:1] ] */" in text
    again = parse(text).lts
    assert len(again.states) == 7 and len(again.arcs) == 10


def test_name_description_escaping():
    net = PetriNet(name='quote " and \\ backslash', description="line")
    text = render(Document(kind="LPN", net=net))
    again = parse(text).net
    assert again.name == 'quote " and \\ backslash'
    assert again.description == "line"


def test_lts_description_roundtrip():
    lts = Lts.from_data("s0", [("s0", "a", "s0")], name="loop")
    lts.description = 'one "a" loop'
    text = render(Document(kind="LTS", lts=lts))
    assert '.description "one \\"a\\" loop"\n.type LTS' in text
    assert parse_lts(text).description == 'one "a" loop'


def test_kind_specific_parsers_reject_the_other_kind():
    with pytest.raises(AptError, match="expected an LTS document"):
        parse_lts(N1_TEXT)
    with pytest.raises(AptError, match="expected an LPN document"):
        parse_net(EXAMPLE_LTS_TEXT)


# (line, column) of each case's error, by its fragment
ERROR_POSITIONS = {
    "duplicate": (2, 11),
    "multiple .type": (2, 1),
    "missing .type": (1, 1),
    "zero multiplicity": (5, 6),
    "bad multiplicity '²'": (5, 6),
    "unknown place": (5, 1),
    "initial": (1, 1),
    "second [initial]": (2, 21),
    "unknown state": (4, 7),
    "duplicate flow": (6, 1),
    "unterminated string": (2, 7),
    "unterminated comment": (1, 11),
    "expected an attribute value": (2, 12),
    'labels only take location="..."': (3, 11),
}


@pytest.mark.parametrize(
    "text,fragment",
    [
        (".type LPN\n.places p p\n", "duplicate"),
        (".type LPN\n.type LTS\n", "multiple .type"),
        (".places p\n", "missing .type"),
        (".type LPN\n.places p\n.transitions t\n.flows\nt: { 0 * p } -> { }", "zero multiplicity"),
        # a digit to the lexer, but no decimal number
        (".type LPN\n.places p\n.transitions t\n.flows\nt: { ² * p } -> { }", "bad multiplicity '²'"),
        (".type LPN\n.places p\n.transitions t\n.flows\nt: { q } -> { }", "unknown place"),
        (".type LTS\n.states s0\n.labels a\n.arcs", "initial"),
        (".type LTS\n.states s0[initial] s1[initial]\n.labels a\n.arcs", "second [initial]"),
        (".type LTS\n.states s0[initial]\n.labels a\n.arcs s0 a s9", "unknown state"),
        (".type LPN\n.places p\n.transitions t\n.flows\nt: { p } -> { }\nt: { } -> { }\n.initial_marking { }", "duplicate flow"),
        ('.type LPN\n.name "open', "unterminated string"),
        (".type LPN /* open", "unterminated comment"),
        (".type LTS\n.states s0[initial=]\n.labels a\n.arcs", "expected an attribute value"),
        ('.type LTS\n.states s0[initial]\n.labels a[weight="2"]\n.arcs', 'labels only take location="..."'),
    ],
)
def test_errors_have_positions(text, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert fragment in str(err.value)
    assert (err.value.line, err.value.column) == ERROR_POSITIONS[fragment]


# Documents with several defects, each with the one error the reader
# reports: section syntax and unknown sections in document order, then
# places, transitions (each label before its add), flows entry by entry
# and the initial marking; states before labels before arcs.
SEVERAL_DEFECTS = [
    (".type LPN\n.transitions t[x]\n.foo", "line 3, column 1: unknown section .foo in an LPN file"),
    (".type LPN\n.places p[x]\n.foo", "line 2, column 9: places take no attributes"),
    (".type LPN\n.foo\n.places p[x]", "line 2, column 1: unknown section .foo in an LPN file"),
    (".type LPN\n.name 1\n.foo", "line 2, column 1: .name takes one quoted string"),
    ('.type LPN\n.name "a"\n.places p[x]\n.name "b"', "line 4, column 1: duplicate .name section"),
    (".type LPN\n.places p p\n.transitions t[label=1]", "line 2, column 11: duplicate place 'p'"),
    ('.type LPN\n.transitions t[label="x"] t[y]\n.places p', 'line 2, column 29: transitions only take label="..."'),
    (".type LPN\n.flows t: { p } -> { }\n.transitions u[x]", 'line 3, column 16: transitions only take label="..."'),
    (
        ".type LPN\n.initial_marking { q }\n.flows t: { p } -> { }\n.places p\n.transitions t t",
        "line 5, column 16: duplicate transition 't'",
    ),
    (".type LPN\n.places p\n.transitions t\n.flows\nt: { q } -> { r }", "line 5, column 1: unknown place 'q'"),
    (".type LPN\n.places p\n.transitions t\n.flows\nt: { q } -> { 0 * p }", "line 5, column 15: zero multiplicity"),
    (
        ".type LPN\n.places p\n.transitions t u\n.flows\nt: { q } -> { }\nu: { 2 * } -> { }",
        "line 5, column 1: unknown place 'q'",
    ),
    (
        ".type LPN\n.places p\n.transitions t\n.flows\nt: { p } -> { q }\n.initial_marking { r }",
        "line 5, column 1: unknown place 'q'",
    ),
    (".type LPN\n.places p\n.initial_marking { p } q\n.flows t: { } -> { }", "line 4, column 8: unknown transition 't'"),
    (".type LTS\n.foo\n.states s0", "line 2, column 1: unknown section .foo in an LTS file"),
    (
        ".type LTS\n.states s0[initial=1]\n.labels a[y]\n.arcs",
        "line 2, column 12: states only take the bare attribute 'initial'",
    ),
    (".type LTS\n.labels a[y]\n.states s0", "line 1, column 1: no state is marked [initial]"),
    (".type LTS\n.states s0[initial] s0\n.labels a[y]", "line 2, column 21: duplicate state 's0'"),
    (".type LTS\n.arcs s0 a\n.states s0[initial]\n.labels a[y]", 'line 4, column 11: labels only take location="..."'),
]


@pytest.mark.parametrize("text,message", SEVERAL_DEFECTS)
def test_the_first_of_several_defects_is_reported(text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_dot_lts(example_lts):
    dot = to_dot(Document(kind="LTS", lts=example_lts))
    assert dot.startswith("digraph")
    assert dot.count("->") == 10
    assert '"s0"' in dot


def test_dot_net(n1):
    dot = to_dot(Document(kind="LPN", net=n1))
    assert dot.count("shape=circle") == 5
    assert dot.count("shape=box") == 4


def test_dot_single_state():
    dot = to_dot(Document(kind="LTS", lts=Lts.from_data("s0", [])))
    assert '"s0"' in dot and dot.count("->") == 0


@settings(max_examples=120, deadline=None)
@given(st.text(max_size=80))
def test_fuzzed_input_never_crashes(text):
    try:
        parse(text)
    except ParseError:
        pass  # the only acceptable failure mode


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3)),
        max_size=10,
    ),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),
)
def test_random_lts_roundtrip(arc_spec, _unused):
    arcs = [(f"s{a}", f"t{b}", f"s{c}") for a, b, c in arc_spec]
    lts = Lts.from_data("s0", arcs, states=[f"s{i}" for i in range(4)])
    again = parse(render(Document(kind="LTS", lts=lts))).lts
    assert again.states == lts.states
    assert again.labels == lts.labels
    assert again.arcs == lts.arcs
    assert again.initial == lts.initial


def test_render_refuses_a_state_that_reads_back_as_a_number():
    lts = Lts.from_data("1", [("1", "a", "2")])
    with pytest.raises(AptError, match="state '1'"):
        render(Document(kind="LTS", lts=lts))


def test_render_refuses_a_place_that_would_end_a_marking_comment():
    net = PetriNet()
    net.add_place("p*/x", tokens=1)
    net.add_transition("t")
    net.add_flow("p*/x", "t")
    graph = reachability_graph(net)
    with pytest.raises(AptError, match=re.escape("place 'p*/x'")):
        render(Document(kind="LTS", lts=graph.lts, state_markings=graph.markings))


@pytest.mark.parametrize(
    "name,ok",
    [("x", True), ("_1", True), ("été", True), ("x²", True), ("a½", True),
     ("1", False), ("²", False), ("½", False), ("", False), ("a b", False),
     ("a-b", False), ("a/**/", False), (" a", False), ("a\n", False)],
)
def test_render_writes_only_names_that_read_back(name, ok):
    net = PetriNet()
    net.add_place(name)
    net.add_transition("t")
    doc = Document(kind="LPN", net=net)
    if ok:
        assert parse(render(doc)).net.places == (name,)
    else:
        with pytest.raises(AptError, match=re.escape(f"place {name!r}")):
            render(doc)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text("ab1²½ _-\n/*.", min_size=0, max_size=3), min_size=1, max_size=4, unique=True))
def test_render_output_always_reads_back(names):
    lts = Lts.from_data(names[0], [], states=names)
    try:
        text = render(Document(kind="LTS", lts=lts))
    except AptError as err:
        assert not isinstance(err, ParseError)
        return
    again = parse(text).lts
    assert again.states == lts.states and again.initial == lts.initial


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(1, 3)), max_size=8),
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
)
def test_random_net_roundtrip(flow_spec, tokens):
    net = PetriNet(name="random")
    for i, count in enumerate(tokens):
        net.add_place(f"p{i}", tokens=count)
    for i in range(3):
        net.add_transition(f"t{i}")
    for p, t, w in flow_spec:
        if w % 2:
            net.add_flow(f"p{p}", f"t{t}", w)
        else:
            net.add_flow(f"t{t}", f"p{p}", w)
    again = parse(render(Document(kind="LPN", net=net))).net
    assert again.places == net.places
    assert again.transitions == net.transitions
    assert again.flows == net.flows
    assert again.initial_marking() == net.initial_marking()
