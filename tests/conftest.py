"""Shared fixtures: the running example (a 7-state persistent reversible
transition system) and three nets that solve it; and a time budget for each
test call, so that a search that never ends fails its test instead of
hanging the suite."""

import signal

import pytest

from aptk import Lts, PetriNet
from aptk.generators import bitnet

# seconds per test call; the slowest test takes under 20 s
TEST_BUDGET_S = 120


class _OverBudget(BaseException):
    """Raised by the alarm; a BaseException, so that hypothesis does not take
    it for a failing example and replay it with the alarm spent."""


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call():
    """Fail the test when its call runs over TEST_BUDGET_S (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        return (yield)

    def expire(signum, frame):
        raise _OverBudget

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_BUDGET_S)
    try:
        return (yield)
    except _OverBudget:
        pytest.fail(f"the test ran over its time budget of {TEST_BUDGET_S} s", pytrace=False)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


EXAMPLE_ARCS = [
    ("s0", "a", "s1"),
    ("s0", "b", "s2"),
    ("s1", "b", "s3"),
    ("s2", "a", "s3"),
    ("s3", "c", "s4"),
    ("s4", "a", "s5"),
    ("s4", "d", "s0"),
    ("s5", "b", "s6"),
    ("s5", "d", "s1"),
    ("s6", "d", "s3"),
]

N1_TEXT = """\
.name "n1"
.description "plain pure net over four transitions"
.type LPN
.places
p0 p1 p2 p3 p4
.transitions
a b c d
.flows
a: { p0 } -> { p4 }
b: { p4, p1 } -> { p3 }
c: { p4, p3 } -> { p0, p1, p2 }
d: { 1 * p2 } -> { 1 * p4 }
.initial_marking { p0, 1 * p1, p4 }
"""


def make_example_lts(locations=None) -> Lts:
    return Lts.from_data("s0", EXAMPLE_ARCS, locations=locations, name="example")


def make_n1() -> PetriNet:
    net = PetriNet(name="n1")
    for place, tokens in [("p0", 1), ("p1", 1), ("p2", 0), ("p3", 0), ("p4", 1)]:
        net.add_place(place, tokens=tokens)
    for t in "abcd":
        net.add_transition(t)
    for src, tgt in [
        ("p0", "a"), ("a", "p4"),
        ("p4", "b"), ("p1", "b"), ("b", "p3"),
        ("p4", "c"), ("p3", "c"), ("c", "p0"), ("c", "p1"), ("c", "p2"),
        ("p2", "d"), ("d", "p4"),
    ]:
        net.add_flow(src, tgt)
    return net


def make_n2() -> PetriNet:
    # impure-free but weighted: b consumes two tokens from q3
    net = PetriNet(name="n2")
    for place, tokens in [("q1", 1), ("q2", 0), ("q3", 2), ("q4", 0), ("q5", 0), ("q6", 1)]:
        net.add_place(place, tokens=tokens)
    for t in "abcd":
        net.add_transition(t)
    net.add_flow("q1", "a")
    net.add_flow("a", "q2")
    net.add_flow("a", "q3")
    net.add_flow("q3", "b", 2)
    net.add_flow("b", "q4")
    net.add_flow("q2", "c")
    net.add_flow("q4", "c")
    net.add_flow("q6", "c")
    net.add_flow("c", "q1")
    net.add_flow("c", "q5")
    net.add_flow("q5", "d")
    net.add_flow("d", "q6")
    net.add_flow("d", "q3")
    return net


def make_n3() -> PetriNet:
    # has side conditions (impure) and one weight-2 arc
    net = PetriNet(name="n3")
    for place, tokens in [("r0", 1), ("r1", 1), ("r2", 0), ("r3", 1), ("r4", 1)]:
        net.add_place(place, tokens=tokens)
    for t in "abcd":
        net.add_transition(t)
    net.add_flow("r0", "a")
    net.add_flow("r1", "a")
    net.add_flow("a", "r4")
    net.add_flow("r3", "b")
    net.add_flow("r4", "b")
    net.add_flow("b", "r4")
    net.add_flow("b", "r1")
    net.add_flow("r1", "c")
    net.add_flow("r4", "c", 2)
    net.add_flow("c", "r0")
    net.add_flow("c", "r1")
    net.add_flow("c", "r2")
    net.add_flow("c", "r3")
    net.add_flow("r2", "d")
    net.add_flow("d", "r4")
    return net


@pytest.fixture
def example_lts() -> Lts:
    return make_example_lts()


@pytest.fixture
def n1() -> PetriNet:
    return make_n1()


@pytest.fixture
def n2() -> PetriNet:
    return make_n2()


@pytest.fixture
def n3() -> PetriNet:
    return make_n3()


def accumulator_bitnet(n: int) -> PetriNet:
    """bitnet(n) in which every set transition also feeds a place acc: the
    coverability graph then accelerates acc along deep tree paths."""
    net = bitnet(n)
    net.add_place("acc")
    for i in range(n):
        net.add_flow(f"set{i}", "acc")
    return net
