"""Golden output digests: synthesis outputs stay byte-identical.

`output_digests.json` holds one sha256 per (family, mode).  It hashes, for
every instance of the family in order, the `format_report` lines plus the
rendered net, or the raised exception's type and message.  The modes run
with `verbose`, whose report holds the plain one and adds each kept
region's solved problems.  Families:

- `canonical`: the deterministic totally reachable systems with at most 3
  states and 2 labels, in 9 property sets;
- `canonical-acyclic`: the acyclic ones among them, language-only;
- `words`: `word_synthesize` on every word of length 1 to 4 over {a, b, c};
- `aptio/errors`: `aptio.parse` on every single-character deletion from,
  and every insertion of `"`, `/*`, `.` or `1` into, a few short rendered
  documents; each output is the `ParseError` text or the re-rendered
  document, so it pins every parser message and its line and column.

A change that alters outputs on purpose regenerates the file, and says so:

    PYTHONPATH=src python tests/test_output_digests.py

To find the instances that changed, list one family in two checkouts and
diff the listings; each line is an instance's index and the sha256 of its
input (the word, or the rendered LTS) and of its output:

    PYTHONPATH=src python tests/test_output_digests.py --show words/plain
"""

import argparse
import hashlib
import itertools
import json
import pathlib
from functools import lru_cache

import pytest

from aptk import (
    Document,
    PetriNet,
    PropertySet,
    format_report,
    parse,
    reachability_graph,
    render,
    synthesize,
    word_synthesize,
)
from aptk.common import AptError, InternalError
from aptk.generators import bitnet
from aptk.synthesis import _is_acyclic
from conftest import make_example_lts, make_n1
from test_synthesis import _canonical_instances

DIGESTS = pathlib.Path(__file__).with_name("output_digests.json")

MODES = [
    "none", "pure", "plain,pure", "safe", "2-bounded", "conflict-free",
    "output-nonbranching", "t-net", "plain",
]
LANGUAGE_MODES = ["language", "plain,language"]
WORD_MODES = ["none", "pure", "plain", "safe"]
CASES = (
    [("canonical", mode) for mode in MODES]
    + [("canonical-acyclic", mode) for mode in LANGUAGE_MODES]
    + [("words", mode) for mode in WORD_MODES]
    + [("aptio", "errors")]
)
INSERTIONS = ['"', "/*", ".", "1"]


def _weighted_labelled_net() -> PetriNet:
    net = PetriNet(name="weighted")
    for p in ("p", "q"):
        net.add_place(p)
    net.add_transition("t", label="a")
    net.add_transition("u", label="b")
    net.add_flow("p", "t", 2)
    net.add_flow("t", "q", 3)
    net.add_flow("q", "u")
    net.add_flow("u", "p", 2)
    net.set_tokens("p", 2)
    return net


def _aptio_corpus():
    graph = reachability_graph(bitnet(3))
    docs = [
        Document(kind="LPN", net=make_n1()),
        Document(kind="LTS", lts=make_example_lts()),
        Document(kind="LTS", lts=graph.lts, state_markings=graph.markings),
        Document(kind="LPN", net=_weighted_labelled_net()),
    ]
    return [render(doc) for doc in docs]


def _mutants(text):
    """Every single-character deletion, then every insertion of INSERTIONS."""
    for i in range(len(text)):
        yield text[:i] + text[i + 1 :]
    for piece in INSERTIONS:
        for i in range(len(text) + 1):
            yield text[:i] + piece + text[i:]


@lru_cache(maxsize=None)
def _family(name):
    if name == "words":
        return ["".join(w) for n in range(1, 5) for w in itertools.product("abc", repeat=n)]
    if name == "aptio":
        return [mutant for text in _aptio_corpus() for mutant in _mutants(text)]
    instances = _canonical_instances(3, 2)
    if name == "canonical-acyclic":
        instances = [lts for lts in instances if _is_acyclic(lts)]
    return instances


def _output(run) -> str:
    try:
        outcome = run()
    except InternalError:
        raise
    except AptError as err:
        return f"{type(err).__name__}: {err}"
    lines = format_report(outcome)
    if outcome.success and outcome.net is not None:
        lines.append(render(Document(kind="LPN", net=outcome.net)))
    return "\n".join(lines)


def _outputs(family: str, mode: str):
    """(instance, output) for every instance of the family, in order."""
    if family == "aptio":
        for text in _family(family):
            try:
                yield text, render(parse(text))
            except AptError as err:
                yield text, f"{type(err).__name__}: {err}"
        return
    props = PropertySet.parse(f"{mode},verbose")
    synth = word_synthesize if family == "words" else lambda props, lts: synthesize(lts, props)
    for instance in _family(family):
        yield instance, _output(lambda: synth(props, instance))


def digest(family: str, mode: str) -> str:
    sha = hashlib.sha256()
    for _, output in _outputs(family, mode):
        sha.update(output.encode())
        sha.update(b"\0")
    return sha.hexdigest()


def show(family: str, mode: str) -> None:
    """Print index, input sha256 and output sha256 of every instance."""
    for index, (instance, output) in enumerate(_outputs(family, mode)):
        text = instance if isinstance(instance, str) else render(Document(kind="LTS", lts=instance))
        print(index, hashlib.sha256(text.encode()).hexdigest(), hashlib.sha256(output.encode()).hexdigest())


def _key(family: str, mode: str) -> str:
    return f"{family}/{mode}"


def test_digest_file_lists_every_case():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("family,mode", CASES)
def test_outputs_match_the_recorded_digest(family, mode):
    expected = json.loads(DIGESTS.read_text())[_key(family, mode)]
    assert digest(family, mode) == expected


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the digest file, or list one case.")
    parser.add_argument("--show", metavar="FAMILY/MODE", choices=[_key(*case) for case in CASES])
    case = parser.parse_args().show
    if case:
        show(*case.split("/", 1))
    else:
        digests = {_key(*case): digest(*case) for case in CASES}
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(digests)} digests to {DIGESTS}")
