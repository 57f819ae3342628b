"""Golden output digests: synthesis outputs stay byte-identical.

`output_digests.json` holds one sha256 per (family, mode).  It hashes, for
every instance of the family in order, the `format_report` lines plus the
rendered net, or the raised exception's type and message.  The modes run
with `verbose`, whose report holds the plain one and adds each kept
region's solved problems.  Families:

- `canonical`: the deterministic totally reachable systems with at most 3
  states and 2 labels, in 9 property sets;
- `canonical-acyclic`: the acyclic ones among them, language-only;
- `words`: `word_synthesize` on every word of length 1 to 4 over {a, b, c}.

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

from aptk import Document, PropertySet, format_report, render, synthesize, word_synthesize
from aptk.common import AptError, InternalError
from aptk.synthesis import _is_acyclic
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
)


@lru_cache(maxsize=None)
def _family(name):
    if name == "words":
        return ["".join(w) for n in range(1, 5) for w in itertools.product("abc", repeat=n)]
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
        text = instance if family == "words" else render(Document(kind="LTS", lts=instance))
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
