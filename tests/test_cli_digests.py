"""Golden `apt` outputs: every module's reports stay byte-identical.

`cli_digests.json` holds one sha256 per module, plus one for the front
end's name handling (`(names)`).  A module's digest hashes, for every
invocation of its corpus in order, the argv, the exit status of
`aptk.cli.main`, its stdout and stderr, and the text of `out.apt` when the
invocation wrote it.  A module's corpus is `help <module>`, the usage errors
for too few and too many arguments, and every combination of arguments
drawn from one pool per parameter kind, for every arity from the required
parameters to all of them.  The pools hold small files, some of the wrong
kind, unreadable or missing, bad integers and modes, and a missing output
directory, so that each report shape and each error path is reached.  All
invocations run in a scratch working directory, which holds the corpus
files under relative names.

A change that alters outputs on purpose regenerates the file, and says so:

    PYTHONPATH=src:tests python tests/test_cli_digests.py

To find the invocations that changed, list one module in two checkouts and
diff the listings; each line is an invocation's index, its argv and the
sha256 of its output:

    PYTHONPATH=src:tests python tests/test_cli_digests.py --show separable
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import tempfile

import pytest

from aptk import Document, Lts, render
from aptk.cli import main
from conftest import N1_TEXT, make_example_lts, make_n2, make_n3
from test_cli import LOCATED_LTS_TEXT

DIGESTS = pathlib.Path(__file__).with_name("cli_digests.json")
NAMES = "(names)"

# one place, two tokens, one transition taking both: k = 2 is not separable
SEP_TEXT = """\
.type LPN
.places
p
.transitions
t
.flows
t: { 2 * p } -> { }
.initial_marking { 2 * p }
"""

# an isolated place z and an isolated transition v next to a side condition
ISOLATED_TEXT = """\
.type LPN
.places
p q z
.transitions
t v
.flows
t: { p, q } -> { q }
.initial_marking { p, q }
"""

# t feeds q without bound
UNBOUNDED_TEXT = """\
.type LPN
.places
p q
.transitions
t
.flows
t: { p } -> { p, q }
.initial_marking { p }
"""

CHAIN_ARCS = [("s0", "a", "s1"), ("s1", "a", "s2")]
# nondeterministic, with unreachable states and three weak components
ODD_ARCS = [("s0", "a", "s1"), ("s0", "a", "s2"), ("s3", "b", "s4"), ("s4", "b", "s3"), ("s5", "c", "s5")]


def _lts_text(arcs, name):
    return render(Document(kind="LTS", lts=Lts.from_data("s0", arcs, name=name)))


def _files():
    """The corpus files by name: text, or bytes for the unreadable one."""
    return {
        "n1.apt": N1_TEXT,
        "n2.apt": render(Document(kind="LPN", net=make_n2())),
        "n3.apt": render(Document(kind="LPN", net=make_n3())),
        "sep.apt": SEP_TEXT,
        "isolated.apt": ISOLATED_TEXT,
        "unbounded.apt": UNBOUNDED_TEXT,
        "ex.apt": render(Document(kind="LTS", lts=make_example_lts())),
        "located.apt": LOCATED_LTS_TEXT,
        "chain.apt": _lts_text(CHAIN_ARCS, "chain"),
        "odd.apt": _lts_text(ODD_ARCS, "odd"),
        "broken.apt": ".type LPN\n.places p p\n",
        "bad.apt": b"\xff\xfe.type LTS",
    }


# Argument pools per parameter kind.  The net pool holds bounded nets only:
# many net modules explore the reachable markings.
POOLS = {
    "pn": ["n1.apt", "n3.apt", "sep.apt", "isolated.apt", "ex.apt", "missing.apt"],
    "lts": ["ex.apt", "located.apt", "chain.apt", "odd.apt", "n1.apt", "broken.apt"],
    "file": ["n1.apt", "n2.apt", "ex.apt", "odd.apt", "bad.apt", "missing.apt"],
    "outfile": ["out.apt", "nodir/out.apt"],
    "int": ["1", "2", "x"],
    "word": ["a,b,c", "a,a", "b"],
    "properties": ["none", "safe", "plain,pure,verbose", "output-nonbranching,conflict-free",
                   "language", "2-bounded,t-net", "bogus"],
    "mode": ["weak", "strong", "sideways"],
}

# invocations the pools do not reach: an unbounded net, and a net module's
# file given to the modules that read any file
EXTRA = {
    "bounded": [["unbounded.apt"], ["unbounded.apt", "3"], ["n2.apt", "1"]],
    "coverability_graph": [["unbounded.apt"], ["n2.apt"]],
    "covered_by_s_invariants": [["unbounded.apt"]],
    "covered_by_t_invariants": [["unbounded.apt"]],
    "side_conditions": [["n2.apt"]],
    "persistent": [["unbounded.apt"], ["n3.apt"]],
    "reversible": [["unbounded.apt"], ["n3.apt"]],
    "draw": [["unbounded.apt"], ["located.apt"]],
}


def _run(argv):
    """main(argv) in the working directory, as one text: the exit status,
    stdout, stderr and the written out.apt, if any."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(list(argv))
    out = pathlib.Path("out.apt")
    written = out.read_text() if out.exists() else ""
    if written:
        out.unlink()
    return f"status: {status}\nstdout:\n{stdout.getvalue()}stderr:\n{stderr.getvalue()}out.apt:\n{written}"


# parameter name -> kind, for reading `apt help`
_KINDS = {"pn": "pn", "lts": "lts", "lts2": "lts", "file": "file", "output": "outfile",
          "k": "int", "n": "int", "bound": "int", "word": "word", "properties": "properties",
          "mode": "mode"}


def _modules():
    """(name, parameter kinds, number of required parameters) per module,
    read from `apt help`."""
    listing = io.StringIO()
    with contextlib.redirect_stdout(listing):
        main([])
    names = [line.split()[0] for line in listing.getvalue().splitlines()[1:-1]]
    modules = []
    for name in names:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            main(["help", name])
        usage = text.getvalue().splitlines()[0].split()[3:]
        kinds = [_KINDS[word.strip("[<>]")] for word in usage]
        modules.append((name, kinds, sum(not word.startswith("[") for word in usage)))
    return modules


def _invocations(name, kinds, required):
    yield ["help", name]
    yield [name] + ["x"] * (len(kinds) + 1)
    if required:
        yield [name]
    for arity in range(required, len(kinds) + 1):
        for args in itertools.product(*(POOLS[kind] for kind in kinds[:arity])):
            yield [name, *args]
    for args in EXTRA.get(name, []):
        yield [name, *args]


def _name_invocations():
    yield []
    yield ["help"]
    for name in ("bou", "s", "nope", "synth"):
        yield ["help", name]
        yield [name, "n1.apt"]


def _corpus():
    """(group, argv) for every invocation, in order."""
    for argv in _name_invocations():
        yield NAMES, argv
    for name, kinds, required in _modules():
        for argv in _invocations(name, kinds, required):
            yield name, argv


@contextlib.contextmanager
def _corpus_directory():
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            for name, content in _files().items():
                if isinstance(content, bytes):
                    pathlib.Path(name).write_bytes(content)
                else:
                    pathlib.Path(name).write_text(content)
            yield
        finally:
            os.chdir(cwd)


def _outputs():
    """(group, argv, output) for every invocation of the corpus."""
    with _corpus_directory():
        for group, argv in _corpus():
            yield group, argv, _run(argv)


def digests(outputs):
    """One sha256 per group over the argv and output of each of its invocations."""
    shas = {}
    for group, argv, output in outputs:
        sha = shas.setdefault(group, hashlib.sha256())
        sha.update(json.dumps(argv).encode() + b"\0" + output.encode() + b"\0")
    return {group: sha.hexdigest() for group, sha in shas.items()}


def show(group: str) -> None:
    """Print index, argv and output sha256 of every invocation of one group."""
    outputs = [(argv, output) for g, argv, output in _outputs() if g == group]
    for index, (argv, output) in enumerate(outputs):
        print(index, " ".join(argv), hashlib.sha256(output.encode()).hexdigest())


@pytest.fixture(scope="module")
def outputs():
    return list(_outputs())


def test_digest_file_lists_every_module(outputs):
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(digests(outputs))


@pytest.mark.parametrize("group", sorted(json.loads(DIGESTS.read_text())))
def test_outputs_match_the_recorded_digest(outputs, group):
    assert digests(outputs)[group] == json.loads(DIGESTS.read_text())[group]


def test_corpus_reaches_each_report_shape(outputs):
    texts = "\n".join(output for _, _, output in outputs)
    for text in (
        "plain: No\ndetail:", "isolated_elements: Yes\nwitness:", "isolated_elements: No\n",
        "counterexample: [t]", "covered: No\nuncovered:", "distinguishing_word:",
        "isomorphic: No\ndetail:", "ex.apt is not an LPN file", "n1.apt is not an LTS file",
        "k must be an integer", "mode must be weak or strong", "Supported properties",
        "output_written_to: out.apt", "cannot write nodir/out.apt", "side_conditions: [(",
        "weakly_connected_components: [{", "strongly_connected_components: [{", "status: 2",
    ):
        assert text in texts, text


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Regenerate the digest file, or list one module.")
    parser.add_argument("--show", metavar="MODULE")
    group = parser.parse_args().show
    if group:
        show(group)
    else:
        result = digests(_outputs())
        DIGESTS.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(result)} digests to {DIGESTS}")
