import pytest

from aptk.cli import dispatch, main
from aptk.common import UsageError

from conftest import N1_TEXT

LOCATED_LTS_TEXT = """\
.name "located"
.type LTS
.states
s0[initial] s1 s2 s3 s4 s5 s6
.labels
a[location="A"] b[location="B"] c[location="A"] d[location="A"]
.arcs
s0 a s1  s0 b s2  s1 b s3  s2 a s3  s3 c s4
s4 a s5  s4 d s0  s5 b s6  s5 d s1  s6 d s3
"""


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.apt"
    path.write_text(N1_TEXT)
    return str(path)


@pytest.fixture
def lts_file(tmp_path, net_file):
    path = tmp_path / "lts.apt"
    status, _ = dispatch(["coverability_graph", net_file, str(path)])
    assert status == 0
    return str(path)


def test_no_arguments_lists_modules():
    status, output = dispatch([])
    assert status == 0
    assert "Available modules:" in output
    assert "bounded" in output and "synthesize" in output


def test_bounded_yes(net_file):
    status, output = dispatch(["bounded", net_file])
    assert status == 0
    assert output == "bounded: Yes"


def test_bounded_one_witness(net_file):
    status, output = dispatch(["bounded", net_file, "1"])
    assert status == 0
    assert output.splitlines() == [
        "bounded: No",
        "witness_place: p4",
        "witness_firing_sequence: [a]",
    ]


def test_unique_prefix_resolves(net_file):
    status, output = dispatch(["bou", net_file])
    assert status == 0
    assert output == "bounded: Yes"


def test_coverab_prefix_writes_lts(net_file, tmp_path):
    out = tmp_path / "out.apt"
    status, output = dispatch(["coverab", net_file, str(out)])
    assert status == 0
    text = out.read_text()
    assert ".type LTS" in text
    assert "s0[initial] /* [ [p0:1] [p1:1] [p2:0] [p3:0] [p4:1] ] */" in text
    assert text.count("\ns") >= 7


def test_ambiguous_prefix_lists_candidates(net_file):
    with pytest.raises(UsageError, match="candidates"):
        dispatch(["s", net_file])


def test_unknown_module_suggests():
    with pytest.raises(UsageError, match="unknown module"):
        dispatch(["boundedness"])


def test_help_bounded_shape():
    status, output = dispatch(["help", "bounded"])
    assert status == 0
    lines = output.splitlines()
    assert lines[0] == "Usage: apt bounded <pn> [<k>]"
    assert lines[1].startswith("  pn")
    assert lines[2].startswith("  k")
    assert lines[3] == "Check if a Petri net is bounded or k-bounded."


def test_help_without_argument_lists():
    status, output = dispatch(["help"])
    assert status == 0
    assert "Available modules:" in output


def test_help_unknown_module():
    with pytest.raises(UsageError):
        dispatch(["help", "bogus"])


def test_wrong_arity_prints_usage(net_file):
    with pytest.raises(UsageError, match="Usage: apt bounded"):
        dispatch(["bounded"])
    with pytest.raises(UsageError):
        dispatch(["bounded", net_file, "1", "2"])


def test_synthesize_safe_report(lts_file):
    status, output = dispatch(["synthesize", "safe", lts_file])
    assert status == 0
    lines = output.splitlines()
    assert lines[0] == "success: No"
    assert "failedStateSeparationProblems: []" in lines
    assert "failedEventStateSeparationProblems: {b=[s4]}" in lines


def test_synthesize_verbose_region_block(lts_file):
    status, output = dispatch(["synthesize", "safe,verbose", lts_file])
    assert status == 0
    assert "solvedEventStateSeparationProblems:" in output
    assert "separates event c at states [s4, s5, s6]" in output


def test_synthesize_success_writes_net(lts_file, tmp_path):
    out = tmp_path / "solved.apt"
    status, output = dispatch(["synthesize", "none", lts_file, str(out)])
    assert status == 0
    assert output.splitlines()[0] == "success: Yes"
    assert ".type LPN" in out.read_text()


def test_synthesize_locations_honoured(tmp_path):
    path = tmp_path / "located.apt"
    path.write_text(LOCATED_LTS_TEXT)
    status, output = dispatch(["synthesize", "none", str(path)])
    assert status == 0
    assert output.splitlines()[0] == "success: Yes"


def test_synthesize_language_reports_input_states(tmp_path):
    path = tmp_path / "reconverge.apt"
    path.write_text(
        ".type LTS\n.states\ns0[initial] s1 s2 s3\n.labels\na b c\n"
        ".arcs\ns0 a s1  s0 c s3  s1 a s2  s1 b s2\n"
    )
    status, output = dispatch(["synthesize", "plain,language", str(path)])
    assert status == 0
    assert output.splitlines() == [
        "success: No",
        "failedStateSeparationProblems: []",
        "failedEventStateSeparationProblems: {c=[s1]}",
    ]


def test_word_synthesize_failure_report(capsys):
    status, output = dispatch(["word_synthesize", "none", "a,b,b,a,a,c"])
    assert status == 0
    assert output.splitlines() == [
        "success: No",
        "separationFailurePoints: a, b, [a] b, a, a, c",
    ]


def test_word_synthesize_letter_named_like_a_state():
    status, output = dispatch(["word_synthesize", "none", "s1,a"])
    assert status == 0
    assert output.splitlines()[0] == "success: Yes"


def test_word_synthesize_success_prints_or_writes_net(tmp_path):
    report = [
        "success: Yes",
        "failedStateSeparationProblems: []",
        "failedEventStateSeparationProblems: {}",
    ]
    status, printed = dispatch(["word_synthesize", "none", "a,b"])
    assert status == 0
    lines = printed.splitlines()
    assert lines[:3] == report and ".type LPN" in lines
    out = tmp_path / "word.apt"
    status, written = dispatch(["word_synthesize", "none", "a,b", str(out)])
    assert status == 0
    assert written.splitlines() == report + [f"output_written_to: {out}"]
    assert out.read_text().rstrip("\n").splitlines() == lines[3:]


def test_word_synthesize_refuses_to_write_an_unreadable_net(tmp_path, capsys):
    # "a b" is one letter of the word, but the reader would see two names
    out = tmp_path / "word.apt"
    assert main(["word_synthesize", "none", "a b,c", str(out)]) == 2
    assert "transition 'a b'" in capsys.readouterr().err
    assert not out.exists()


def test_generators_roundtrip(tmp_path):
    out = tmp_path / "bits.apt"
    status, _ = dispatch(["bitnet_generator", "2", str(out)])
    assert status == 0
    status, output = dispatch(["bounded", str(out), "1"])
    assert output == "bounded: Yes"
    status, output = dispatch(["cycle_generator", "3", "1"])
    assert ".type LPN" in output


def test_draw_outputs_dot(net_file):
    status, output = dispatch(["draw", net_file])
    assert status == 0
    assert output.startswith("digraph")


def test_analysis_modules_run(net_file, lts_file):
    for argv, expected in [
        (["plain", net_file], "plain: Yes"),
        (["pure", net_file], "pure: Yes"),
        (["weakly_live", net_file], "weakly_live: Yes"),
        (["gcd_marking", net_file], "gcd: 1"),
        (["deterministic", lts_file], "deterministic: Yes"),
        (["totally_reachable", lts_file], "totally_reachable: Yes"),
        (["cycles_same_pv", lts_file], "cycles_same_pv: Yes"),
        (["persistent", net_file], "persistent: Yes"),
        (["persistent", lts_file], "persistent: Yes"),
        (["reversible", net_file], "reversible: Yes"),
    ]:
        status, output = dispatch(argv)
        assert status == 0
        assert output.splitlines()[0] == expected


def test_compute_pvs(lts_file):
    status, output = dispatch(["compute_pvs", lts_file])
    assert status == 0
    assert output == "small_cycle_parikh_vectors: [{a:1, b:1, c:1, d:1}]"


def test_two_lts_modules(lts_file):
    status, output = dispatch(["isomorphism", lts_file, lts_file])
    assert output.splitlines()[0] == "isomorphic: Yes"
    status, output = dispatch(["bisimulation", lts_file, lts_file])
    assert output == "bisimilar: Yes"
    status, output = dispatch(["language_equivalence", lts_file, lts_file])
    assert output == "language_equivalent: Yes"


def test_word_in_language_module(net_file):
    status, output = dispatch(["word_in_language", net_file, "a,b,c"])
    assert output == "word_in_language: Yes"
    status, output = dispatch(["word_in_language", net_file, "a,a"])
    assert output.splitlines() == [
        "word_in_language: No",
        "maximal_enabled_prefix: [a]",
    ]


def test_invariant_modules(tmp_path):
    out = tmp_path / "ring.apt"
    dispatch(["cycle_generator", "3", "1", str(out)])
    status, output = dispatch(["s_invariants", str(out)])
    assert output == "s_invariants: [{q0:1, q1:1, q2:1}]"
    status, output = dispatch(["siphons", str(out)])
    assert output == "minimal_siphons: [{q0, q1, q2}]"
    status, output = dispatch(["covered_by_t_invariants", str(out)])
    assert output.splitlines()[0] == "covered: Yes"


def test_exit_codes(tmp_path, capsys):
    # 0 for a completed "No" answer
    net = tmp_path / "net.apt"
    net.write_text(N1_TEXT)
    assert main(["bounded", str(net), "1"]) == 0
    # 1 for usage problems and parse errors
    assert main(["bogus"]) == 1
    bad = tmp_path / "bad.apt"
    bad.write_text(".type LPN\n.places p p\n")
    assert main(["bounded", str(bad)]) == 1
    assert main(["bounded", str(tmp_path / "missing.apt")]) == 1
    # 2 for violated analysis preconditions
    unbounded = tmp_path / "unbounded.apt"
    unbounded.write_text(
        ".type LPN\n.places p\n.transitions t\n.flows\nt: { } -> { p }\n"
        ".initial_marking { }\n"
    )
    assert main(["persistent", str(unbounded)]) == 2
    capsys.readouterr()


def test_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.apt"
    bad.write_bytes(b"\xff\xfe.type LTS")
    assert main(["persistent", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err


def test_non_decimal_bound_is_an_unknown_property(lts_file, capsys):
    assert main(["synthesize", "²-bounded", lts_file]) == main(["synthesize", "shiny", lts_file]) == 2
    assert "unknown property '²-bounded'" in capsys.readouterr().err


def test_output_in_missing_directory_is_a_usage_error(lts_file, tmp_path, capsys):
    out = tmp_path / "missing" / "out.apt"
    for argv in (["synthesize", "none", lts_file, str(out)], ["bitnet_generator", "2", str(out)]):
        with pytest.raises(UsageError, match="cannot write"):
            dispatch(argv)
        assert main(argv) == 1
        assert f"cannot write {out}" in capsys.readouterr().err
    assert not out.parent.exists()


def test_nonnet_file_for_pn_parameter(tmp_path, lts_file):
    with pytest.raises(UsageError, match="not an LPN"):
        dispatch(["bounded", lts_file])


def test_separable_module(tmp_path):
    ring = tmp_path / "ring.apt"
    dispatch(["cycle_generator", "2", "2", str(ring)])
    status, output = dispatch(["separable", str(ring), "2", "3", "weak"])
    assert status == 0
    assert output == "separable: inconclusive"


def test_dispatch_deterministic_byte_for_byte(net_file, lts_file):
    for argv in [
        ["bounded", net_file, "1"],
        ["synthesize", "safe,verbose", lts_file],
        ["synthesize", "plain,pure", lts_file],
        ["word_synthesize", "none", "a,b,b,a,a,c"],
        ["coverability_graph", net_file],
        ["siphons", net_file],
    ]:
        first = dispatch(list(argv))
        second = dispatch(list(argv))
        assert first == second
