"""Command-line surface: outputs, exit codes, determinism."""

import io
import subprocess
import sys
from pathlib import Path

import pytest

from newsforms.cli import main

from conftest import INTRO_TEXT, EARTHQUAKE_XML

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture()
def intro_file(tmp_path):
    path = tmp_path / "intro.txt"
    path.write_text(INTRO_TEXT, encoding="utf-8")
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extract_intro(capsys, intro_file):
    code, out, err = run(capsys, "extract", intro_file)
    assert code == 0
    assert "<KilledCount>143</KilledCount>" in out
    assert "<Cause>Earthquake</Cause>" in out
    assert "<Country>COL</Country>" in out


def test_extract_empty_file(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, out, err = run(capsys, "extract", empty)
    assert code == 0
    assert out == "<NewsForm>\n  <Head/>\n</NewsForm>\n"


def test_extract_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(INTRO_TEXT))
    code, out, err = run(capsys, "extract", "-")
    assert code == 0
    assert "<KilledCount>143</KilledCount>" in out


def test_extract_debug_dump_precedes_xml(capsys, intro_file):
    code, out, err = run(capsys, "extract", "--debug", intro_file)
    assert code == 0
    golden = (FIXTURES / "intro_debug.golden").read_text(encoding="utf-8")
    assert out.startswith(golden)
    assert out.index("sentence\t0") < out.index("<NewsForm>")


def test_extract_review_diagnostics_go_to_stderr(capsys, tmp_path):
    story = tmp_path / "story.txt"
    story.write_text("Officials said 5 people died. Later officials said "
                     "6 people died.")
    code, out, err = run(capsys, "extract", "--review", story)
    assert code == 0
    assert "merge\t" in err or "fragment\t" in err
    assert "merge" not in out


def test_extract_missing_resources_is_exit_2(capsys, intro_file, tmp_path):
    code, out, err = run(capsys, "--lexicons", tmp_path / "absent",
                         "extract", intro_file)
    assert code == 2
    assert "does not exist" in err


@pytest.mark.parametrize("name, filename", [
    ("lexicons", "cities.tsv"), ("rules", "core.rules"), ("kb", "commonsense.tsv"),
])
def test_undecodable_resource_file_is_exit_2(capsys, intro_file, tmp_path, name, filename):
    directory = tmp_path / name
    directory.mkdir()
    (directory / filename).write_bytes(b"\xff\xfe")
    if name == "lexicons":
        (directory / "manifest").write_text(f"{filename}\n")
    code, out, err = run(capsys, f"--{name}", directory, "extract", intro_file)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot load {name} from ") and err.count("\n") == 1


def test_extract_outputs_are_byte_deterministic(capsys, intro_file):
    code1, out1, _ = run(capsys, "extract", intro_file)
    code2, out2, _ = run(capsys, "extract", intro_file)
    assert (code1, out1) == (code2, out2)


def test_validate_good_file(capsys, tmp_path):
    good = tmp_path / "good.newsform.xml"
    good.write_text(EARTHQUAKE_XML)
    code, out, err = run(capsys, "validate", good)
    assert code == 0
    assert out == ""


def test_validate_bad_file_exit_1_with_findings(capsys, tmp_path):
    bad = tmp_path / "bad.newsform.xml"
    bad.write_text(EARTHQUAKE_XML.replace("<Latitude>4.29</Latitude>",
                                     "<Latitude>95</Latitude>"))
    code, out, err = run(capsys, "validate", bad)
    assert code == 1
    assert "InjuryFatality/AtLocation/Latitude" in out
    assert "range" in out


def test_validate_prints_findings_in_schema_order(capsys, tmp_path):
    shuffled = tmp_path / "shuffled.newsform.xml"
    shuffled.write_text("<NewsForm><Succession><Out><Age>200</Age></Out>"
                        "<Function> </Function></Succession>"
                        "<Trip><VisitorCount>-1</VisitorCount></Trip></NewsForm>")
    code, out, err = run(capsys, "validate", shuffled)
    assert code == 1
    assert out == (
        f"{shuffled}\tSuccession[1]/Function\tempty\ttext content must be non-empty\n"
        f"{shuffled}\tSuccession[1]/Out/Age\trange\tvalue must be <= 150, got 200\n"
        f"{shuffled}\tTrip[2]/VisitorCount\trange\tvalue must be >= 0, got -1\n")


def test_validate_malformed_file(capsys, tmp_path):
    mangled = tmp_path / "mangled.newsform.xml"
    mangled.write_text("<NewsForm><Head>")
    code, out, err = run(capsys, "validate", mangled)
    assert code == 1
    assert "syntax" in out


def test_query_returns_doc_lines(capsys, corpus_dir):
    code, out, err = run(capsys, "query", corpus_dir, "Deal.Target.Ticker = BEL")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 1
    doc_id, path, sort_value = lines[0].split("\t")
    assert "target-bel" in path
    assert sort_value == "-"


def test_query_sort_value_in_output(capsys, corpus_dir):
    code, out, err = run(capsys, "query", corpus_dir,
                         "InjuryFatality sort InjuryFatality.KilledCount desc")
    lines = [l.split("\t") for l in out.splitlines() if l]
    assert [l[2] for l in lines] == ["143", "2"]


def test_query_unknown_path_is_exit_3_with_caret(capsys, corpus_dir):
    code, out, err = run(capsys, "query", corpus_dir, "Deal.Bogus = x")
    assert code == 3
    assert "Bogus" in err
    assert "^" in err
    assert out == ""


def test_query_missing_corpus_is_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "query", tmp_path / "nowhere", "Deal")
    assert code == 2


def test_query_nan_literal_is_exit_3(capsys, corpus_dir):
    code, out, err = run(capsys, "query", corpus_dir, "Deal.Stake < NaN")
    assert (code, out) == (3, "")
    assert err.startswith("error: 'NaN' is not a number")


@pytest.mark.parametrize("argv", [
    ("query", "Deal.Bogus = x"), ("geo", "Deal.Stake < NaN"), ("stats", "Scandal", "day"),
])
def test_bad_request_is_exit_3_before_the_corpus_is_read(capsys, tmp_path, argv):
    _bad_file(tmp_path)
    command, *rest = argv
    code, out, err = run(capsys, command, tmp_path, *rest)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and "skipped" not in err


def test_missing_corpus_takes_precedence_over_a_bad_query(capsys, tmp_path):
    code, out, err = run(capsys, "query", tmp_path / "nowhere", "Deal.Bogus = x")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("command", ["extract", "validate"])
def test_undecodable_file_is_exit_2_with_one_error_line(capsys, tmp_path, command):
    story = tmp_path / "latin1.txt"
    story.write_bytes("Un sismo sacudió Bogotá.".encode("latin-1"))
    code, out, err = run(capsys, command, story)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "latin1.txt" in err


@pytest.mark.parametrize("command", ["extract", "validate"])
def test_undecodable_stdin_is_exit_2(capsys, monkeypatch, command):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe"),
                                                       encoding="utf-8"))
    code, out, err = run(capsys, command, "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: -: ") and err.count("\n") == 1


def test_stats_output(capsys, corpus_dir):
    code, out, err = run(capsys, "stats", corpus_dir, "NewProduct", "day")
    assert code == 0
    assert out == "19990127\t3\nUNDATED\t0\n"


def test_geo_output(capsys, corpus_dir):
    code, out, err = run(capsys, "geo", corpus_dir, "InjuryFatality")
    assert code == 0
    lines = out.splitlines()
    assert "BHS\t0\t1\t0" in lines
    assert "COL\t0\t1\t0" in lines
    assert lines[-1] == "UNLOCATED\t0\t0\t0"


def test_exit_codes_are_disjoint(capsys, corpus_dir, tmp_path, intro_file):
    ok, _, _ = run(capsys, "query", corpus_dir, "Deal")
    findings, _, _ = run(capsys, "validate", _bad_file(tmp_path))
    resource, _, _ = run(capsys, "query", tmp_path / "missing", "Deal")
    syntax, _, _ = run(capsys, "query", corpus_dir, "Deal.Bogus = 1")
    assert (ok, findings, resource, syntax) == (0, 1, 2, 3)


@pytest.mark.parametrize("argv", [
    ("stats", ".", "Deal", "month"), ("bogus",), (), ("query",), ("extract", "--bogus", "x"),
])
def test_usage_errors_are_exit_3(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: newsform") and "error: " in err


def _bad_file(tmp_path):
    path = tmp_path / "invalid.newsform.xml"
    path.write_text(EARTHQUAKE_XML.replace("143", "-143"))
    return path


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "newsforms.cli", "--help"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "extract" in result.stdout


def test_newsform_data_env_override(capsys, monkeypatch, intro_file, tmp_path):
    monkeypatch.setenv("NEWSFORM_DATA", str(tmp_path / "absent"))
    code, out, err = run(capsys, "extract", intro_file)
    assert code == 2
    from newsforms.resources import packaged_data_root
    monkeypatch.setenv("NEWSFORM_DATA", str(packaged_data_root()))
    code, out, err = run(capsys, "extract", intro_file)
    assert code == 0
    assert "<KilledCount>143</KilledCount>" in out


def test_multiple_inputs_emit_in_input_order(capsys, tmp_path):
    first = tmp_path / "a.txt"
    first.write_text("The Federal Reserve raised its federal funds target to "
                     "5.25 percent.")
    second = tmp_path / "b.txt"
    second.write_text("")
    code, out, err = run(capsys, "extract", first, second)
    assert code == 0
    fed = out.index("<FedWatch>")
    empty = out.rindex("<NewsForm>\n  <Head/>\n</NewsForm>")
    assert fed < empty
