"""Command-line surface: outputs, exit codes, determinism."""

import contextlib
import io
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from newsforms import cli, corpus, model, shards
from newsforms.cli import STATS_BUCKETS, main

from newsforms.xmlcodec import serialize_newsform

from conftest import INTRO_TEXT, JOSPIN_TEXT, EARTHQUAKE_XML, STORY_TEXTS, DocGenerator

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter converts ints of any length")
def test_an_integer_too_long_to_write_drops_its_event(capsys, monkeypatch):
    # 5 x 10^4800 killed: more digits than str() converts, so the event
    # would not serialize; validation drops it instead
    text = ("An earthquake struck western Colombia on Monday, killing 5 "
            + "trillion " * 400 + "people.")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, "extract", "--review", "-")
    assert (code, out) == (0, "<NewsForm>\n  <Head/>\n</NewsForm>\n")
    assert "validate\t-\tdropped\tInjuryFatality/KilledCount: integer too long to write" in err


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


@pytest.mark.parametrize("text", ["InjuryFatality.KilledCount = ١٤٣",
                                  "InjuryFatality.KilledCount = abc",
                                  "InjuryFatality.KilledCount != abc"])
def test_query_with_an_unreadable_number_is_exit_3(capsys, corpus_dir, text):
    code, out, err = run(capsys, "query", corpus_dir, text)
    literal = text.split()[-1]
    assert (code, out) == (3, "")
    assert err == (f"error: {literal!r} is not a number\n  {text}\n"
                   f"  {' ' * text.index(literal)}^\n")


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


def _write_dated(directory, *stamps):
    for n, stamp in enumerate(stamps):
        doc = model.NewsForm(head=model.Head(dateline_time=stamp),
                             events=(model.NewProduct(item="Widget"),))
        (directory / f"p{n}.newsform.xml").write_text(serialize_newsform(doc))
    return directory


@pytest.mark.parametrize("bucket, row", [("day", "99991231\t1"), ("week", "99991227\t1")],
                         ids=["day", "week"])
def test_stats_on_the_last_day_of_the_calendar(capsys, tmp_path, bucket, row):
    corpus_dir = _write_dated(tmp_path, datetime(9999, 12, 31, tzinfo=timezone.utc))
    code, out, err = run(capsys, "stats", corpus_dir, "NewProduct", bucket)
    assert (code, out, err) == (0, f"{row}\nUNDATED\t0\n", "")


def test_years_before_1000_print_with_four_digits(capsys, tmp_path):
    corpus_dir = _write_dated(tmp_path, datetime(1, 1, 1, tzinfo=timezone.utc),
                              datetime(999, 1, 1, tzinfo=timezone.utc))
    code, out, err = run(capsys, "query", corpus_dir, "NewProduct sort DatelineTime desc")
    assert (code, err) == (0, "")
    assert [line.split("\t")[2] for line in out.splitlines()] == [
        "09990101T000000Z", "00010101T000000Z"]
    code, out, err = run(capsys, "stats", corpus_dir, "NewProduct", "day")
    assert (code, err) == (0, "")
    assert out.startswith("00010101\t1\n00010102\t0\n")
    assert out.endswith("09990101\t1\nUNDATED\t0\n")


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


def test_query_with_a_non_ascii_timestamp_is_exit_3(capsys, corpus_dir):
    code, out, err = run(capsys, "query", corpus_dir, "InjuryFatality since ١٩٩٩0101T000000Z")
    assert (code, out) == (3, "")
    assert err.startswith("error: bad timestamp '١٩٩٩0101T000000Z'")


def test_stats_bucket_choices_are_the_corpus_buckets():
    assert STATS_BUCKETS == tuple(bucket.value for bucket in corpus.Bucket)


# ---------------------------------------------------------------------------
# Fresh interpreters: each command imports only its own layers, which an
# in-process test cannot see, as the test session has imported them all

def _fresh(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)


def _modules_after(code: str) -> set[str]:
    result = _fresh("-c", f"{code}\nimport sys\nprint(*sys.modules)")
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_cli_import_loads_neither_unused_layers_nor_the_url_stack():
    loaded = _modules_after("import newsforms.cli") - _modules_after("pass")
    assert "newsforms.cli" in loaded
    assert not loaded & {"newsforms.rules", "newsforms.pipeline", "newsforms.corpus"}
    heavy = ("xml.sax", "urllib.request", "http", "email", "ssl")
    assert sorted(m for m in loaded if any(m == h or m.startswith(h + ".") for h in heavy)) == []


def test_query_error_in_a_fresh_interpreter_is_exit_3_with_a_caret(tmp_path):
    result = _fresh("-m", "newsforms.cli", "query", str(tmp_path), "Deal.Bogus = x")
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == ("error: unknown field path 'Deal.Bogus'\n"
                             "  Deal.Bogus = x\n"
                             "  ^\n")


def test_malformed_rule_file_in_a_fresh_interpreter_is_exit_3(tmp_path, intro_file):
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "bad.rules").write_text("earthquake struck ?Location:loc\n", encoding="utf-8")
    result = _fresh("-m", "newsforms.cli", "--rules", str(rules), "extract", str(intro_file))
    assert (result.returncode, result.stdout) == (3, "")
    assert result.stderr == "error: r001: missing '=>' between pattern and template\n"


# ---------------------------------------------------------------------------
# Sharded corpus reads: the same output on one CPU as on all of them

@pytest.fixture(scope="module")
def large_corpus(tmp_path_factory):
    """A corpus with enough files for build_index to fork, with invalid,
    malformed and non-UTF-8 files among them."""
    directory = tmp_path_factory.mktemp("large")
    generator = DocGenerator(seed=42)
    bad = {5: EARTHQUAKE_XML.replace("143", "-143").encode(), 50: EARTHQUAKE_XML[:200].encode(),
           70: b"<NewsForm><Head/></NewsForm>\xe9"}
    for n in range(2 * corpus.SHARD_MIN_FILES + 40):
        path = directory / f"doc-{n:04d}.newsform.xml"
        if n % 97 in bad:
            path.write_bytes(bad[n % 97])
        else:
            path.write_text(serialize_newsform(generator.document()))
    return directory


_PRINT_FIRST = ("import sys; from newsforms.cli import main; "
                "sys.stdout.write('before '); sys.stderr.write('before '); "
                "sys.exit(main(sys.argv[1:]))")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
@pytest.mark.parametrize("argv", [
    ("query", "InjuryFatality sort InjuryFatality.KilledCount desc"),
    ("stats", "Deal", "week"),
    ("geo", "Earnings"),
])
@pytest.mark.parametrize("buffered", [False, True])
def test_one_cpu_and_all_cpus_give_the_same_output(large_corpus, argv, buffered):
    # with buffered text on stdout and stderr when the corpus is read, a
    # child that flushed the parent's buffers would print it twice
    command, *rest = argv
    args = ("-c", _PRINT_FIRST) if buffered else ("-m", "newsforms.cli")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)   # keep the text in the buffers
    runs = [subprocess.run([sys.executable, *args, command, str(large_corpus), *rest],
                           capture_output=True, text=True, env=env, preexec_fn=preexec,
                           timeout=120)
            for preexec in (lambda: os.sched_setaffinity(0, {0}), None)]
    one_cpu, all_cpus = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert one_cpu == all_cpus
    code, out, err = all_cpus
    assert code == 0 and out.count("\t") > 2
    assert err.count("skipped\t") == sum(n % 97 in (5, 50, 70)
                                         for n in range(2 * corpus.SHARD_MIN_FILES + 40))
    if buffered:
        assert out.startswith("before ") and out.count("before") == 1
        assert err.startswith("before ") and err.count("before") == 1


# ---------------------------------------------------------------------------
# Sharded extraction: one, two or three shards give the same bytes

def _extract_run(argv, stdin_text):
    """(exit code, stdout, stderr) of one in-process extract call."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "stdin", io.StringIO(stdin_text))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["extract", *map(str, argv)])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def stories(tmp_path):
    paths = []
    for n, text in enumerate(STORY_TEXTS * 2):
        paths.append(tmp_path / f"s{n:02d}.txt")
        paths[-1].write_text(text, encoding="utf-8")
    return paths


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
@pytest.mark.parametrize("flags", [(), ("--debug",), ("--review",)], ids=["plain", "debug", "review"])
@pytest.mark.parametrize("batch", ["files", "stdin", "missing", "non-utf8"])
def test_sharded_extraction_equals_one_shard(monkeypatch, tmp_path, stories, flags, batch):
    inputs = list(stories)
    if batch == "stdin":
        inputs.insert(5, "-")
    elif batch == "missing":
        inputs.insert(5, tmp_path / "absent.txt")
    elif batch == "non-utf8":
        inputs.insert(5, tmp_path / "latin1.txt")
        inputs[5].write_bytes("Un sismo sacudió Bogotá.".encode("latin-1"))
    monkeypatch.setattr(cli, "SHARD_MIN_STORIES", 1)
    runs = []
    for count in (1, 2, 3):
        monkeypatch.setattr(shards, "_usable_cpus", lambda: count)
        assert shards.shard_count(len(inputs), cli.SHARD_MIN_STORIES) == count
        runs.append(_extract_run((*flags, *inputs), JOSPIN_TEXT))
    assert runs[1] == runs[0] and runs[2] == runs[0]
    code, out, err = runs[0]
    if batch in ("missing", "non-utf8"):   # the documents before it, then exit 2
        assert code == 2 and out.count("<NewsForm>") == 5
        assert err.endswith("\n") and err.splitlines()[-1].startswith("error: ")
    else:
        assert code == 0 and out.count("<NewsForm>") == len(inputs)
    assert ("sentence\t0" in out) == ("--debug" in flags)
    assert ("fragment\t" in err) == ("--review" in flags)


def test_one_story_imports_neither_the_runner_nor_pickle(intro_file):
    loaded = _modules_after("from newsforms.cli import main\n"
                            f"main(['extract', {str(intro_file)!r}])")
    assert not loaded & {"newsforms.shards", "pickle"}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no sched_setaffinity")
def test_extract_on_one_cpu_and_all_cpus_gives_the_same_output(tmp_path):
    # buffered text on stdout and stderr before the stories are extracted:
    # a child that flushed the parent's buffers would print it twice
    paths = []
    for n in range(2 * cli.SHARD_MIN_STORIES + 3):
        paths.append(tmp_path / f"s{n:02d}.txt")
        paths[-1].write_text(STORY_TEXTS[n % len(STORY_TEXTS)], encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONUNBUFFERED", None)   # keep the text in the buffers
    runs = [subprocess.run([sys.executable, "-c", _PRINT_FIRST, "extract", "--review",
                            *map(str, paths)],
                           capture_output=True, text=True, env=env, preexec_fn=preexec,
                           timeout=120)
            for preexec in (lambda: os.sched_setaffinity(0, {0}), None)]
    one_cpu, all_cpus = [(r.returncode, r.stdout, r.stderr) for r in runs]
    assert one_cpu == all_cpus
    code, out, err = all_cpus
    assert code == 0 and out.count("<NewsForm>") == len(paths) and "fragment\t" in err
    assert out.startswith("before ") and out.count("before") == 1
    assert err.startswith("before ") and err.count("before") == 1


# ---------------------------------------------------------------------------
# A reader that closes standard output early

@pytest.mark.parametrize("command", ["extract", "query"])
def test_closed_stdout_is_exit_2_with_one_error_line(tmp_path, corpus_dir, command):
    if command == "extract":
        story = tmp_path / "story.txt"
        story.write_text(INTRO_TEXT, encoding="utf-8")
        argv = ["extract", *[str(story)] * 100]
    else:   # rows enough to fill the pipe whatever the buffer sizes
        for n in range(1500):
            doc = model.NewsForm(head=model.Head(), events=(model.NewProduct(item="Widget"),))
            (tmp_path / f"p{n:04d}.newsform.xml").write_text(serialize_newsform(doc))
        argv = ["query", str(tmp_path), "NewProduct"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.Popen([sys.executable, "-m", "newsforms.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()   # the reader goes away after one line
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert first
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
