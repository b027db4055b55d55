"""Corpus index and query engine, checked against brute-force oracles.

The oracle below evaluates queries by direct linear scan over the parsed
documents, with no index and no shared evaluation code; the engine must
agree with it on every generated query.
"""

import contextlib
import io
import os
import pickle
import random
import tempfile
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path
from typing import Callable

import pytest
from hypothesis import example, given, settings, strategies as st

from newsforms import cli, corpus, model, rules, shards, xmlcodec
from newsforms.model import FieldKind, Money, NewsForm
from newsforms.corpus import (
    Bucket,
    QueryError,
    build_index,
    corpus_paths,
    geo_distribution,
    parse_query,
    query,
    stats,
)
from newsforms.xmlcodec import parse_newsform, serialize_newsform

from conftest import STORY_TEXTS, DocGenerator, fixture_documents, schema_paths


# ---------------------------------------------------------------------------
# Brute-force oracle

def _walk_leaves(value, cls, prefix):
    """(path, spec, typed value) triples for every populated leaf."""
    for spec in model.specs_for(cls):
        item = getattr(value, spec.attr)
        if item is None or item == ():
            continue
        path = f"{prefix}.{spec.element}" if prefix else spec.element
        if spec.kind in model.LEAF_KINDS:
            yield path, spec, item
        elif spec.kind is FieldKind.MONEY:
            yield path, spec, item
            amount_spec = model.spec_by_element(model.Money, "Amount")
            currency_spec = model.spec_by_element(model.Money, "Currency")
            yield f"{path}.Amount", amount_spec, item.amount
            yield f"{path}.Currency", currency_spec, item.currency
        elif spec.kind is FieldKind.MEASURE:
            yield path, spec, item
        elif spec.kind in (FieldKind.PERSON, FieldKind.ORGANIZATION,
                           FieldKind.LOCATION, FieldKind.ORG_OR_PERSON):
            yield from _walk_leaves(item, type(item), path)
        elif spec.kind in model.LIST_KINDS:
            for element in item:
                yield from _walk_leaves(element, type(element), path)


def _oracle_pred(event, path, op, literal):
    hits = [(spec, value) for p, spec, value in
            _walk_leaves(event, type(event), "") if p == path]
    if not hits:
        return False
    for spec, value in hits:
        if isinstance(value, Money):
            if op == "contains":
                text = f"{value.currency}:{format(value.amount.normalize(), 'f')}"
                if literal.lower() in text.lower():
                    return True
                continue
            currency, _, amount = literal.partition(":")
            if value.currency != currency:
                raise QueryError("cross-currency comparison")
            lhs, rhs = value.amount, Decimal(amount)
        elif isinstance(value, (int, Decimal)) and not isinstance(value, bool):
            if op == "contains":
                if literal.lower() in str(value).lower():
                    return True
                continue
            try:
                lhs, rhs = Decimal(value), Decimal(literal)
            except ArithmeticError:
                continue
        elif isinstance(value, datetime):
            if op == "contains":
                continue
            try:
                rhs = datetime.strptime(literal, "%Y%m%dT%H%M%SZ").replace(
                    tzinfo=timezone.utc)
            except ValueError:
                continue
            lhs = value
        else:
            if isinstance(value, model.Measure):
                lhs = f"{format(value.value.normalize(), 'f')} {value.unit}"
            else:
                lhs = model.leaf_token(spec, value)
            rhs = literal
            if op == "contains":
                if rhs.lower() in lhs.lower():
                    return True
                continue
            if isinstance(value, model.Measure) and op not in ("=", "!="):
                continue
        if op == "=" and lhs == rhs:
            return True
        if op == "!=" and lhs != rhs:
            return True
        if op == "<" and lhs < rhs:
            return True
        if op == "<=" and lhs <= rhs:
            return True
        if op == ">" and lhs > rhs:
            return True
        if op == ">=" and lhs >= rhs:
            return True
    return False


def oracle_query(docs, variant, predicates, sort=None, descending=False):
    """docs: list of (doc_id, NewsForm). predicates: (path, op, literal)."""
    cls = model.EVENT_TYPES[variant]
    rows = []
    for position, (doc_id, form) in enumerate(docs):
        matched = [e for e in form.events if isinstance(e, cls)
                   and all(_oracle_pred(e, p, op, lit) for p, op, lit in predicates)]
        if not matched:
            continue
        key = None
        if sort is not None:
            for event in matched:
                for path, spec, value in _walk_leaves(event, cls, ""):
                    if path == sort:
                        key = value.amount if isinstance(value, Money) else value
                        break
                if key is not None:
                    break
        rows.append((doc_id, position, key))
    if sort is None:
        return [doc_id for doc_id, _, _ in rows]

    def sort_key(row):
        doc_id, position, key = row
        if key is None:
            return (1, 0, position)
        numeric = key.timestamp() if isinstance(key, datetime) else float(key)
        return (0, -numeric if descending else numeric, position)

    return [doc_id for doc_id, _, _ in sorted(rows, key=sort_key)]


# ---------------------------------------------------------------------------
# Index construction

def test_empty_index():
    index = build_index([])
    assert index.docs == []
    assert index.postings == {}


def test_single_document_postings(tmp_path):
    doc = fixture_documents()["quake"]
    path = tmp_path / "quake.newsform.xml"
    path.write_text(serialize_newsform(doc))
    index = build_index([path])
    assert ("InjuryFatality", "AtLocation.Country", "COL") in index.postings
    assert index.postings[("InjuryFatality", "AtLocation.Country", "COL")] == {"d0001"}
    assert ("InjuryFatality", "KilledCount", "143") in index.postings


def test_fixture_postings_match_brute_force_walk(corpus_dir):
    index = build_index(corpus_paths(corpus_dir))
    expected = {}
    for doc in index.docs:
        for event in doc.form.events:
            variant = model.ELEMENT_OF_EVENT[type(event)]
            for path, spec, value in _walk_leaves(event, type(event), ""):
                if isinstance(value, Money):
                    token = f"{value.currency}:{format(value.amount.normalize(), 'f')}"
                elif isinstance(value, (int, Decimal)) and not isinstance(value, bool):
                    token = format(Decimal(value).normalize(), "f")
                elif isinstance(value, model.Measure):
                    token = f"{format(value.value.normalize(), 'f')} {value.unit}"
                else:
                    token = model.leaf_token(spec, value)
                expected.setdefault((variant, path, token), set()).add(doc.doc_id)
    assert index.postings == expected


def test_unreadable_and_invalid_files_are_skipped_with_diagnostics(tmp_path):
    good = tmp_path / "good.newsform.xml"
    good.write_text(serialize_newsform(fixture_documents()["quake"]))
    bad = tmp_path / "bad.newsform.xml"
    bad.write_text("<NewsForm><Mystery/></NewsForm>")
    invalid = tmp_path / "invalid.newsform.xml"
    invalid.write_text(
        "<NewsForm><Head/><Trip><VisitorCount>-3</VisitorCount></Trip></NewsForm>")
    index = build_index([good, bad, invalid, tmp_path / "missing.newsform.xml"])
    assert len(index.docs) == 1
    assert len(index.diagnostics) == 3


def test_skipped_line_names_the_first_finding_in_schema_order(tmp_path):
    # the input puts VisitorCount first; validate walks Host (the first
    # Trip field) first, and the index reports what validate would
    invalid = tmp_path / "invalid.newsform.xml"
    invalid.write_text("<NewsForm><Trip><VisitorCount>-3</VisitorCount>"
                       "<Host><Ticker>bel</Ticker></Host></Trip></NewsForm>")
    index = build_index([invalid])
    assert index.diagnostics == [
        f"skipped\t{invalid}\tinvalid: Trip/Host/Ticker: not a valid exchange ticker: 'bel'"]


def test_index_checks_documents_as_it_reads_them(corpus_dir, monkeypatch):
    def second_walk(doc):
        raise AssertionError("build_index walked a document twice")
    monkeypatch.setattr(model, "validate", second_walk)
    assert len(build_index(corpus_paths(corpus_dir)).docs) == len(fixture_documents())


def test_rebuild_determinism(corpus_dir):
    paths = corpus_paths(corpus_dir)
    first = build_index(paths)
    second = build_index(paths)
    assert first.postings == second.postings
    assert [d.doc_id for d in first.docs] == [d.doc_id for d in second.docs]


# ---------------------------------------------------------------------------
# Sharded runs (newsforms.shards). The corpus read and batch extraction both
# run through the shared runner, so each failure-mode test checks both of
# them; their per-shard minimums are set to 1 so that small inputs fork.

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")

_FIXTURE_TEXTS = [serialize_newsform(doc) for doc in fixture_documents().values()]
_FILE_CONTENTS = {
    "invalid": "<NewsForm><Head/><Trip><VisitorCount>-3</VisitorCount></Trip></NewsForm>\n",
    "malformed": _FIXTURE_TEXTS[0][:len(_FIXTURE_TEXTS[0]) // 2],
    "unknown": "<NewsForm><Head/><Mystery/></NewsForm>\n",
    "non-utf8": "<NewsForm><Head/></NewsForm>\xe9".encode("latin-1"),
}

# Files built to forge a batch of the batched corpus read, or to break one:
# each must come out as it does when read alone.
_FORGING = {
    "open comment": "<NewsForm><Head/><!-- </NewsForm>",
    "comment end": "<NewsForm>--></NewsForm>",
    "open CDATA": "<NewsForm><Head/><![CDATA[</NewsForm>",
    "CDATA end": "<NewsForm>]]></NewsForm>",
    "open instruction": "<NewsForm><Head/><?pi </NewsForm>",
    "instruction end": "<NewsForm>?></NewsForm>",
    "stray closing tag": "<NewsForm></Head></NewsForm>",
    "wrapper bytes": "<NewsForm><Head/></NewsForm></_><_><NewsForm><Head/></NewsForm>",
    "wrapper element": "<NewsForm><Head/><_/></NewsForm>",
    "empty": "",
    "two roots": "<NewsForm><Head/></NewsForm><NewsForm><Head/></NewsForm>",
    "text between roots": "<NewsForm/>x<NewsForm></NewsForm>",
    "text after the root": "<NewsForm><Head/></NewsForm>x",
    "comment after the root": "<NewsForm><Head/></NewsForm><!-- c --></NewsForm>",
    "stray text first": "<NewsForm><Head/><Trip><Mystery/> x </Trip></NewsForm>",
    "headless": "<NewsForm><Trip><VisitorCount>3</VisitorCount></Trip></NewsForm>",
    "leading reference": "&#32;<NewsForm><Head/></NewsForm>",
    "leading U+0085": "\u0085<NewsForm><Head/></NewsForm>",
    "leading U+2028": "\u2028<NewsForm><Head/></NewsForm>",
    "XML whitespace": " \t\r\n<NewsForm><Head/></NewsForm>\n\t",
    "declaration": '<?xml version="1.0" encoding="UTF-8"?>\n<NewsForm><Head/></NewsForm>',
    "byte-order mark": "\ufeff<NewsForm><Head/></NewsForm>",
    "DOCTYPE": '<!DOCTYPE NewsForm [<!ENTITY x "y">]><NewsForm><Head/></NewsForm>',
    "non-UTF-8 inside": "<NewsForm><Head/>\xe9</NewsForm>".encode("latin-1"),
    "truncated": _FIXTURE_TEXTS[1][:len(_FIXTURE_TEXTS[1]) * 2 // 3],
}
_FILE_KIND = st.one_of(st.sampled_from(range(len(_FIXTURE_TEXTS))),
                       st.sampled_from(sorted(_FILE_CONTENTS) + ["missing"]))


def _write_corpus(directory, kinds):
    """One file per kind: a fixture document by number, a document
    generated from a seed, a bad or forging file, or a directory named
    like a document."""
    paths = []
    for n, kind in enumerate(kinds):
        path = directory / f"f{n:03d}.newsform.xml"
        if isinstance(kind, int):
            content = _FIXTURE_TEXTS[kind]
        elif isinstance(kind, tuple):
            content = serialize_newsform(DocGenerator(kind[1]).document())
        else:
            content = _FILE_CONTENTS.get(kind, _FORGING.get(kind))
        if kind == "directory":
            path.mkdir()
        elif isinstance(content, str):
            path.write_text(content, encoding="utf-8")
        elif content is not None:
            path.write_bytes(content)
        paths.append(path)
    return paths


def _serial_index(paths, variant=None):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "_usable_cpus", lambda: 1)
        return build_index(paths, variant)


def _same_index(got, want):
    assert [(d.doc_id, d.path) for d in got.docs] == [(d.doc_id, d.path) for d in want.docs]
    assert [d.form for d in got.docs] == [d.form for d in want.docs]
    assert got.diagnostics == want.diagnostics


@pytest.fixture()
def sharded(monkeypatch):
    """Three shards for any input of three or more items, for both callers."""
    monkeypatch.setattr(corpus, "SHARD_MIN_FILES", 1)
    monkeypatch.setattr(cli, "SHARD_MIN_STORIES", 1)
    monkeypatch.setattr(shards, "_usable_cpus", lambda: 3)


@dataclass
class _Caller:
    """A user of the runner, over inputs written for one test."""
    name: str
    item: tuple      # (module, attribute) of the call a shard makes per file or story
    last: object     # that call's first argument for the last shard's last call
    run: Callable    # one call, its outcome as data to compare


def _callers(directory, kinds):
    """The corpus read over files of ``kinds``, whose shards each read
    their files in one call, and extraction with ``--review`` over one
    story per kind."""
    paths = _write_corpus(directory, kinds)
    texts = [STORY_TEXTS[n % len(STORY_TEXTS)] + " " * n for n in range(len(kinds))]
    stories = []
    for n, text in enumerate(texts):
        stories.append(directory / f"s{n:03d}.txt")
        stories[-1].write_text(text, encoding="utf-8")

    def index():
        got = build_index(paths)
        return [(d.doc_id, d.path, d.form) for d in got.docs], got.diagnostics

    def extract():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["extract", "--review", *map(str, stories)])
        return code, out.getvalue(), err.getvalue()
    last_shard = shards.shard_bounds(len(paths), corpus.SHARD_MIN_FILES)[-1]
    return [_Caller("corpus", (corpus, "read_newsforms"), paths[slice(*last_shard)], index),
            _Caller("extract", (rules, "extract"), texts[-1], extract)]


def _no_fork():
    raise BlockingIOError("Resource temporarily unavailable")


def _serial(caller: _Caller):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "_usable_cpus", lambda: 1)
        return caller.run()


@needs_fork
@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(_FILE_KIND, max_size=12), cpus=st.integers(2, 4),
       variant=st.one_of(st.none(), st.sampled_from(sorted(model.EVENT_TYPES))))
def test_sharded_index_equals_the_one_shard_index(kinds, cpus, variant):
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        paths = _write_corpus(Path(directory), kinds)
        want = _serial_index(paths, variant)
        patch.setattr(corpus, "SHARD_MIN_FILES", 1)
        patch.setattr(shards, "_usable_cpus", lambda: cpus)
        assert shards.shard_count(len(paths), corpus.SHARD_MIN_FILES) == \
            max(1, min(cpus, len(paths)))
        _same_index(build_index(paths, variant), want)


_BATCH_FILE = st.one_of(_FILE_KIND, st.sampled_from(sorted(_FORGING) + ["directory"]),
                        st.integers(0, 10 ** 6).map(lambda seed: ("generated", seed)))


def _file_by_file_index(paths, variant):
    """Ids, paths, forms and ``skipped`` lines of each file read alone
    with ``parse_newsform``."""
    cls = model.EVENT_TYPES.get(variant)
    docs, diagnostics = [], []
    for n, path in enumerate(paths):
        found = []
        try:
            with open(path, "rb") as fh:
                form = parse_newsform(fh.read(), found)
        except (OSError, ValueError) as exc:
            diagnostics.append(f"skipped\t{path}\t{exc}")
            continue
        if found:
            diagnostics.append(f"skipped\t{path}\tinvalid: {found[0].path}: {found[0].message}")
        elif cls is None or any(isinstance(event, cls) for event in form.events):
            docs.append((f"d{n + 1:04d}", str(path), form))
    return docs, diagnostics


@needs_fork
@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(_BATCH_FILE, max_size=14), cpus=st.integers(2, 4),
       batch=st.sampled_from([2, 3, 64]),
       variant=st.one_of(st.none(), st.sampled_from(sorted(model.EVENT_TYPES))))
# a comment left open swallows one wrapper, and the wrapper bytes add one
@example(kinds=["open comment", "comment end", "wrapper bytes"], cpus=2, batch=64, variant=None)
def test_the_batched_read_equals_the_file_by_file_read(kinds, cpus, batch, variant):
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        paths = _write_corpus(Path(directory), kinds)
        want = _file_by_file_index(paths, variant)
        patch.setattr(xmlcodec, "_BATCH_SIZE", batch)
        for shard_min, usable in ((corpus.SHARD_MIN_FILES, 1), (1, cpus)):
            patch.setattr(corpus, "SHARD_MIN_FILES", shard_min)
            patch.setattr(shards, "_usable_cpus", lambda usable=usable: usable)
            got = build_index(paths, variant)
            assert ([(d.doc_id, d.path, d.form) for d in got.docs], got.diagnostics) == want


def test_variant_keeps_the_documents_with_that_event_under_their_ids(corpus_dir):
    every = build_index(corpus_paths(corpus_dir))
    deals = build_index(corpus_paths(corpus_dir), "Deal")
    assert deals.docs == [d for d in every.docs
                          if any(isinstance(e, model.Deal) for e in d.form.events)]
    assert deals.docs and deals.diagnostics == every.diagnostics


@needs_fork
@pytest.mark.parametrize("failure", ["exit 1", "garbled", "short", "no fork"])
def test_a_failed_child_costs_only_time(sharded, tmp_path, failure):
    parent, dumps = os.getpid(), pickle.dumps

    def bad_dump(obj, out, protocol):   # the child then exits 0
        data = dumps(obj, protocol)
        out.write(b"garbage" if failure == "garbled" else data[:len(data) // 2])

    for caller in _callers(tmp_path, [0, "invalid", 1, "missing", 2, 3, "non-utf8", 4, 5]):
        want = _serial(caller)
        module, name = caller.item
        item = getattr(module, name)

        def item_or_exit(*args, _item=item):
            if os.getpid() != parent:
                os._exit(1)
            return _item(*args)
        with pytest.MonkeyPatch.context() as patch:
            if failure == "exit 1":
                patch.setattr(module, name, item_or_exit)
            elif failure == "no fork":
                patch.setattr(os, "fork", _no_fork)
            else:
                patch.setattr(pickle, "dump", bad_dump)
            assert caller.run() == want, caller.name


@needs_fork
def test_an_unexpected_error_surfaces_as_in_a_serial_read(sharded, tmp_path):
    for caller in _callers(tmp_path, [0, 1, 2, 3]):
        module, name = caller.item
        item = getattr(module, name)

        def item_or_break(first, *rest, _item=item, _last=caller.last):
            if first == _last:
                raise RuntimeError("broken reader")
            return _item(first, *rest)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(module, name, item_or_break)
            with pytest.raises(RuntimeError, match="broken reader"):
                caller.run()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_no_child_outlives_the_call(sharded, tmp_path):
    for caller in _callers(tmp_path, [0, 1, 2, 3, 4, 5, "invalid"]):
        caller.run()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_an_error_in_the_parents_own_shard_reaps_the_children(monkeypatch):
    monkeypatch.setattr(shards, "_usable_cpus", lambda: 3)

    def first_shard_breaks(start, stop):
        if start == 0:
            raise RuntimeError("broken shard")
        return list(range(start, stop))
    with pytest.raises(RuntimeError, match="broken shard"):
        shards.run(3, 1, first_shard_breaks)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_shard_for_small_corpora_one_cpu_or_other_threads(monkeypatch):
    for minimum in (corpus.SHARD_MIN_FILES, cli.SHARD_MIN_STORIES):
        monkeypatch.setattr(shards, "_usable_cpus", lambda: 2)
        assert shards.shard_count(2 * minimum, minimum) == 2
        assert shards.shard_count(2 * minimum - 1, minimum) == 1
        monkeypatch.setattr(shards, "_usable_cpus", lambda: 1)
        assert shards.shard_count(10 * minimum, minimum) == 1
        monkeypatch.setattr(shards, "_usable_cpus", lambda: 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert shards.shard_count(2 * minimum, minimum) == 1
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        with pytest.MonkeyPatch.context() as patch:
            patch.delattr(os, "fork", raising=False)
            assert shards.shard_count(2 * minimum, minimum) == 1


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 300), cpus=st.integers(1, 9), minimum=st.integers(1, 40))
def test_shards_are_contiguous_non_empty_and_join_to_one_call(n, cpus, minimum):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards, "_usable_cpus", lambda: cpus)
        # every fork fails, so each shard runs here: no process per example
        patch.setattr(os, "fork", _no_fork)
        bounds = shards.shard_bounds(n, minimum)
        parts = shards.run(n, minimum, lambda start, stop: list(range(start, stop)))
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    assert all(stop == start for (_, stop), (start, _) in zip(bounds, bounds[1:]))
    assert all(start < stop for start, stop in bounds) or bounds == [(0, 0)]
    assert len(bounds) == max(1, min(cpus, n // minimum))
    assert [x for part in parts for x in part] == list(range(n))


# ---------------------------------------------------------------------------
# Queries

@pytest.fixture(scope="module")
def index(corpus_dir):
    return build_index(corpus_paths(corpus_dir))


def doc_id_of(index, stem):
    return next(d.doc_id for d in index.docs if stem in d.path)


def test_target_ticker_excludes_acquirer_side(index):
    ids = query(index, parse_query("Deal.Target.Ticker = BEL"))
    assert ids == [doc_id_of(index, "target-bel")]


def test_negative_earnings_reports(index):
    ids = query(index, parse_query("Earnings.GoodBad = Bad"))
    assert ids == [doc_id_of(index, "acquirer-bel")]


def test_fed_raising_rates(index):
    ids = query(index, parse_query("FedWatch.FedAction = Raise"))
    assert ids == [doc_id_of(index, "fed")]


def test_sort_by_killed_count_desc(index):
    ids = query(index, parse_query(
        "InjuryFatality.KilledCount >= 0 sort InjuryFatality.KilledCount desc"))
    assert ids == [doc_id_of(index, "quake"), doc_id_of(index, "storm")]


def test_bare_variant_matches_every_doc_with_that_event(index):
    ids = query(index, parse_query("NewProduct"))
    assert ids == [doc_id_of(index, "products")]


def test_conjunction_binds_one_event(index):
    # acquirer-bel has a Deal with Target ATI and an Earnings event; a deal
    # with status Agreed AND target ATI exists in no single event record
    ids = query(index, parse_query(
        "Deal.Target.Ticker = ATI and Deal.DealStatus = Agreed"))
    assert ids == []
    ids = query(index, parse_query(
        "Deal.Target.Ticker = ATI and Deal.DealStatus = InTalks"))
    assert ids == [doc_id_of(index, "acquirer-bel")]


def test_money_comparison(index):
    ids = query(index, parse_query("Deal.DealValue > USD:1000000"))
    assert ids == [doc_id_of(index, "target-bel")]


def test_cross_currency_comparison_is_an_error(index):
    with pytest.raises(QueryError):
        query(index, parse_query("Deal.DealValue > GBP:1"))


def test_contains_operator(index):
    ids = query(index, parse_query("NewProduct.Item contains walkman"))
    assert ids == [doc_id_of(index, "products")]


def test_time_window(index):
    ids = query(index, parse_query(
        "Deal since 19990126T000000Z until 19990126T120000Z"))
    assert ids == [doc_id_of(index, "target-bel")]


def test_unknown_path_is_a_query_error(index):
    with pytest.raises(QueryError) as info:
        parse_query("Deal.Bogus = x")
    assert "Bogus" in str(info.value)


@pytest.mark.parametrize("text, message, position", [
    ("Deal sort", "sort needs a field path", 5),
    ("Deal sort Deal", "sort path needs a field", 10),
    ("Deal sort Deal.Bogus", "unknown field path 'Deal.Bogus'", 10),
    ("Deal sort Deal.Target.FullName",
     "sort field 'Deal.Target.FullName' is not numeric, date, or money", 10),
    ("Deal since", "since needs a timestamp", 5),
    ("Deal until", "until needs a timestamp", 5),
    ("since 19990101T000000Z", "query names no event type", 0),
])
def test_query_errors_carry_their_position(text, message, position):
    with pytest.raises(QueryError) as info:
        parse_query(text)
    assert (str(info.value), info.value.position) == (message, position)


@pytest.mark.parametrize("directory, cwd", [
    ("c", "."), ("./c", "."), ("c//", "."), ("./c/", "."), (".", "c"), ("", "c"),
])
def test_corpus_paths_equal_sorted_glob(tmp_path, monkeypatch, directory, cwd):
    c = tmp_path / "c"
    c.mkdir()
    for name in ("b.newsform.xml", "a.newsform.xml", "B.newsform.xml", "Z.newsform.xml",
                 "a b.newsform.xml", "é.newsform.xml", ".hidden.newsform.xml",
                 ".newsform.xml", "x.NEWSFORM.XML", "a.Newsform.xml", "newsform.xml",
                 "a.newsform.xml.bak", ".a.newsform.xml~"):
        (c / name).write_text("")
    (c / "sub.newsform.xml").mkdir()
    (c / "sub.newsform.xml" / "inner.newsform.xml").write_text("")
    monkeypatch.chdir(tmp_path / cwd)
    expected = [str(p) for p in sorted(Path(directory).glob("*.newsform.xml"))]
    listed = corpus_paths(directory)
    assert listed == expected
    assert [Path(p).name for p in listed] == [
        ".hidden.newsform.xml", ".newsform.xml", "B.newsform.xml", "Z.newsform.xml",
        "a b.newsform.xml", "a.newsform.xml", "b.newsform.xml", "sub.newsform.xml",
        "é.newsform.xml"]


def test_corpus_paths_of_a_file_or_a_missing_path_list_nothing(tmp_path):
    (tmp_path / "a.newsform.xml").write_text("")
    assert corpus_paths(tmp_path / "a.newsform.xml") == []
    assert corpus_paths(tmp_path / "nowhere") == []


@pytest.mark.parametrize("literal", ["USD:١٢", "USD:１２", "USD:1.٥"])
def test_money_literal_takes_ascii_digits_only(literal):
    with pytest.raises(QueryError):
        parse_query(f"Deal.DealValue = {literal}")


def test_order_operator_on_text_field_is_an_error():
    with pytest.raises(QueryError):
        parse_query("Deal.Target.FullName > abc")


def test_unknown_event_type_is_an_error():
    with pytest.raises(QueryError):
        parse_query("Scandal.Field = 1")


def test_mixed_variants_in_one_query_are_an_error():
    with pytest.raises(QueryError):
        parse_query("Deal.Stake = 1 and Earnings.GoodBad = Bad")


def test_sort_stability_preserves_doc_order(tmp_path):
    base = fixture_documents()["quake"]
    for n in range(4):
        (tmp_path / f"c{n}.newsform.xml").write_text(serialize_newsform(base))
    index = build_index(corpus_paths(tmp_path))
    ids = query(index, parse_query(
        "InjuryFatality sort InjuryFatality.KilledCount asc"))
    assert ids == ["d0001", "d0002", "d0003", "d0004"]


def _write_docs(directory, events):
    for n, event in enumerate(events):
        (directory / f"c{n}.newsform.xml").write_text(
            serialize_newsform(NewsForm(events=(event,))))
    return build_index(corpus_paths(directory))


def test_sort_orders_exact_values_and_keeps_doc_order_for_ties(tmp_path):
    # as floats all three stakes are 1.0 and would stay in doc order
    index = _write_docs(tmp_path, [
        model.Deal(stake=Decimal("1.00000000000000000001")),
        model.Deal(stake=Decimal("1.00000000000000000002")),
        model.Deal(),
        model.Deal(stake=Decimal("1.00000000000000000002")),
    ])
    assert query(index, parse_query("Deal sort Deal.Stake desc")) == \
        ["d0002", "d0004", "d0001", "d0003"]
    assert query(index, parse_query("Deal sort Deal.Stake asc")) == \
        ["d0001", "d0002", "d0004", "d0003"]


def test_sort_on_large_ints_is_exact(tmp_path):
    index = _write_docs(tmp_path, [model.IPO(shares=2**53 + 1), model.IPO(shares=2**53)])
    assert query(index, parse_query("IPO sort IPO.Shares asc")) == ["d0002", "d0001"]


def test_numbers_beyond_28_digits_post_and_display_exactly(tmp_path):
    big = 123456789012345678901234567890
    index = _write_docs(tmp_path, [model.IPO(shares=big), model.IPO(shares=big + 1)])
    hits = corpus.evaluate_query(index, parse_query("IPO sort IPO.Shares desc"))
    assert [(h.doc_id, h.sort_value) for h in hits] == [("d0002", str(big + 1)),
                                                        ("d0001", str(big))]
    assert query(index, parse_query(f"IPO.Shares = {big}")) == ["d0001"]
    assert query(index, parse_query(f"IPO.Shares = {big + 1}")) == ["d0002"]


@pytest.mark.parametrize("text", [
    "Deal.Stake < NaN", "Deal.Stake = sNaN", "IPO.Shares > nan",
    "Deal.DealValue.Amount >= -NaN", 'Deal.Stake != "NaN"',
])
def test_nan_literal_on_a_numeric_field_is_a_query_error(text):
    with pytest.raises(QueryError):
        parse_query(text)


@pytest.mark.parametrize("literal", ["١٤٣", "１４３", "abc", "1e", "Infinity", "-Infinity"])
@pytest.mark.parametrize("op", ["=", "!=", "<", "contains"])
def test_a_numeric_literal_must_be_a_finite_ascii_number(op, literal):
    text = f"InjuryFatality.KilledCount {op} {literal}"
    with pytest.raises(QueryError, match="is not a number") as info:
        parse_query(text)
    assert info.value.position == text.rindex(literal)


@pytest.mark.parametrize("text, value, literal", [
    ("InjuryFatality.KilledCount > 1e1", "1e1", Decimal("1e1")),
    ("Deal.DealValue >= USD:1000000", "USD:1000000", Money(Decimal("1000000"), "USD")),
    ("Deal.DealValue contains USD:1", "USD:1", "USD:1"),
    ('InjuryFatality.Source.Function = "Civil Defense Official"', "Civil Defense Official",
     "Civil Defense Official"),
], ids=["number", "money", "money-contains", "text"])
def test_a_numeric_literal_is_read_once_at_parse_time(text, value, literal):
    # the operand each event is compared with: a number, a money value, or text
    pred, = parse_query(text).predicates
    assert pred.value == value
    assert type(pred.literal) is type(literal) and pred.literal == literal


@pytest.mark.parametrize("path, literal", [
    ("KilledCount", "-0"), ("KilledCount", "-0.00"), ("KilledCount", "+5"),
    ("KilledCount", "5.0"), ("KilledCount", "5E0"),
    ("AtLocation.Latitude", "0"), ("AtLocation.Latitude", "-0"),
    ("AtLocation.Latitude", "5"),
])
def test_numeric_equality_is_decimal_equality(tmp_path, path, literal):
    # zero and negative zero are equal numbers with different canonical text
    index = _write_docs(tmp_path, [
        model.InjuryFatality(killed_count=0,
                             at_location=model.Location(latitude=Decimal("-0.00"))),
        model.InjuryFatality(killed_count=5,
                             at_location=model.Location(latitude=Decimal("5.0"))),
        model.InjuryFatality(killed_count=50),
    ])
    docs = [(d.doc_id, d.form) for d in index.docs]
    expected = oracle_query(docs, "InjuryFatality", [(path, "=", literal)])
    assert expected
    assert query(index, parse_query(f"InjuryFatality.{path} = {literal}")) == expected


def test_literal_beyond_the_decimal_range_matches_nothing(index):
    assert query(index, parse_query("InjuryFatality.KilledCount = 1e999999999")) == []


_QUERY_OPS = ["=", "!=", "<", "<=", ">", ">=", "contains"]
_QUERY_LITERALS = ["NaN", "sNaN", "-Infinity", "1e999999999", "1e-999999999", "0.5",
                   "143", "900", "4.29", "-75.68", "1e1", "5.25", "USD:1", "JPY:5000", "19990125T181917Z", '"a b"', '"',
                   "BEL", "Bad", "COL", '"75 mph"']
_QUERY_WORDS = sorted(model.EVENT_TYPES) + _QUERY_OPS + _QUERY_LITERALS + [
    "and", "AND", "sort", "asc", "desc", "since", "until", "DatelineTime"]
_QUERY_PATHS = sorted(f"{variant}.{path}" for variant, cls in model.EVENT_TYPES.items()
                      for path in schema_paths(cls))
# paths the fixture corpus populates, so that predicates reach the comparisons
_POPULATED_PATHS = sorted({
    f"{model.ELEMENT_OF_EVENT[type(event)]}.{path}"
    for doc in fixture_documents().values() for event in doc.events
    for path in schema_paths(type(event))
    if model.values_at(event, model.resolve_path(type(event), path))})
_PREDICATE = st.builds("{} {} {}".format, st.sampled_from(_POPULATED_PATHS),
                       st.sampled_from(_QUERY_OPS),
                       st.one_of(st.sampled_from(_QUERY_LITERALS), st.text(max_size=6)))
_QUERY_TEXT = st.one_of(
    st.text(),
    _PREDICATE,
    st.lists(st.one_of(_PREDICATE, st.sampled_from(_QUERY_WORDS),
                       st.sampled_from(_QUERY_PATHS), st.text(max_size=6)),
             max_size=6).map(" ".join),
)


@settings(max_examples=300, deadline=None)
@given(text=_QUERY_TEXT)
def test_any_query_text_returns_or_raises_query_error(index, text):
    try:
        corpus.evaluate_query(index, parse_query(text))
    except QueryError:
        pass


def test_every_accepted_single_predicate_matches_oracle(index):
    docs = [(d.doc_id, d.form) for d in index.docs]
    checked = 0
    for path in _POPULATED_PATHS:
        variant, rel = path.split(".", 1)
        for op in _QUERY_OPS:
            for literal in _QUERY_LITERALS:
                text = f"{path} {op} {literal}"
                try:
                    expr = parse_query(text)
                except QueryError:
                    continue
                predicates = [(rel, op, expr.predicates[0].value)]
                try:
                    got = query(index, expr)
                except QueryError:
                    with pytest.raises(QueryError):
                        oracle_query(docs, variant, predicates)
                else:
                    assert got == oracle_query(docs, variant, predicates), text
                checked += 1
    assert checked >= 2800


def test_predicate_on_a_record_path_is_a_query_error():
    for text in ("Deal.Target contains Organization", "Deal.Target != x",
                 "InjuryFatality.AtLocation contains COL", "InjuryFatality.Killed = x",
                 "Succession.Source = x"):
        with pytest.raises(QueryError) as info:
            parse_query(text)
        assert info.value.position == 0
    for text in ("Deal.DealValue contains USD", "Weather.WindSpeed contains mph",
                 "Deal.Target.Ticker = BEL"):
        parse_query(text)


# ---------------------------------------------------------------------------
# Generated query suite vs oracle

def _leaf_paths(variant):
    cls = model.EVENT_TYPES[variant]
    paths = []

    def walk(owner, prefix, depth):
        for spec in model.specs_for(owner):
            path = f"{prefix}.{spec.element}" if prefix else spec.element
            if spec.kind in model.LEAF_KINDS:
                paths.append((path, spec))
            elif spec.kind is FieldKind.MONEY:
                paths.append((path, spec))
            elif spec.kind in (FieldKind.PERSON, FieldKind.ORGANIZATION,
                               FieldKind.LOCATION) and depth < 2:
                walk({FieldKind.PERSON: model.Person,
                      FieldKind.ORGANIZATION: model.Organization,
                      FieldKind.LOCATION: model.Location}[spec.kind],
                     path, depth + 1)
            elif spec.kind in (FieldKind.PERSON_LIST, FieldKind.ORG_LIST) and depth < 2:
                walk(model.Person if spec.kind is FieldKind.PERSON_LIST
                     else model.Organization, path, depth + 1)
        return paths

    return walk(cls, "", 0)


def _corpus_tokens(docs, variant, path):
    cls = model.EVENT_TYPES[variant]
    tokens = []
    for _, form in docs:
        for event in form.events:
            if not isinstance(event, cls):
                continue
            for p, spec, value in _walk_leaves(event, cls, ""):
                if p != path:
                    continue
                if isinstance(value, Money):
                    tokens.append(
                        f"{value.currency}:{format(value.amount.normalize(), 'f')}")
                elif isinstance(value, (int, Decimal)):
                    tokens.append(format(Decimal(value).normalize(), "f"))
                else:
                    tokens.append(model.leaf_token(spec, value))
    return tokens


def test_generated_query_suite_matches_oracle(index, corpus_dir):
    docs = [(d.doc_id, d.form) for d in index.docs]
    rng = random.Random(19990125)
    operators = ["=", "!=", "<", "<=", ">", ">=", "contains"]
    ran = 0
    for variant in model.EVENT_TYPES:
        leaf_paths = _leaf_paths(variant)
        for op in operators:
            candidates = [(p, s) for p, s in leaf_paths
                          if op == "contains"
                          or op in ("=", "!=")
                          or s.kind in (FieldKind.INT, FieldKind.DECIMAL,
                                        FieldKind.TIMESTAMP, FieldKind.MONEY)]
            if not candidates:
                continue
            for _ in range(2):
                path, spec = rng.choice(candidates)
                tokens = _corpus_tokens(docs, variant, path)
                if tokens and rng.random() < 0.7:
                    literal = rng.choice(tokens)
                elif spec.kind is FieldKind.MONEY:
                    literal = f"USD:{rng.randrange(1, 10 ** 9)}"
                elif spec.kind in (FieldKind.INT, FieldKind.DECIMAL):
                    literal = str(rng.randrange(0, 1000))
                elif spec.kind is FieldKind.TIMESTAMP:
                    literal = "19990127T000000Z"
                else:
                    literal = rng.choice(["BEL", "Released", "Senate", "zzz"])
                if spec.kind is FieldKind.MONEY and ":" not in literal:
                    literal = f"USD:{literal}"
                if " " in literal:
                    continue
                text = f"{variant}.{path} {op} {literal}"
                sort = None
                descending = False
                sortable = [(p, s) for p, s in leaf_paths
                            if s.kind in (FieldKind.INT, FieldKind.DECIMAL,
                                          FieldKind.MONEY, FieldKind.TIMESTAMP)]
                if sortable and rng.random() < 0.4:
                    sort, _ = rng.choice(sortable)
                    descending = rng.random() < 0.5
                    text += f" sort {variant}.{sort} {'desc' if descending else 'asc'}"
                expr = parse_query(text)
                try:
                    engine = query(index, expr)
                except QueryError:
                    with pytest.raises(QueryError):
                        oracle_query(docs, variant, [(path, op, literal)],
                                     sort, descending)
                    ran += 1
                    continue
                expected = oracle_query(docs, variant, [(path, op, literal)],
                                        sort, descending)
                assert engine == expected, text
                ran += 1
    assert ran >= 200


def test_two_predicate_queries_match_oracle(index):
    docs = [(d.doc_id, d.form) for d in index.docs]
    rng = random.Random(7)
    checked = 0
    for variant in ("Deal", "InjuryFatality", "NewProduct", "Weather", "Vote"):
        leaf_paths = [(p, s) for p, s in _leaf_paths(variant)
                      if s.kind not in (FieldKind.MONEY,)]
        for _ in range(20):
            picks = rng.sample(leaf_paths, 2)
            predicates = []
            parts = []
            for path, spec in picks:
                tokens = _corpus_tokens(docs, variant, path)
                literal = rng.choice(tokens) if tokens and rng.random() < 0.8 \
                    else "29"
                if " " in literal:
                    literal = "29"
                predicates.append((path, "=", literal))
                parts.append(f"{variant}.{path} = {literal}")
            expr = parse_query(" and ".join(parts))
            assert query(index, expr) == oracle_query(docs, variant, predicates)
            checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# Stats

def test_stats_empty_index():
    assert stats(build_index([]), "NewProduct", Bucket.DAY).buckets == ()


def test_three_products_one_day(index):
    result = stats(index, "NewProduct", Bucket.DAY)
    assert result.buckets == ((datetime(1999, 1, 27, tzinfo=timezone.utc), 3),)
    assert result.undated == 0


def test_injury_per_day_counts_fill_gaps(index):
    result = stats(index, "InjuryFatality", Bucket.DAY)
    days = [(start.day, count) for start, count in result.buckets]
    assert days == [(25, 1), (26, 0), (27, 0), (28, 0), (29, 0), (30, 1)]


def test_week_buckets_start_on_monday(index):
    result = stats(index, "Deal", Bucket.WEEK)
    assert len(result.buckets) == 1
    start, count = result.buckets[0]
    assert start.weekday() == 0
    assert count == 2


def test_undated_documents_reported_separately(tmp_path):
    doc = NewsForm(events=fixture_documents()["products"].events)
    (tmp_path / "undated.newsform.xml").write_text(serialize_newsform(doc))
    index = build_index(corpus_paths(tmp_path))
    result = stats(index, "NewProduct", Bucket.DAY)
    assert result.buckets == ()
    assert result.undated == 3


# ---------------------------------------------------------------------------
# Geographic distribution

def test_quake_geo_distribution(tmp_path):
    (tmp_path / "quake.newsform.xml").write_text(
        serialize_newsform(fixture_documents()["quake"]))
    index = build_index(corpus_paths(tmp_path))
    dist = geo_distribution(index, parse_query("InjuryFatality"))
    assert dist.per_country == (("COL", (0, 1, 0)),)
    assert dist.unlocated == (0, 0, 0)


def test_empty_result_set_gives_empty_distribution(index):
    dist = geo_distribution(index, parse_query("MedicalFinding"))
    assert dist.per_country == ()
    assert dist.unlocated == (0, 0, 0)


def test_fixture_geo_matches_hand_tally(index):
    dist = geo_distribution(index, parse_query("InjuryFatality"))
    assert dict(dist.per_country) == {"COL": (0, 1, 0), "BHS": (0, 1, 0)}
    vote = geo_distribution(index, parse_query("Vote"))
    # the vote event's only country comes from the signer
    assert dict(vote.per_country) == {"USA": (0, 0, 1)}


def test_geo_conservation_on_randomized_corpora(tmp_path, generator):
    directory = tmp_path / "random"
    directory.mkdir()
    for n in range(30):
        doc = generator.document()
        (directory / f"g{n:03d}.newsform.xml").write_text(serialize_newsform(doc))
    index = build_index(corpus_paths(directory))
    for variant in model.EVENT_TYPES:
        expr = parse_query(variant)
        dist = geo_distribution(index, expr)
        cls = model.EVENT_TYPES[variant]
        matched = sum(1 for d in index.docs for e in d.form.events
                      if isinstance(e, cls))
        assert dist.total() == matched, variant


def test_three_product_docs_one_day(tmp_path):
    base = fixture_documents()["products"]
    single = NewsForm(head=base.head, events=base.events[:1])
    for n in range(3):
        (tmp_path / f"p{n}.newsform.xml").write_text(serialize_newsform(single))
    index = build_index(corpus_paths(tmp_path))
    result = stats(index, "NewProduct", Bucket.DAY)
    assert result.buckets == ((datetime(1999, 1, 27, tzinfo=timezone.utc), 3),)


def test_week_buckets_fill_gaps_across_months(tmp_path):
    def doc_on(day):
        return NewsForm(
            head=fixture_documents()["products"].head.__class__(
                datetime(1999, 1, day, 12, tzinfo=timezone.utc)),
            events=fixture_documents()["products"].events[:1])
    (tmp_path / "a.newsform.xml").write_text(serialize_newsform(doc_on(4)))
    (tmp_path / "b.newsform.xml").write_text(serialize_newsform(doc_on(25)))
    index = build_index(corpus_paths(tmp_path))
    result = stats(index, "NewProduct", Bucket.WEEK)
    counts = [c for _, c in result.buckets]
    assert counts == [1, 0, 0, 1]
    assert all(start.weekday() == 0 for start, _ in result.buckets)


def test_time_window_excludes_undated_docs(tmp_path):
    dated = fixture_documents()["quake"]
    undated = NewsForm(events=dated.events)
    (tmp_path / "dated.newsform.xml").write_text(serialize_newsform(dated))
    (tmp_path / "undated.newsform.xml").write_text(serialize_newsform(undated))
    index = build_index(corpus_paths(tmp_path))
    all_docs = query(index, parse_query("InjuryFatality"))
    assert len(all_docs) == 2
    windowed = query(index, parse_query("InjuryFatality since 19990101T000000Z"))
    assert len(windowed) == 1


def test_oracle_equivalence_on_randomized_corpus(tmp_path, generator):
    directory = tmp_path / "big"
    directory.mkdir()
    for n in range(150):
        doc = generator.document()
        (directory / f"doc{n:04d}.newsform.xml").write_text(
            serialize_newsform(doc))
    index = build_index(corpus_paths(directory))
    docs = [(d.doc_id, d.form) for d in index.docs]
    rng = random.Random(31337)
    checked = 0
    variants = list(model.EVENT_TYPES)
    while checked < 150:
        variant = rng.choice(variants)
        paths = _leaf_paths(variant)
        path, spec = rng.choice(paths)
        tokens = _corpus_tokens(docs, variant, path)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">=", "contains"])
        if op in ("<", "<=", ">", ">=") and spec.kind not in (
                FieldKind.INT, FieldKind.DECIMAL, FieldKind.TIMESTAMP,
                FieldKind.MONEY):
            continue
        if tokens and rng.random() < 0.8:
            literal = rng.choice(tokens)
        elif spec.kind in (FieldKind.INT, FieldKind.DECIMAL):
            literal = str(rng.randrange(-100, 5000))
        elif spec.kind is FieldKind.MONEY:
            literal = f"USD:{rng.randrange(1, 10 ** 6)}"
        else:
            literal = "Tok55"
        if " " in literal:
            continue
        expr = parse_query(f"{variant}.{path} {op} {literal}")
        try:
            got = query(index, expr)
        except QueryError:
            with pytest.raises(QueryError):
                oracle_query(docs, variant, [(path, op, literal)])
            checked += 1
            continue
        assert got == oracle_query(docs, variant, [(path, op, literal)]), \
            f"{variant}.{path} {op} {literal}"
        checked += 1


def test_measure_fields_query_by_canonical_text(index):
    ids = query(index, parse_query('Weather.WindSpeed = "140 mph"'))
    assert ids == [doc_id_of(index, "storm")]
    assert query(index, parse_query('Weather.WindSpeed contains mph')) == ids
