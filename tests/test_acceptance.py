"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v``; the terminal summary
prints one PASS/FAIL line per criterion. Tolerances are exact matches and
the stated wall-clock budgets (extraction under 1 s, the generated query
suite under 5 s).
"""

import random
import time
from datetime import datetime, timezone
from decimal import Decimal

import pytest

from newsforms import corpus, model
from newsforms.model import FieldKind, NewsForm, Person, validate
from newsforms.pipeline import analyze
from newsforms.rules import apply_commonsense, apply_patterns, compile_rules, extract
from newsforms.vocab import Cause, FedAction, InterestRateName, Judgment
from newsforms.xmlcodec import parse_newsform, serialize_newsform

from conftest import INTRO_TEXT, JOSPIN_TEXT, EARTHQUAKE_XML
from test_corpus import _corpus_tokens, _leaf_paths, oracle_query
from test_vocab import TRANSCRIBED


def test_earthquake_end_to_end(lexicons, rules, kb):
    started = time.perf_counter()
    result = extract(INTRO_TEXT, lexicons, rules, kb)
    elapsed = time.perf_counter() - started
    events = result.document.events
    assert len(events) == 1
    event = events[0]
    assert isinstance(event, model.InjuryFatality)
    assert event.cause is Cause.EARTHQUAKE
    assert event.killed_count == 143
    assert event.injured_count == 900
    assert event.at_location.country == "COL"
    # the shipped gazetteer supplies a country centroid and the source title
    assert event.at_location.latitude == Decimal("4.57")
    assert event.at_location.longitude == Decimal("-74.30")
    assert event.source == Person(function="Civil Defense Official")
    assert validate(result.document).ok
    assert elapsed < 1.0, f"extraction took {elapsed:.3f}s"


def test_fedwatch_golden(lexicons, rules, kb):
    text = "The Federal Reserve raised its federal funds target to 5.25 percent."
    result = extract(text, lexicons, rules, kb)
    assert result.document.events == (model.FedWatch(
        fed_action=FedAction.RAISE,
        interest_rate=InterestRateName.FEDERAL_FUNDS_TARGET,
        rate=Decimal("5.25"),
    ),)


def test_codec_round_trip(generator):
    # the worked example reserializes byte-identically
    assert serialize_newsform(parse_newsform(EARTHQUAKE_XML)) == EARTHQUAKE_XML
    # one hundred generated valid documents round-trip structurally equal
    failures = 0
    for _ in range(100):
        doc = generator.document()
        text = serialize_newsform(doc)
        if parse_newsform(text) != doc:
            failures += 1
        if serialize_newsform(parse_newsform(text)) != text:
            failures += 1
    assert failures == 0


def test_vocabulary_closure():
    failures = []
    for name, cls in model.EVENT_TYPES.items():
        for spec in model.specs_for(cls):
            if spec.kind is not FieldKind.ENUM:
                continue
            tokens = TRANSCRIBED[spec.enum]
            for token in tokens:
                doc = NewsForm(events=(cls(**{spec.attr: token}),))
                if not validate(doc).ok:
                    failures.append(f"{name}.{spec.element}={token} rejected")
            mutated = tokens[0] + "X"
            doc = NewsForm(events=(cls(**{spec.attr: mutated}),))
            if validate(doc).ok:
                failures.append(f"{name}.{spec.element}={mutated} accepted")
    assert failures == []


def test_coreference_golden(lexicons):
    parses = analyze(JOSPIN_TEXT, lexicons)
    wanted = {"Prime Minister Lionel Jospin", "Jospin", "he"}
    ids = {}
    for parse in parses:
        for mention in parse.mentions:
            text = parse.mention_text(mention)
            if text in wanted:
                ids[text] = mention.resolved_id
    assert set(ids) == wanted
    assert len(set(ids.values())) == 1


def test_disambiguation_golden(lexicons):
    rule = compile_rules(
        "?Person was injured => "
        "<InjuryFatality><Injured>?Person</Injured></InjuryFatality>")
    parses = analyze("Al Khartum was injured", lexicons)
    mention = parses[0].mentions[0]
    kinds = {r.kind.value for r in mention.readings}
    assert kinds == {"Person", "Location"}  # both readings enter the stage
    fragments = apply_patterns(parses, rule, [])
    assert len(fragments) == 1
    event = fragments[0].event
    assert event.injured == (Person(given="Al", family="Khartum", sex="Male"),)
    assert event.at_location is None  # the Sudan-city reading was discarded


def test_commonsense_rules(kb):
    sentenced = model.LegalEvent(judgment="Innocent", sentence_type="Jail")
    events, diagnostics = apply_commonsense([sentenced], kb)
    assert events == [model.LegalEvent(judgment=Judgment.INNOCENT)]
    assert [d.action for d in diagnostics] == ["DropField"]

    mismatched = model.Competition(
        sport="Baseball",
        team=model.Organization(full_name="Packers", sport="Football"))
    events, diagnostics = apply_commonsense([mismatched], kb)
    assert events == []
    assert [d.action for d in diagnostics] == ["RejectFragment"]

    valid = model.InjuryFatality(cause="Earthquake", killed_count=143)
    events, diagnostics = apply_commonsense([valid], kb)
    assert events == [valid]
    assert diagnostics == []

    once, _ = apply_commonsense([sentenced, mismatched, valid], kb)
    twice, second_diags = apply_commonsense(once, kb)
    assert once == twice
    assert second_diags == []


def test_query_oracle(corpus_dir):
    started = time.perf_counter()
    index = corpus.build_index(corpus.corpus_paths(corpus_dir))
    docs = [(d.doc_id, d.form) for d in index.docs]
    assert len(docs) == 6

    # the worked query: target-side only, acquirer-side excluded
    bel = corpus.query(index, corpus.parse_query("Deal.Target.Ticker = BEL"))
    assert [index.doc(i).path for i in bel] == [
        d.path for d in index.docs if "target-bel" in d.path]
    assert bel == oracle_query(docs, "Deal", [("Target.Ticker", "=", "BEL")])

    # sort by KilledCount against the oracle ordering
    sorted_ids = corpus.query(index, corpus.parse_query(
        "InjuryFatality sort InjuryFatality.KilledCount desc"))
    assert sorted_ids == oracle_query(docs, "InjuryFatality", [],
                                      sort="KilledCount", descending=True)

    rng = random.Random(42)
    operators = ("=", "!=", "<", "<=", ">", ">=", "contains")
    ran = 0
    for variant in model.EVENT_TYPES:
        paths = _leaf_paths(variant)
        for op in operators:
            usable = [(p, s) for p, s in paths
                      if op in ("=", "!=", "contains")
                      or s.kind in (FieldKind.INT, FieldKind.DECIMAL,
                                    FieldKind.TIMESTAMP, FieldKind.MONEY)]
            if not usable:
                continue
            for _ in range(2):
                path, spec = rng.choice(usable)
                tokens = _corpus_tokens(docs, variant, path)
                if tokens and rng.random() < 0.75:
                    literal = rng.choice(tokens)
                elif spec.kind is FieldKind.MONEY:
                    literal = f"USD:{rng.randrange(1, 10 ** 8)}"
                elif spec.kind in (FieldKind.INT, FieldKind.DECIMAL):
                    literal = str(rng.randrange(0, 500))
                elif spec.kind is FieldKind.TIMESTAMP:
                    literal = "19990126T000000Z"
                else:
                    literal = rng.choice(["BEL", "COL", "Hurricane", "qqq"])
                if spec.kind is FieldKind.MONEY and ":" not in literal:
                    literal = f"USD:{literal}"
                if " " in literal:
                    continue
                expr = corpus.parse_query(f"{variant}.{path} {op} {literal}")
                try:
                    got = corpus.query(index, expr)
                except corpus.QueryError:
                    with pytest.raises(corpus.QueryError):
                        oracle_query(docs, variant, [(path, op, literal)])
                    ran += 1
                    continue
                want = oracle_query(docs, variant, [(path, op, literal)])
                assert got == want, f"{variant}.{path} {op} {literal}"
                ran += 1
    elapsed = time.perf_counter() - started
    assert ran >= 200, f"only {ran} generated queries"
    assert elapsed < 5.0, f"query suite took {elapsed:.3f}s"


def test_stats_and_geo(corpus_dir, tmp_path, generator):
    index = corpus.build_index(corpus.corpus_paths(corpus_dir))

    # hand tally: the products document carries three NewProduct events
    # datelined 1999-01-27; no other document has any
    result = corpus.stats(index, "NewProduct", corpus.Bucket.DAY)
    assert result.buckets == ((datetime(1999, 1, 27, tzinfo=timezone.utc), 3),)
    assert result.undated == 0

    # hand tally of the geo table for injury events: quake in COL,
    # storm fatalities in BHS, both negative
    dist = corpus.geo_distribution(index, corpus.parse_query("InjuryFatality"))
    assert dict(dist.per_country) == {"COL": (0, 1, 0), "BHS": (0, 1, 0)}
    assert dist.unlocated == (0, 0, 0)

    # conservation on a randomized corpus: located + unlocated = matched
    directory = tmp_path / "random"
    directory.mkdir()
    for n in range(40):
        doc = generator.document()
        (directory / f"r{n:03d}.newsform.xml").write_text(serialize_newsform(doc))
    random_index = corpus.build_index(corpus.corpus_paths(directory))
    for variant, cls in model.EVENT_TYPES.items():
        dist = corpus.geo_distribution(random_index, corpus.parse_query(variant))
        matched = sum(1 for d in random_index.docs
                      for e in d.form.events if isinstance(e, cls))
        assert dist.total() == matched, variant
