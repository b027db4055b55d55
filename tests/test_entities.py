"""Entity identification and reference resolution."""

import dataclasses
import time
from collections import Counter
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from newsforms.lexicons import load_lexicon, load_lexicon_set
from newsforms.model import Location, Measure, Money, Person
from newsforms.pipeline import (
    analyze,
    chunk_noun_groups,
    dump_parses,
    entities,
    split_sentences,
    tag_pos,
)
from newsforms.pipeline.types import Pos, ReadingKind
from newsforms.rules import extract
from newsforms.vocab import Continent

from conftest import INTRO_TEXT, JOSPIN_TEXT


def flat_mentions(parses):
    out = []
    for parse in parses:
        for mention in parse.mentions:
            out.append((parse, mention))
    return out


def mention_by_text(parses, text):
    for parse, mention in flat_mentions(parses):
        if parse.mention_text(mention) == text:
            return parse, mention
    raise AssertionError(f"no mention {text!r}")


def test_title_given_family_compose_one_person(lexicons):
    parses = analyze("Prime Minister Lionel Jospin spoke.", lexicons)
    _, mention = mention_by_text(parses, "Prime Minister Lionel Jospin")
    person = mention.readings[0].value
    assert person == Person(function="Prime Minister", given="Lionel",
                            family="Jospin", sex="Male")


def test_money_with_magnitude(lexicons):
    parses = analyze("The deal is worth $2 million.", lexicons)
    _, mention = mention_by_text(parses, "$ 2 million")
    reading = mention.readings[0]
    assert reading.kind is ReadingKind.MONEY
    assert reading.value == Money(Decimal("2000000"), "USD")


def test_new_york_keeps_at_least_three_readings(lexicons):
    parses = analyze("New York celebrated.", lexicons)
    _, mention = mention_by_text(parses, "New York")
    kinds = [r.kind for r in mention.readings]
    assert len(mention.readings) >= 3
    assert kinds.count(ReadingKind.LOCATION) >= 2  # city and state
    assert ReadingKind.ORGANIZATION in kinds      # the teams


def test_ambiguous_al_khartum_keeps_both_readings(lexicons):
    parses = analyze("Al Khartum was injured.", lexicons)
    _, mention = mention_by_text(parses, "Al Khartum")
    kinds = {r.kind for r in mention.readings}
    assert kinds == {ReadingKind.PERSON, ReadingKind.LOCATION}
    location = next(r.value for r in mention.readings
                    if r.kind is ReadingKind.LOCATION)
    assert location.country == "SDN"


def test_country_reading_carries_centroid(lexicons):
    parses = analyze("An earthquake struck western Colombia.", lexicons)
    _, mention = mention_by_text(parses, "Colombia")
    location = mention.readings[0].value
    assert location == Location(country="COL", latitude=Decimal("4.57"),
                                longitude=Decimal("-74.30"))


def test_number_words_and_measures(lexicons):
    cases = {
        "five thousand": (ReadingKind.NUMBER, Decimal(5000)),
        "5,000": (ReadingKind.NUMBER, Decimal(5000)),
        "twenty five": (ReadingKind.NUMBER, Decimal(25)),
        "5.25 percent": (ReadingKind.PERCENT, Decimal("5.25")),
    }
    for text, (kind, value) in cases.items():
        parses = analyze(f"They counted {text} today.", lexicons)
        found = [m.readings[0] for p in parses for m in p.mentions
                 if m.readings[0].kind is kind]
        assert found, text
        assert found[0].value == value, text


def test_measure_units_select_reading_kind(lexicons):
    parses = analyze("It took three hours to go 4 miles at 60 mph in 90 degrees.",
                     lexicons)
    kinds = {m.readings[0].kind for p in parses for m in p.mentions}
    assert {ReadingKind.DURATION, ReadingKind.DISTANCE, ReadingKind.SPEED,
            ReadingKind.TEMPERATURE} <= kinds


def test_range_takes_first_bound(lexicons):
    parses = analyze("It lasted two to three hours.", lexicons)
    readings = [m.readings[0] for p in parses for m in p.mentions]
    duration = next(r for r in readings if r.kind is ReadingKind.DURATION)
    assert duration.value.value == Decimal(2)


def test_org_suffix_composition(lexicons):
    parses = analyze("Zyqqly Corp announced a deal.", lexicons)
    _, mention = mention_by_text(parses, "Zyqqly Corp")
    org = mention.readings[0].value
    assert org.full_name == "Zyqqly Corp"


def test_org_suffix_after_one_comma_joins_the_name(lexicons, rules, kb):
    parses = analyze("Acme, Inc. said on Monday that profits rose 5 percent.", lexicons)
    assert [(p.mention_text(m), m.readings[0].kind) for p, m in flat_mentions(parses)][0] == \
        ("Acme , Inc.", ReadingKind.ORGANIZATION)
    assert flat_mentions(parses)[0][1].readings[0].value.full_name == "Acme, Inc."
    # the comma is taken only right before a suffix, after at least one name
    for text, first in (("Acme, Widget Corp. rose.", "Acme"), (", Inc. rose.", "Inc.")):
        parse, mention = flat_mentions(analyze(text, lexicons))[0]
        assert parse.mention_text(mention) == first
    events = extract("Acme, Inc. agreed to buy Widget Corp. for $5 million.", lexicons,
                     rules, kb).document.events
    assert events[0].acquirer.full_name == "Acme, Inc."


def test_of_bridged_organization(lexicons):
    parses = analyze("The Department of Justice filed suit.", lexicons)
    _, mention = mention_by_text(parses, "Department of Justice")
    assert mention.readings[0].kind is ReadingKind.ORGANIZATION


def test_product_with_carrier_attribute(lexicons):
    parses = analyze("A United Airlines Boeing 777 landed safely.", lexicons)
    _, mention = mention_by_text(parses, "United Airlines Boeing 777")
    reading = mention.readings[0]
    assert reading.kind is ReadingKind.PRODUCT
    assert reading.value == "Boeing 777"
    assert mention.readings == (reading,)   # the maker widens the span only


def test_a_model_year_widens_a_product_mention(lexicons):
    parses = analyze("A 1999 Boeing 777 landed safely.", lexicons)
    _, mention = mention_by_text(parses, "1999 Boeing 777")
    assert mention.readings == ((ReadingKind.PRODUCT, "Boeing 777"),)
    # a number outside the model years stays a mention of its own
    parses = analyze("A 1850 Boeing 777 landed safely.", lexicons)
    assert [p.mention_text(m) for p, m in flat_mentions(parses)] == ["1850", "Boeing 777"]


def test_a_continent_reads_as_a_location(lexicons):
    _, mention = mention_by_text(analyze("Floods hit South America.", lexicons), "South America")
    assert mention.readings == (
        (ReadingKind.LOCATION, Location(continent=Continent.SOUTH_AMERICA)),)


def test_a_person_name_entry_without_given_or_family_splits_at_its_last_word(tmp_path):
    path = tmp_path / "person_names.tsv"
    path.write_text("Anna Maria Ortiz\tPersonName\tAnna Maria Ortiz\n"
                    "Madonna\tPersonName\tMadonna\n")
    parses = analyze("Anna Maria Ortiz met Madonna.", load_lexicon(path))
    assert [m.readings for _, m in flat_mentions(parses)] == [
        ((ReadingKind.PERSON, Person(given="Anna Maria", family="Ortiz")),),
        ((ReadingKind.PERSON, Person(family="Madonna")),)]


def test_unmatched_noun_groups_yield_no_mentions(lexicons):
    parses = analyze("The sky is blue.", lexicons)
    assert all(not p.mentions for p in parses)


def test_mentions_lie_within_groups_number_runs_or_name_spans(lexicons):
    for text in (INTRO_TEXT, JOSPIN_TEXT,
                 "The Department of Justice sued a United Airlines Boeing 777."):
        for parse in analyze(text, lexicons):
            grouped = set()
            for group in chunk_noun_groups(parse.tokens):
                grouped.update(range(group.first, group.last + 1))
            for mention in parse.mentions:
                for i in range(mention.first, mention.last + 1):
                    token = parse.tokens[i]
                    inside = (i in grouped
                              or token.pos.value in ("NUM", "SYM")
                              or token.text.lower() in ("of", "to")
                              or token.text[0].isupper())
                    assert inside, (text, token)


def test_reading_preservation_vs_lexicon(lexicons):
    # every lexicon reading for the span survives into the mention
    parses = analyze("New York celebrated.", lexicons)
    parse, mention = mention_by_text(parses, "New York")
    assert len(mention.readings) >= len(lexicons.lookup("New York")) - 2
    # (two team entries collapse only if identical values; check none lost)
    surface_entries = lexicons.lookup("New York")
    assert len(mention.readings) == len(surface_entries)


def test_determinism(lexicons):
    first = analyze(INTRO_TEXT, lexicons)
    second = analyze(INTRO_TEXT, lexicons)
    assert first == second


# ---- reference resolution -----------------------------------------------------

def test_jospin_mentions_share_one_identifier(lexicons):
    parses = analyze(JOSPIN_TEXT, lexicons)
    wanted = ("Prime Minister Lionel Jospin", "Jospin", "he")
    ids = {}
    for parse, mention in flat_mentions(parses):
        text = parse.mention_text(mention)
        if text in wanted:
            ids[text] = mention.resolved_id
    assert set(ids) == set(wanted)
    assert len(set(ids.values())) == 1
    assert list(ids.values())[0].startswith("PERSON")


def test_distinct_full_names_get_distinct_ids(lexicons):
    parses = analyze("Lionel Jospin spoke. Jacques Chirac listened.", lexicons)
    ids = [m.resolved_id for p, m in flat_mentions(parses)]
    assert len(ids) == 2
    assert ids[0] != ids[1]


def test_document_initial_pronoun_is_fresh_and_flagged(lexicons):
    parses = analyze("He left.", lexicons)
    (_, mention), = flat_mentions(parses)
    assert mention.pronoun
    assert mention.ambiguous
    assert mention.resolved_id.startswith("PERSON")


def test_the_debug_dump_flags_an_unresolved_pronoun(lexicons):
    dump = dump_parses(analyze("He left.", lexicons))
    assert "mention\t[0..0]\tPERSON1\tPerson\tHe\tpronoun\tambiguous\n" in dump


def test_a_pronoun_tagged_word_no_pronoun_entry_lists_is_no_mention(tmp_path):
    # "us" here is the microsecond unit, not a pronoun
    path = tmp_path / "units.tsv"
    path.write_text("us\tUnit\tus\tdim=duration\n")
    parses = analyze("They told us. It took 5 us.", load_lexicon(path, case_sensitive=False))
    assert [(p.mention_text(m), m.readings) for p, m in flat_mentions(parses)] == [
        ("5 us", ((ReadingKind.DURATION, Measure(Decimal(5), "us")),))]


def test_pronoun_respects_sex_agreement(lexicons):
    text = "Mary Johnson arrived. Robert Smith arrived. She spoke first."
    parses = analyze(text, lexicons)
    by_text = {p.mention_text(m): m for p, m in flat_mentions(parses)}
    assert by_text["She"].resolved_id == by_text["Mary Johnson"].resolved_id


def test_unknown_sex_matches_either(lexicons):
    text = "Jospin arrived. He spoke."
    parses = analyze(text, lexicons)
    by_text = {p.mention_text(m): m for p, m in flat_mentions(parses)}
    assert by_text["He"].resolved_id == by_text["Jospin"].resolved_id


def test_title_match_links_back(lexicons):
    text = "Prime Minister Lionel Jospin arrived. The Prime Minister spoke."
    parses = analyze(text, lexicons)
    ids = {m.resolved_id for p, m in flat_mentions(parses)
           if m.readings[0].kind is ReadingKind.PERSON}
    assert len(ids) == 1


def test_identical_values_share_ids(lexicons):
    text = "They counted 143 people. Later 143 again."
    parses = analyze(text, lexicons)
    ids = [m.resolved_id for p, m in flat_mentions(parses)
           if m.readings[0].kind is ReadingKind.NUMBER]
    assert len(ids) == 2
    assert ids[0] == ids[1]


def test_ids_partition_mentions_by_kind(lexicons):
    for text in (INTRO_TEXT, JOSPIN_TEXT):
        kinds_by_id = {}
        for parse in analyze(text, lexicons):
            for mention in parse.mentions:
                assert mention.resolved_id is not None
                kinds_by_id.setdefault(mention.resolved_id, set()).add(
                    mention.readings[0].kind)
        for resolved_id, kinds in kinds_by_id.items():
            assert len(kinds) == 1, (resolved_id, kinds)


def test_longest_lexicon_surface_wins(lexicons):
    parses = analyze("The New York Yankees won again.", lexicons)
    parse, mention = mention_by_text(parses, "New York Yankees")
    assert mention.readings[0].kind is ReadingKind.ORGANIZATION
    assert mention.readings[0].value.full_name == "New York Yankees"
    # no separate two-token "New York" mention survives
    texts = [p.mention_text(m) for p, m in flat_mentions(parses)]
    assert "New York" not in texts


def test_storm_words_stay_free_for_pattern_literals(lexicons):
    parses = analyze("Hurricane Floyd struck North Carolina.", lexicons)
    texts = [p.mention_text(m) for p, m in flat_mentions(parses)]
    assert "Floyd" in texts
    assert "Hurricane Floyd" not in texts
    _, floyd = mention_by_text(parses, "Floyd")
    assert floyd.readings[0].value.given == "Floyd"


def test_each_token_window_is_looked_up_at_most_once(data_root, monkeypatch):
    lexicons = load_lexicon_set(data_root / "lexicons")
    calls = []
    lookup = lexicons.lookup
    monkeypatch.setattr(lexicons, "lookup", lambda surface: calls.append(surface) or lookup(surface))
    starts = []
    windows_at = entities._Scanner.windows
    monkeypatch.setattr(entities._Scanner, "windows",
                        lambda self, i: starts.append(i) or windows_at(self, i))
    longest = max(len(tag_pos(key, (0, len(key)))) for key in lexicons.index)
    text = (INTRO_TEXT + " " + JOSPIN_TEXT + " Mr. John Smith of Washington, D.C., paid "
            "twenty five million dollars, $2 million, for 3 to 4 miles of New York.")
    probed = 0
    for span in split_sentences(text):
        tokens = tag_pos(text, span)
        calls.clear()
        starts.clear()
        entities.parse_entities(tokens, lexicons)
        n = len(tokens)
        windows = Counter(entities._window_surface(tokens, i, last) for i in range(n)
                          for last in range(i, min(i + longest, n)))
        assert Counter(calls) <= windows, text[span[0]:span[1]]
        # every window a key matches, from each start a matcher asked for, was probed
        matched = {entities._window_surface(tokens, i, last) for i in set(starts)
                   for last in range(i, min(i + longest, n))}
        assert {w for w in matched if lookup(w)} <= set(calls), text[span[0]:span[1]]
        probed += len(calls)
    # a sentence may rightly probe nothing ("Jospin, confronted with ..."); the text may not
    assert probed > 0


def _brute_force_windows(tokens, lexicons, i):
    """Entries of every window starting at i, by offset, up to the first
    punctuation other than a comma: no prefix frontier."""
    found = {}
    for last in range(i, len(tokens)):
        if tokens[last].pos is Pos.PUNCT and tokens[last].text != ",":
            break
        entries = lexicons.lookup(entities._window_surface(tokens, i, last))
        if entries:
            found[last - i] = entries
    return found


class _EveryPrefix:
    """A prefix set that holds every string, so no window stops early."""

    def __contains__(self, surface):
        return True


_OTHER_WORDS = [",", ",", ",", ".", ";", "!", "(", "-", "Zyqqly", "blorf", "of", "the",
                "12", "$"]
_CASES = [str, str.lower, str.upper, str.title]


def _key_word_text(lexicons, data):
    """Words of lexicon keys in mixed case, with commas, other punctuation
    and unknown words mixed in."""
    key_words = sorted({word for bucket in lexicons.index.values()
                        for _, entry in bucket for word in entry.surface.split()})
    word = st.one_of(st.sampled_from(key_words), st.sampled_from(_OTHER_WORDS))
    words = data.draw(st.lists(st.tuples(word, st.sampled_from(_CASES)), max_size=30))
    return " ".join(case(w) for w, case in words)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_windows_equal_a_brute_force_probe_of_every_window(lexicons, data):
    text = _key_word_text(lexicons, data)
    tokens = tag_pos(text, (0, len(text)))
    scanner = entities._Scanner(tokens, lexicons)
    for i in range(len(tokens)):
        expected = _brute_force_windows(tokens, lexicons, i)
        table = scanner.windows(i)
        assert {k: entries for k, entries in enumerate(table) if entries} == expected, (text, i)
        assert scanner._kinds[i] == {e.kind for entries in expected.values() for e in entries}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mentions_equal_a_scanner_without_a_prefix_frontier(lexicons, data):
    text = _key_word_text(lexicons, data)
    unbounded = dataclasses.replace(lexicons, prefixes=_EveryPrefix())
    for span in split_sentences(text):
        tokens = tag_pos(text, span)
        assert (entities.parse_entities(tokens, lexicons)
                == entities.parse_entities(tokens, unbounded)), text


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_no_mention_starts_at_a_token_the_start_gate_skips(lexicons, data):
    # a scanner whose prefix set holds every string lets every token through
    # its gate, and still starts each mention at a number, a capitalised
    # token or the start of a lexicon key
    text = _key_word_text(lexicons, data)
    unbounded = dataclasses.replace(lexicons, prefixes=_EveryPrefix())
    for span in split_sentences(text):
        tokens = tag_pos(text, span)
        for mentions in (entities.parse_entities(tokens, lexicons),
                         entities.parse_entities(tokens, unbounded)):
            for mention in mentions:
                token = tokens[mention.first]
                assert (token.pos is Pos.NUM or token.text[0].isupper()
                        or token.text.casefold() in lexicons.prefixes), (text, mention)


@pytest.mark.parametrize("text, first, last, value", [
    # the comma token keeps the window going to the three-token key
    ("Washington, D.C.", 0, 2, Location(city="Washington", country="USA", state="DC",
                                        latitude=Decimal("38.9"), longitude=Decimal("-77.0"))),
    # a case-sensitive key whose path runs through lower-case words
    ("Rio de Janeiro", 0, 2, Location(city="Rio de Janeiro", country="BRA",
                                      latitude=Decimal("-22.9"), longitude=Decimal("-43.2"))),
    # the longest keys, five tokens
    ("Democratic Republic of the Congo", 0, 4,
     Location(country="COD", latitude=Decimal("-4.0"), longitude=Decimal("21.8"))),
    ("Saint Vincent and the Grenadines", 0, 4,
     Location(country="VCT", latitude=Decimal("12.98"), longitude=Decimal("-61.3"))),
])
def test_lexicon_windows_reach_their_keys(lexicons, text, first, last, value):
    tokens = tag_pos(text, (0, len(text)))
    mention, = entities.parse_entities(tokens, lexicons)
    assert (mention.first, mention.last) == (first, last)
    assert mention.readings[0].value == value
    assert entities._Scanner(tokens, lexicons).windows(0) == [
        lexicons.lookup(entities._window_surface(tokens, 0, k)) for k in range(len(tokens))]


@pytest.mark.parametrize("key, text, last", [
    ("Washington, D.C.", "Washington, D.C.", 2),
    # five words, six tokens: a cap on words per key stopped one token short
    ("Foo, Bar Baz Qux Quux", "Foo, Bar Baz Qux Quux", 5),
    # spelled as a token window at load, "Foo , Bar Baz", as the text is
    ("Foo,Bar Baz", "Foo, Bar Baz", 3),
])
def test_comma_key_is_reached_when_its_first_word_is_no_key(tmp_path, key, text, last):
    path = tmp_path / "cities.tsv"
    path.write_text(f"{key}\tCity\tWashington\tcountry=USA\n")
    tokens = tag_pos(text, (0, len(text)))
    mention, = entities.parse_entities(tokens, load_lexicon(path))
    assert (mention.first, mention.last) == (0, last)


def test_lower_case_text_reaches_no_case_sensitive_key(lexicons):
    tokens = tag_pos("rio de janeiro", (0, 14))
    assert entities.parse_entities(tokens, lexicons) == []
    assert entities._Scanner(tokens, lexicons).windows(0) == [[], [], []]


@pytest.mark.parametrize("text", ["60 miles per hour", "60 Miles Per Hour", "60 MILES PER HOUR"])
def test_multi_word_case_insensitive_unit_in_any_case(lexicons, text):
    tokens = tag_pos(text, (0, len(text)))
    mention, = entities.parse_entities(tokens, lexicons)
    assert (mention.first, mention.last) == (0, 3)
    assert mention.readings[0].kind is ReadingKind.SPEED
    assert mention.readings[0].value == Measure(Decimal(60), "mph")


@pytest.mark.parametrize("word", ["Western ", "Hurricane "])
def test_capitalised_runs_scan_in_linear_time(lexicons, monkeypatch, word):
    # a run no org suffix closes, of adjectives or storm words that no
    # matcher takes: probes grow with its length, not its square
    probes = []
    single = entities._Scanner.single
    monkeypatch.setattr(entities._Scanner, "single",
                        lambda self, i, kind: probes.append(i) or single(self, i, kind))
    counts = []
    for words in (400, 800):
        probes.clear()
        analyze(word * words + "rose.", lexicons)
        counts.append(len(probes))
    assert counts[1] <= 2.2 * counts[0], counts


def _lookups_per_text(lexicons, monkeypatch, texts, run):
    calls = []
    lookup = lexicons.lookup
    monkeypatch.setattr(lexicons, "lookup", lambda surface: calls.append(surface) or lookup(surface))
    counts = []
    for text in texts:
        calls.clear()
        run(text)
        counts.append(len(calls))
    return counts


@pytest.mark.parametrize("unit", ["twenty ", "one hundred twenty three thousand ",
                                  "five million and "])
def test_number_word_runs_scan_in_linear_time(lexicons, monkeypatch, unit):
    texts = [unit * (kb * 1024 // len(unit)) + "people died." for kb in (8, 16)]
    counts = _lookups_per_text(lexicons, monkeypatch, texts,
                               lambda text: analyze(text, lexicons))
    assert counts[1] <= 2.2 * counts[0], counts


def test_50_kb_without_a_sentence_terminator_extracts_in_linear_time(
        lexicons, rules, kb, monkeypatch):
    clause = INTRO_TEXT.rstrip(".") + " and "
    texts = [(clause * (size // len(clause) + 1))[:size] for size in (25 * 1024, 50 * 1024)]
    results = []

    def run(text):
        began = time.perf_counter()
        results.append(extract(text, lexicons, rules, kb))
        assert time.perf_counter() - began < 20.0

    counts = _lookups_per_text(lexicons, monkeypatch, texts, run)
    assert counts[1] <= 2.2 * counts[0], counts
    assert [len(result.parses) for result in results] == [1, 1]
    assert all(result.document.events for result in results)


def test_mentions_of_one_entry_share_one_reading(lexicons):
    parses = analyze("New York voted. Then New York voted again.", lexicons)
    first, second = (mention_by_text(parses[n:], "New York")[1] for n in (0, 1))
    assert len(first.readings) >= 3
    assert all(a is b for a, b in zip(first.readings, second.readings, strict=True))


def test_no_reading_outlives_its_lexicon_set(data_root):
    text = "New York voted. Colombia and Boeing agreed."
    sets = [load_lexicon_set(data_root / "lexicons") for _ in range(2)]
    readings = [[r for parse in analyze(text, lexicons) for m in parse.mentions
                 for r in m.readings] for lexicons in sets]
    assert readings[0] == readings[1]
    assert len(readings[0]) >= 5
    assert not any(a is b for a in readings[0] for b in readings[1])
    first, second = (set(map(id, lexicons.readings.values())) for lexicons in sets)
    assert first and not first & second


def test_trailing_range_word_after_a_number_is_no_error(lexicons):
    parses = analyze("He paid 3 to", lexicons)
    _, mention = mention_by_text(parses, "3")
    assert mention.readings[0].kind is ReadingKind.NUMBER


# 10^(28 * 35714) = 10^999992 is the largest power of 10^28 the default
# decimal context holds (Emax 999999)
_ZILLIONS = 35714


def test_magnitude_words_stop_composing_before_the_value_overflows(tmp_path):
    path = tmp_path / "numbers.tsv"
    path.write_text("one\tNumberWord\t1\tval=1\n"
                    "zillion\tNumberWord\tzillion\tmag=1e28\n"
                    "grand\tCurrencyUnit\tUSD\tscale=1e28\n")
    lexicons = load_lexicon(path, case_sensitive=False)
    for tail in ("zillion left.", "grand left."):
        parses = analyze("one " + "zillion " * _ZILLIONS + tail, lexicons)
        parse, mention = flat_mentions(parses)[0]
        assert (mention.first, mention.last) == (0, _ZILLIONS)
        # the next magnitude, or a scale, would overflow: a plain number
        assert [(r.kind, r.value) for r in mention.readings] == [
            (ReadingKind.NUMBER, Decimal(10) ** (28 * _ZILLIONS))]
