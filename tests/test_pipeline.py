"""Sentence splitting, part-of-speech tagging, noun grouping, and
reference resolution."""

import time
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from newsforms import model
from newsforms.model import Location, Money, Organization, Person
from newsforms.pipeline import analyze, chunk_noun_groups, coref, postag, split_sentences, tag_pos
from newsforms.pipeline.sentences import ABBREVIATIONS
from newsforms.pipeline.types import (
    EntityMention,
    EntityReading,
    Pos,
    ReadingKind,
    SentenceParse,
)
from newsforms.vocab import Sex

from conftest import INTRO_TEXT


def spans_text(text):
    return [text[a:b] for a, b in split_sentences(text)]


def test_empty_input_has_no_sentences():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_two_plain_sentences():
    text = "Jospin kept silent. He left."
    assert spans_text(text) == ["Jospin kept silent.", "He left."]


def test_abbreviations_and_decimals_do_not_split():
    text = "Dr. Smith arrived. The U.S. economy grew 4.2 percent."
    assert spans_text(text) == [
        "Dr. Smith arrived.",
        "The U.S. economy grew 4.2 percent.",
    ]


def test_initials_do_not_split():
    text = "George W. Bush spoke. He waved."
    assert spans_text(text) == ["George W. Bush spoke.", "He waved."]


def test_terminator_runs_and_quotes_stay_attached():
    text = 'It failed?! "We try again." They did.'
    assert spans_text(text) == ['It failed?!', '"We try again."', "They did."]


def test_trailing_text_without_terminator_is_a_sentence():
    assert spans_text("No terminator here") == ["No terminator here"]


@pytest.mark.parametrize("text", [
    INTRO_TEXT,
    "One. Two! Three? Four.",
    "Mr. Jones met Mrs. Jones. They left early... The end.",
    "Rates rose 0.25 percent. Shares fell.",
])
def test_spans_cover_all_nonspace_in_order(text):
    spans = split_sentences(text)
    for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
        assert b1 <= a2
    covered = set()
    for a, b in spans:
        covered.update(range(a, b))
    for i, ch in enumerate(text):
        if not ch.isspace():
            assert i in covered, f"char {i} {ch!r} uncovered"


# ---- the sentence-splitting oracle -------------------------------------------
# The splitter as first written, judging every terminator of a run on its
# own and walking back to the start of its word each time (quadratic on
# long runs and dotted words): the reference for the single-pass one.

def _oracle_preceding_word(text, i):
    j = i
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    return text[j:i]


def _oracle_is_boundary(text, i, j):
    if text[i] == ".":
        if 0 < i < len(text) - 1 and text[i - 1].isdigit() and text[i + 1].isdigit():
            return False
        word = _oracle_preceding_word(text, i)
        if "." in word or word.lower() in ABBREVIATIONS:
            return False
        if len(word) == 1 and word.isalpha() and word.isupper():
            return False
    if j >= len(text):
        return True
    if not text[j].isspace():
        return False
    k = j
    while k < len(text) and text[k].isspace():
        k += 1
    return k >= len(text) or text[k].isupper() or text[k].isdigit() or text[k] in "\"'“‘(["


def oracle_split(text):
    spans = []
    n = len(text)
    start = 0
    while start < n and text[start].isspace():
        start += 1
    i = start
    while i < n:
        if text[i] in ".?!":
            j = i + 1
            while j < n and text[j] in ".?!\"')]”’":
                j += 1
            if _oracle_is_boundary(text, i, j):
                spans.append((start, j))
                start = j
                while start < n and text[start].isspace():
                    start += 1
                i = start
                continue
        i += 1
    end = n
    while end > start and text[end - 1].isspace():
        end -= 1
    if end > start:
        spans.append((start, end))
    return spans


_SENTENCE_TEXT = st.one_of(
    st.text(alphabet="aAbEeMmNnoOrRsStUu019.?!\"')]”’“‘([ \n\t", max_size=80),
    st.lists(st.sampled_from(["Mr", "U.S", "e.g", "No", "sept", "E", "x", "3", "4.2",
                              ".", "?", "!", "...", '"', "”", "(", " ", "  ", "\n"]),
             max_size=30).map("".join),
)


@settings(max_examples=500, deadline=None)
@given(_SENTENCE_TEXT)
@example("He asked Mr.? Yes.")
@example('U.S.! "No."  e.g.. Then 3.5. (A) b.')
def test_single_pass_splitter_matches_the_oracle(text):
    assert split_sentences(text) == oracle_split(text)


def test_later_question_mark_in_a_run_ends_the_sentence():
    assert spans_text("He asked Mr.? Yes.") == ["He asked Mr.?", "Yes."]


@pytest.mark.parametrize("text", ["a." * 32 * 1024, "x" + "." * 64 * 1024 + " y"],
                         ids=["dotted-word", "terminator-run"])
def test_64_kb_of_dots_splits_in_linear_time(text):
    began = time.perf_counter()
    spans = split_sentences(text)
    assert time.perf_counter() - began < 5.0   # the oracle takes minutes
    assert spans == [(0, len(text))]


# ---- tagging ---------------------------------------------------------------

def tags_for(text):
    tokens = tag_pos(text, (0, len(text)))
    return [(t.text, t.pos) for t in tokens]


def test_determiner_from_closed_class():
    assert tags_for("the")[0][1] is Pos.DET


def test_comma_number_is_one_num_token():
    assert tags_for("5,000") == [("5,000", Pos.NUM)]


def test_plain_nouns_stay_nouns():
    assert [p for _, p in tags_for("government salary increases")] == [
        Pos.NOUN, Pos.NOUN, Pos.NOUN]


def test_suffix_rules():
    assert tags_for("killing")[0][1] is Pos.VERB
    assert tags_for("toppled")[0][1] is Pos.VERB
    assert tags_for("quickly")[0][1] is Pos.ADV
    assert tags_for("western")[0][1] is Pos.ADJ
    assert tags_for("coffee-growing")[0][1] is Pos.ADJ


def test_capitalized_unknown_is_proper_noun():
    assert tags_for("Jospin")[0][1] is Pos.PROPN


def test_digit_bearing_and_fallback():
    assert tags_for("4.2")[0][1] is Pos.NUM
    assert tags_for("heartland")[0][1] is Pos.NOUN


def test_symbols_and_abbreviations():
    pairs = tags_for("$2 million in the U.S.")
    assert pairs[0] == ("$", Pos.SYM)
    assert pairs[1] == ("2", Pos.NUM)
    assert pairs[-1] == ("U.S.", Pos.PROPN)


def test_known_abbreviation_keeps_period():
    pairs = tags_for("Dr. Smith")
    assert pairs[0][0] == "Dr."


def test_offsets_map_back_to_source():
    text = "  An earthquake struck western Colombia.  "
    for token in tag_pos(text, (2, len(text) - 2)):
        assert text[token.start:token.end] == token.text


def test_tagging_is_deterministic():
    text = INTRO_TEXT
    first = tag_pos(text, (0, len(text)))
    second = tag_pos(text, (0, len(text)))
    assert first == second


def _reference_tag(word):
    """postag's documented precedence, one rule after another: closed class,
    -ing/-ed/-ly with their length limits, adjective suffixes, capitalised
    -> PROPN, and NOUN."""
    lower = word.lower()
    if lower in postag._CLOSED:
        return postag._CLOSED[lower]
    if lower.endswith("ing") and len(lower) > 4:
        return Pos.ADJ if "-" in lower else Pos.VERB
    if lower.endswith("ed") and len(lower) > 3:
        return Pos.VERB
    if lower.endswith("ly") and len(lower) > 3:
        return Pos.ADV
    for suffix in ("ern", "ous", "ful", "ive", "able", "ible", "ic", "ish", "al", "est", "ian"):
        if lower.endswith(suffix) and len(lower) > len(suffix) + 1:
            return Pos.ADJ
    if word[0].isupper():
        return Pos.PROPN
    return Pos.NOUN


_TAG_SUFFIXES = ["", "ing", "ed", "ly", "ern", "ous", "ful", "ive", "able", "ible", "ic",
                 "ish", "al", "est", "ian"]
_TAG_STEMS = ["", "a", "b", "x", "ab", "ru", "fir", "west", "coffee-grow", "o'", "d’", "3", "x2",
              "٣", "²", "Ro", "B", "Q-", "9a"]
_WORDS_TO_TAG = st.one_of(
    st.sampled_from(sorted(postag._CLOSED)),
    st.builds(lambda stem, suffix, case: case(stem + suffix), st.sampled_from(_TAG_STEMS),
              st.sampled_from(_TAG_SUFFIXES), st.sampled_from([str, str.upper, str.title])),
    st.text(alphabet="aeiIngdlyE-'’09²", min_size=1, max_size=7),
).filter(bool)


@settings(max_examples=1000, deadline=None)
@given(_WORDS_TO_TAG)
@example("Western")
@example("coffee-growing")
@example("ic")
@example("bic")
@example("x2ly")
def test_tag_word_equals_the_documented_precedence(word):
    assert postag._tag_word(word) is _reference_tag(word)


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    st.text(alphabet="aZq'’-.,09²٣ ", max_size=40),
    st.lists(st.sampled_from(["Mr.", "mr.", "U.S.", "x2", "3.5", "B-52", "o'9", "dr.", " "]),
             max_size=12).map("".join),
))
def test_the_tagger_hands_tag_word_no_digit(text):
    words = []
    tag_word = postag._tag_word
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(postag, "_tag_word", lambda word: words.append(word) or tag_word(word))
        tag_pos(text, (0, len(text)))
    assert not any(ch.isdigit() for word in words for ch in word)


_TAGGER_TEXT = st.lists(st.sampled_from(["Mr.", "dr.", "St.", "No.", "etc.", "U.S.", "a", "Zq", "5",
                                         "3.5", ".5", "1,000", ".", ",", "$", "'", " "]),
                        max_size=12).map("".join)


@settings(max_examples=500, deadline=None)
@given(_TAGGER_TEXT, st.integers(0, 60), st.integers(0, 60))
@example("aMr.", 1, 4)
@example("No.5 Mr..5", 0, 10)
def test_tokens_are_ordered_disjoint_slices_covering_the_span(text, start, end):
    start, end = sorted((min(start, len(text)), min(end, len(text))))
    tokens = tag_pos(text, (start, end))
    read = start
    for token in tokens:
        assert read <= token.start < token.end <= end, (text, tokens)
        assert text[token.start:token.end] == token.text
        assert not text[read:token.start].strip(), (text, tokens)   # only spaces skipped
        read = token.end
    assert not text[read:end].strip(), (text, tokens)


# ---- noun groups -------------------------------------------------------------

def groups_text(text):
    tokens = tag_pos(text, (0, len(text)))
    groups = chunk_noun_groups(tokens)
    return [" ".join(t.text for t in tokens[g.first:g.last + 1]) for g in groups], \
        tokens, groups


def test_three_noun_compound_is_one_group_with_last_head():
    texts, tokens, groups = groups_text("Washington area economy")
    assert texts == ["Washington area economy"]
    assert tokens[groups[0].head].text == "economy"


def test_pronoun_is_a_singleton_group():
    texts, tokens, groups = groups_text("He")
    assert texts == ["He"]
    assert groups[0].first == groups[0].last == groups[0].head


def test_intro_clause_chunks():
    texts, _, _ = groups_text("An earthquake struck western Colombia")
    assert texts == ["An earthquake", "western Colombia"]


def test_determiner_without_noun_is_not_a_group():
    texts, _, _ = groups_text("the of and")
    assert texts == []


def test_number_modifier_joins_group():
    texts, _, _ = groups_text("killing 143 people")
    assert "143 people" in texts


def test_groups_are_ordered_and_disjoint():
    _, tokens, groups = groups_text(INTRO_TEXT)
    seen = set()
    last_end = -1
    for group in groups:
        assert group.first > last_end
        assert group.first <= group.head <= group.last
        last_end = group.last
        for i in range(group.first, group.last + 1):
            assert i not in seen
            seen.add(i)


# ---- reference resolution -----------------------------------------------------

@dataclass
class _OracleEntity:
    eid: str
    kind: ReadingKind
    sex: Optional[Sex] = None
    full_names: set = field(default_factory=set)
    families: set = field(default_factory=set)
    functions: set = field(default_factory=set)
    values: set = field(default_factory=set)
    person: Optional[Person] = None   # the record a resolved pronoun reads as


class OracleResolver:
    """The scanning resolver: every lookup walks back over all earlier
    entities, so it is quadratic in mentions; kept as the reference."""

    def __init__(self):
        self.entities = []
        self.counters = {}

    def fresh(self, kind):
        prefix = coref._PREFIX[kind]
        self.counters[prefix] = self.counters.get(prefix, 0) + 1
        entity = _OracleEntity(eid=f"{prefix}{self.counters[prefix]}", kind=kind)
        self.entities.append(entity)
        return entity

    def resolve_person(self, person, pronoun):
        full, family, function = coref._person_keys(person)
        if pronoun:
            for entity in reversed(self.entities):
                if entity.kind is ReadingKind.PERSON and \
                        coref._sex_compatible(entity.sex, person.sex):
                    return entity
            return None
        for entity in reversed(self.entities):
            if entity.kind is not ReadingKind.PERSON:
                continue
            if full and full in entity.full_names:
                return entity
        if family:
            for entity in reversed(self.entities):
                if entity.kind is ReadingKind.PERSON and family in entity.families:
                    return entity
        if function and not family and not person.given:
            for entity in reversed(self.entities):
                if entity.kind is ReadingKind.PERSON and function in entity.functions:
                    return entity
        return None

    def resolve_value(self, reading):
        key = coref._value_key(reading)
        if key is None:
            return None
        for entity in reversed(self.entities):
            if entity.kind is reading.kind and key in entity.values:
                return entity
        return None

    def record(self, entity, reading):
        if reading.kind is ReadingKind.PERSON:
            person = reading.value
            full, family, function = coref._person_keys(person)
            if full:
                entity.full_names.add(full)
            if family:
                entity.families.add(family)
            if function:
                entity.functions.add(function)
            if entity.sex is None and isinstance(person.sex, Sex):
                entity.sex = person.sex
            entity.person = person
        else:
            key = coref._value_key(reading)
            if key:
                entity.values.add(key)


_PERSONS = st.builds(
    Person,
    given=st.sampled_from([None, "Ann", "Bob"]),
    family=st.sampled_from([None, "Smith", "Jones", "smith"]),
    function=st.sampled_from([None, "Mayor", "judge"]),
    # "Other" lies outside the vocabulary and stays a plain string
    sex=st.sampled_from([None, Sex.MALE, Sex.FEMALE, "Other"]),
)
_VALUES = st.sampled_from([
    EntityReading(ReadingKind.NUMBER, Decimal("12")),
    EntityReading(ReadingKind.PERCENT, Decimal("12")),
    EntityReading(ReadingKind.MONEY, Money(Decimal("5"), "USD")),
    EntityReading(ReadingKind.LOCATION, Location(city="Paris", country="FRA")),
    EntityReading(ReadingKind.LOCATION, Location(city="paris", country="FRA")),
    EntityReading(ReadingKind.ORGANIZATION, Organization(full_name="Acme")),
    EntityReading(ReadingKind.PRODUCT, "Boeing 777"),
    EntityReading(ReadingKind.DATE, None),   # no value key
])
_MENTIONS = st.one_of(
    st.builds(lambda person, pronoun: EntityMention(
        0, 0, (EntityReading(ReadingKind.PERSON, person),), pronoun=pronoun),
        _PERSONS, st.booleans()),
    st.builds(lambda reading: EntityMention(0, 0, (reading,)), _VALUES),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_MENTIONS, max_size=6), max_size=8))
def test_indexed_resolver_matches_the_scanning_oracle(sentences):
    parses = [SentenceParse(0, 0, (), tuple(mentions)) for mentions in sentences]
    with mock.patch.object(coref, "_Resolver", OracleResolver):
        expected = coref.resolve_references(parses)
    assert coref.resolve_references(parses) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_MENTIONS, max_size=6), max_size=8))
def test_a_resolved_pronoun_carries_its_antecedents_record(sentences):
    parses = [SentenceParse(0, 0, (), tuple(mentions)) for mentions in sentences]
    latest = {}   # entity id -> the person record of its latest named mention
    for before, after in zip(parses, coref.resolve_references(parses)):
        for mention, resolved in zip(before.mentions, after.mentions):
            if mention.readings[0].kind is not ReadingKind.PERSON:
                continue
            person = resolved.readings[0].value
            if not mention.pronoun:
                latest[resolved.resolved_id] = person
                continue
            record = latest.get(resolved.resolved_id)
            if record is None:   # no named antecedent: the pronoun reads as itself
                assert resolved.readings == mention.readings
                continue
            for spec in model.specs_for(Person):
                held = getattr(record, spec.attr)
                if held is not None:
                    assert getattr(person, spec.attr) == held
            if record.sex is None:
                assert person.sex == mention.readings[0].value.sex


@pytest.mark.parametrize("unit", ["Mr. to ", "Mr. she "])
def test_64_kb_of_person_mentions_resolves_in_linear_time(lexicons, unit):
    text = unit * (64 * 1024 // len(unit))
    began = time.perf_counter()
    parses = analyze(text, lexicons)
    assert time.perf_counter() - began < 20.0   # the scanning resolver takes minutes
    ids = {m.resolved_id for parse in parses for m in parse.mentions}
    assert len(ids) >= 8 * 1024
