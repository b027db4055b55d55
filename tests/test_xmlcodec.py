"""Parsing and canonical serialization."""

import collections
import copy
import dataclasses
import hashlib
import random
import re
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from decimal import Decimal
from xml.sax import saxutils

import pytest
from hypothesis import given, settings, strategies as st

from newsforms import model
from newsforms.model import (
    Deal,
    FieldKind,
    Head,
    InjuryFatality,
    Money,
    NewsForm,
    Organization,
    Person,
    Trip,
    Weather,
)
from newsforms.vocab import Cause, Sport
from newsforms.xmlcodec import (
    FieldTypeError,
    SchemaError,
    SerializeError,
    XmlSyntaxError,
    escape,
    parse_newsform,
    serialize_newsform,
)

from conftest import EARTHQUAKE_XML, DocGenerator


def test_worked_example_parses_into_typed_fields():
    doc = parse_newsform(EARTHQUAKE_XML)
    assert doc.head.dateline_time == datetime(1999, 1, 25, 18, 19, 17,
                                              tzinfo=timezone.utc)
    event = doc.events[0]
    assert isinstance(event, InjuryFatality)
    assert event.cause is Cause.EARTHQUAKE
    assert event.killed_count == 143
    assert event.injured_count == 900
    assert event.source == Person(function="Civil Defense Official")
    assert event.at_location.country == "COL"
    assert event.at_location.latitude == Decimal("4.29")
    assert event.at_location.longitude == Decimal("-75.68")


def test_worked_example_reserializes_byte_identically():
    assert serialize_newsform(parse_newsform(EARTHQUAKE_XML)) == EARTHQUAKE_XML


def test_minimal_document():
    doc = parse_newsform("<NewsForm><Head/></NewsForm>")
    assert doc == NewsForm()
    assert serialize_newsform(doc) == "<NewsForm>\n  <Head/>\n</NewsForm>\n"


def test_head_is_optional_on_input():
    doc = parse_newsform("<NewsForm><Trip/></NewsForm>")
    assert doc.head == Head()
    assert isinstance(doc.events[0], Trip)


def test_non_numeric_count_is_a_type_error_with_path():
    bad = EARTHQUAKE_XML.replace("<KilledCount>143</KilledCount>",
                            "<KilledCount>many</KilledCount>")
    with pytest.raises(FieldTypeError) as info:
        parse_newsform(bad)
    assert info.value.path == "InjuryFatality/KilledCount"


def test_malformed_xml_reports_line_and_column():
    with pytest.raises(XmlSyntaxError) as info:
        parse_newsform("<NewsForm>\n  <Head>\n</NewsForm>")
    assert info.value.line == 3


@pytest.mark.parametrize("raw", [
    b"<NewsForm>\xff</NewsForm>",
    b"<NewsForm>\n  <Head>\xc3\xa9\xfe</Head>\n</NewsForm>",
    b"<NewsForm>\r\n\r<Trip><Given>\xe2\x82</Given></Trip></NewsForm>",
    b"\xed\xa0\x80<NewsForm/>",
])
def test_bytes_that_are_not_utf8_are_a_syntax_error_where_expat_puts_it(raw):
    with pytest.raises(XmlSyntaxError) as info:
        parse_newsform(raw)
    with pytest.raises(ET.ParseError) as expat:
        ET.fromstring(raw)
    assert (info.value.line, info.value.column) == expat.value.position
    assert "not UTF-8" in str(info.value)


def test_an_encoding_declaration_does_not_admit_other_encodings():
    raw = ('<?xml version="1.0" encoding="ISO-8859-1"?>\n'
           "<NewsForm><Trip><Given>Bogotá</Given></Trip></NewsForm>").encode("latin-1")
    with pytest.raises(XmlSyntaxError) as info:
        parse_newsform(raw)
    assert (info.value.line, info.value.column) == (2, 28)


_ELEMENTS = sorted({"NewsForm", "Head", "Amount", "Currency", *model.EVENT_TYPES}
                   | {spec.element for cls in (*model.EVENT_TYPES.values(), Head, Person,
                                               Organization, model.Location, Money)
                      for spec in model.specs_for(cls)})
_LEAVES = st.sampled_from(["", "7", "-2", "1.5", "1e5", "NaN", "9" * 40, "USD", "10 mph",
                           "2000-01-01T00:00:00", "Male", "&amp;", "&bogus;", "x y"])
_ELEMENT = st.recursive(
    _LEAVES,
    lambda inner: st.builds(lambda tag, children: f"<{tag}>{''.join(children)}</{tag}>",
                            st.sampled_from(_ELEMENTS), st.lists(inner, max_size=4)),
    max_leaves=20)
_DOCUMENT = st.builds(lambda children: "<NewsForm>" + "".join(children) + "</NewsForm>",
                      st.lists(_ELEMENT, max_size=4))


@settings(max_examples=500, deadline=None)
@given(st.one_of(_DOCUMENT, _DOCUMENT.map(str.encode), st.text(), st.binary()))
def test_parse_raises_only_its_documented_errors(source):
    try:
        parse_newsform(source)
    except (XmlSyntaxError, SchemaError, FieldTypeError):
        pass


@settings(max_examples=500, deadline=None)
@given(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59)))
def test_a_dateline_of_any_year_round_trips_byte_for_byte(stamp):
    # years before 1000 included, which strftime("%Y") does not zero-pad on glibc
    text = (f"<NewsForm>\n  <Head>\n    <DatelineTime>{stamp.year:04d}{stamp:%m%dT%H%M%S}Z"
            "</DatelineTime>\n  </Head>\n</NewsForm>\n")
    assert serialize_newsform(parse_newsform(text)) == text


def test_unknown_event_element_is_a_schema_error():
    with pytest.raises(SchemaError) as info:
        parse_newsform("<NewsForm><Head/><Scandal/></NewsForm>")
    assert "Scandal" in str(info.value)


def test_a_root_other_than_newsform_is_a_schema_error():
    with pytest.raises(SchemaError) as info:
        parse_newsform("<Trip><Visitor><Family>Ann</Family></Visitor></Trip>")
    assert (info.value.path, str(info.value)) == ("", "root element must be NewsForm, not Trip")


def test_unknown_child_element_is_a_schema_error():
    with pytest.raises(SchemaError) as info:
        parse_newsform("<NewsForm><Head/><Trip><Harmed>x</Harmed></Trip></NewsForm>")
    assert "Harmed" in str(info.value)


def test_attributes_are_rejected():
    with pytest.raises(SchemaError):
        parse_newsform('<NewsForm version="1"><Head/></NewsForm>')


def test_duplicate_scalar_child_is_rejected():
    xml = ("<NewsForm><Head/><Trip><VisitorCount>1</VisitorCount>"
           "<VisitorCount>2</VisitorCount></Trip></NewsForm>")
    with pytest.raises(SchemaError):
        parse_newsform(xml)


def test_plural_children_accumulate():
    xml = ("<NewsForm><Head/><InjuryFatality>"
           "<Injured><Given>Ann</Given></Injured>"
           "<Injured><Given>Bo</Given></Injured>"
           "</InjuryFatality></NewsForm>")
    doc = parse_newsform(xml)
    assert [p.given for p in doc.events[0].injured] == ["Ann", "Bo"]


def test_children_accepted_in_any_order():
    reordered = ("<NewsForm><Head/><InjuryFatality>"
                 "<KilledCount>143</KilledCount><Cause>Earthquake</Cause>"
                 "</InjuryFatality></NewsForm>")
    doc = parse_newsform(reordered)
    out = serialize_newsform(doc)
    assert out.index("<Cause>") < out.index("<KilledCount>")


def test_martial_arts_both_spellings_parse():
    for spelling in ("Martial Arts", "MartialArts"):
        xml = (f"<NewsForm><Head/><Competition><Sport>{spelling}</Sport>"
               f"</Competition></NewsForm>")
        doc = parse_newsform(xml)
        assert doc.events[0].sport is Sport.MARTIAL_ARTS
    out = serialize_newsform(doc)
    assert "<Sport>MartialArts</Sport>" in out


def test_unknown_enum_token_is_kept_for_validation():
    xml = ("<NewsForm><Head/><FedWatch><FedAction>Increase</FedAction>"
           "</FedWatch></NewsForm>")
    doc = parse_newsform(xml)
    assert doc.events[0].fed_action == "Increase"
    report = model.validate(doc)
    assert [f.code for f in report.errors] == ["enum"]


def test_serialize_refuses_invalid_documents():
    bad = NewsForm(events=(InjuryFatality(killed_count=-5),))
    with pytest.raises(SerializeError) as info:
        serialize_newsform(bad)
    assert info.value.report.errors


def test_escaping_round_trips():
    doc = NewsForm(events=(Trip(visitor=Person(family="O<Hara> & Co")),))
    out = serialize_newsform(doc)
    assert "O&lt;Hara&gt; &amp; Co" in out
    assert parse_newsform(out) == doc


def test_measure_fields_round_trip():
    doc = NewsForm(events=(Weather(wind_speed=model.Measure(Decimal("140"), "mph"),
                                   high=model.Measure(Decimal("90.5"), "F")),))
    out = serialize_newsform(doc)
    assert "<WindSpeed>140 mph</WindSpeed>" in out
    assert parse_newsform(out) == doc


def test_bad_measure_text_is_a_type_error():
    xml = ("<NewsForm><Head/><Weather><WindSpeed>fast</WindSpeed>"
           "</Weather></NewsForm>")
    with pytest.raises(FieldTypeError):
        parse_newsform(xml)


def test_money_requires_amount_and_currency():
    xml = ("<NewsForm><Head/><Deal><DealValue><Amount>5</Amount></DealValue>"
           "</Deal></NewsForm>")
    with pytest.raises(SchemaError):
        parse_newsform(xml)


_MONEY = "Deal/DealValue"


@pytest.mark.parametrize("inner, error, path, message", [
    ("<Amount>5</Amount><Amount>6</Amount><Currency>USD</Currency>",
     SchemaError, f"{_MONEY}/Amount", "<Amount> may appear at most once"),
    ("<Amount>5</Amount><Currency>USD</Currency><Currency>EUR</Currency>",
     SchemaError, f"{_MONEY}/Currency", "<Currency> may appear at most once"),
    ("<Amount>5</Amount><Value>5</Value>",
     SchemaError, f"{_MONEY}/Value", "unknown element <Value>"),
    ("<Currency>USD</Currency>",
     SchemaError, _MONEY, "money needs both <Amount> and <Currency>"),
    ("<Amount>5</Amount>",
     SchemaError, _MONEY, "money needs both <Amount> and <Currency>"),
    ('<Amount>5</Amount><Currency code="1">USD</Currency>',
     SchemaError, f"{_MONEY}/Currency", "attributes are not allowed ('code')"),
    ("<Amount><Value/></Amount><Currency>USD</Currency>",
     SchemaError, f"{_MONEY}/Amount", "<Amount> must not contain child elements"),
    ("5<Amount>5</Amount><Currency>USD</Currency>",
     SchemaError, _MONEY, "unexpected text content"),
    ("<Amount>five</Amount><Currency>USD</Currency>",
     FieldTypeError, f"{_MONEY}/Amount", "not a decimal number: 'five'"),
], ids=["duplicate-amount", "duplicate-currency", "unknown-child", "no-amount",
        "no-currency", "attribute", "element-in-amount", "stray-text", "bad-amount"])
def test_money_errors_carry_the_record_reader_path_and_message(inner, error, path, message):
    xml = f"<NewsForm><Deal><DealValue>{inner}</DealValue></Deal></NewsForm>"
    with pytest.raises(error) as info:
        parse_newsform(xml)
    assert (info.value.path, str(info.value)) == (path, f"{path}: {message}")


def test_money_scale_survives_round_trip():
    doc = NewsForm(events=(Deal(deal_value=Money(Decimal("2.50"), "USD")),))
    out = serialize_newsform(doc)
    assert "<Amount>2.50</Amount>" in out
    again = serialize_newsform(parse_newsform(out))
    assert again == out


def test_org_or_person_inline_and_wrapped_forms():
    inline = ("<NewsForm><Head/><InjuryFatality>"
              "<Source><Function>Official</Function></Source>"
              "</InjuryFatality></NewsForm>")
    wrapped = ("<NewsForm><Head/><InjuryFatality>"
               "<Source><Person><Function>Official</Function></Person></Source>"
               "</InjuryFatality></NewsForm>")
    assert parse_newsform(inline) == parse_newsform(wrapped)
    org = ("<NewsForm><Head/><InjuryFatality>"
           "<Source><Ticker>BEL</Ticker></Source>"
           "</InjuryFatality></NewsForm>")
    assert isinstance(parse_newsform(org).events[0].source, Organization)


def test_ambiguous_org_or_person_serializes_wrapped():
    doc = NewsForm(events=(InjuryFatality(
        cause="Fire", source=Organization(email="desk@wire.example")),))
    out = serialize_newsform(doc)
    assert "<Source><Organization><Email>" in out
    assert parse_newsform(out) == doc
    person_doc = NewsForm(events=(InjuryFatality(
        cause="Fire", source=Person(email="a@b.example")),))
    out2 = serialize_newsform(person_doc)
    assert "<Source><Person><Email>" in out2
    assert parse_newsform(out2) == person_doc


def test_mixed_person_and_org_children_rejected():
    xml = ("<NewsForm><Head/><InjuryFatality>"
           "<Source><Family>Ng</Family><Ticker>BEL</Ticker></Source>"
           "</InjuryFatality></NewsForm>")
    with pytest.raises(SchemaError):
        parse_newsform(xml)


def test_hundred_generated_documents_round_trip(generator):
    for _ in range(100):
        doc = generator.document()
        assert model.validate(doc).ok, model.validate(doc).errors
        text = serialize_newsform(doc)
        again = parse_newsform(text)
        assert again == doc
        assert serialize_newsform(again) == text  # canonical idempotence


def test_fuzzed_unknown_elements_each_raise_one_schema_error(generator):
    rng = random.Random(424242)
    blessed = list(model.EVENT_TYPES)
    for _ in range(40):
        doc = generator.document()
        text = serialize_newsform(doc)
        lines = text.splitlines()
        insert_at = rng.randrange(1, len(lines))
        bogus = rng.choice(["<Zorp/>", "<Mystery>1</Mystery>",
                            f"<{rng.choice(blessed)}X/>"])
        lines.insert(insert_at, "  " + bogus)
        with pytest.raises((SchemaError, XmlSyntaxError)):
            parse_newsform("\n".join(lines))


def test_unknown_head_child_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_newsform("<NewsForm><Head><Byline>x</Byline></Head></NewsForm>")


def test_bad_dateline_is_a_type_error_with_path():
    with pytest.raises(FieldTypeError) as info:
        parse_newsform("<NewsForm><Head><DatelineTime>1999-01-25</DatelineTime>"
                       "</Head></NewsForm>")
    assert info.value.path == "Head/DatelineTime"


def test_whitespace_between_elements_is_insignificant():
    airy = ("<NewsForm>\n\n\n  <Head>\n\n    "
            "<DatelineTime>19990125T181917Z</DatelineTime>\n  </Head>\n"
            "  <InjuryFatality>\n\n\n    <KilledCount>  143  </KilledCount>\n"
            "  </InjuryFatality>\n</NewsForm>")
    tight = ("<NewsForm><Head><DatelineTime>19990125T181917Z</DatelineTime>"
             "</Head><InjuryFatality><KilledCount>143</KilledCount>"
             "</InjuryFatality></NewsForm>")
    assert parse_newsform(airy) == parse_newsform(tight)


def test_bytes_input_is_accepted():
    assert parse_newsform(EARTHQUAKE_XML.encode("utf-8")) == \
        parse_newsform(EARTHQUAKE_XML)


@pytest.mark.parametrize("event, element, text", [
    ("Trip", "VisitorCount", "١٢"),        # Arabic-Indic
    ("Trip", "VisitorCount", "１２"),      # fullwidth
    ("Deal", "Stake", "٤.٥"),
    ("Deal", "Stake", "4.५"),             # Devanagari after the point
    ("Weather", "WindSpeed", "١٢ mph"),
    ("Head", "DatelineTime", "١٩٩٩0125T181917Z"),
])
def test_numbers_are_read_in_ascii_digits_only(event, element, text):
    xml = f"<NewsForm><{event}><{element}>{text}</{element}></{event}></NewsForm>"
    with pytest.raises(FieldTypeError) as info:
        parse_newsform(xml)
    assert info.value.path == f"{event}/{element}"


def test_money_amount_is_read_in_ascii_digits_only():
    xml = ("<NewsForm><Deal><DealValue><Amount>٥</Amount><Currency>USD</Currency>"
           "</DealValue></Deal></NewsForm>")
    with pytest.raises(FieldTypeError) as info:
        parse_newsform(xml)
    assert info.value.path == "Deal/DealValue/Amount"


@settings(max_examples=500)
@given(st.one_of(st.text(), st.text(alphabet="&<>;amplgtquo#\"' x\r")))
def test_escape_equals_saxutils_escape(text):
    assert escape(text) == saxutils.escape(text, {"\r": "&#13;"})


def test_integer_too_long_to_convert_is_a_type_error_with_path():
    xml = f"<NewsForm><Trip><VisitorCount>{'9' * 5000}</VisitorCount></Trip></NewsForm>"
    with pytest.raises(FieldTypeError) as info:
        parse_newsform(xml)
    assert info.value.path == "Trip/VisitorCount"
    assert str(info.value) == "Trip/VisitorCount: integer too long to read (5000 characters)"


# ---------------------------------------------------------------------------
# One walk: the reader's findings are exactly validate's, in full and in order

def _reader_findings(text) -> list:
    """The findings parse_newsform reports, held to validate's on the
    document it returns."""
    found = []
    form = parse_newsform(text, found)
    assert found == list(model.validate(form).errors)
    return found


# an invalid text per checked leaf kind, and the finding code it gives
_BAD_LEAF = {
    FieldKind.TEXT: (" ", "empty"),
    FieldKind.TOKEN: ("two words", "token"),
    FieldKind.ENUM: ("Bogus", "enum"),
    FieldKind.COUNTRY: ("ZZZ", "iso3166"),
    FieldKind.STATE: ("ZZ", "usps"),
    FieldKind.CURRENCY: ("usd", "iso4217"),
    FieldKind.TICKER: ("bel", "ticker"),
}


def _out_of_range(spec, rng) -> str:
    if spec.max_value is not None and rng.random() < 0.5:
        return model.format_decimal(spec.max_value + 1)
    low = spec.min_value if spec.min_exclusive else spec.min_value - 1
    return model.format_decimal(low)


def _bad_text(spec, rng):
    """Leaf text that reads into a value the field's check rejects, and the
    finding code; None when no text can (timestamps, measures, unbounded
    numbers)."""
    if spec.kind in _BAD_LEAF:
        return _BAD_LEAF[spec.kind]
    if spec.kind in (FieldKind.INT, FieldKind.DECIMAL) and spec.min_value is not None:
        return _out_of_range(spec, rng), "range"
    return None


def _leaves(elem, record):
    """(element, spec) of every leaf below ``elem``, the canonical element
    of ``record``."""
    populated = [(spec, item) for spec in model.specs_for(type(record))
                 for item in model.values_at(record, (spec,))]
    assert [child.tag for child in elem] == [spec.element for spec, _ in populated]
    for child, (spec, item) in zip(elem, populated):
        if not spec.records:
            yield child, spec
        else:
            wrapped = len(child) == 1 and child[0].tag in ("Person", "Organization")
            yield from _leaves(child[0] if wrapped else child, item)


def _shuffle(elem, rng):
    """Shuffle the children of every element that holds elements."""
    children = list(elem)
    for child in children:
        _shuffle(child, rng)
    rng.shuffle(children)
    elem[:] = children


_MONEY_XML = "<{0}><Amount>1</Amount><Currency>USD</Currency></{0}>"


def _break_event_rule(elem, rng) -> str:
    """Make an Earnings or Succession element break its event rule."""
    if elem.tag == "Earnings":
        for tag in ("EarningsAmount", "Loss"):
            if elem.find(tag) is None:
                elem.insert(rng.randrange(len(elem) + 1), ET.fromstring(_MONEY_XML.format(tag)))
        return "exclusive"
    for child in [c for c in elem if c.tag in ("In", "Out")]:
        elem.remove(child)
    return "required"


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.booleans(), st.booleans())
def test_reader_findings_equal_validate(seed, mutations, break_rules, shuffle):
    """Generated documents, with up to three leaves made invalid, event
    rules broken and children in shuffled order."""
    rng = random.Random(seed)
    doc = DocGenerator(seed).document()
    root = ET.fromstring(serialize_newsform(doc))
    leaves = list(_leaves(root[0], doc.head))
    for event_elem, event in zip(root[1:], doc.events):
        leaves.extend(_leaves(event_elem, event))
    codes = set()
    if break_rules:
        for event_elem in root[1:]:
            if event_elem.tag in ("Earnings", "Succession") and rng.random() < 0.7:
                codes.add(_break_event_rule(event_elem, rng))
    kept = set(root.iter())   # not in a removed In or Out
    candidates = [(elem, _bad_text(spec, rng)) for elem, spec in leaves if elem in kept]
    candidates = [(elem, bad) for elem, bad in candidates if bad is not None]
    for elem, (text, code) in rng.sample(candidates, min(mutations, len(candidates))):
        elem.text = text
        codes.add(code)
    if shuffle:
        _shuffle(root, rng)
    found = _reader_findings(ET.tostring(root, encoding="unicode"))
    assert {finding.code for finding in found} == codes


def _form(*events: str) -> str:
    return "<NewsForm><Head/>" + "".join(events) + "</NewsForm>"


@pytest.mark.parametrize("events, expected", [
    (["<FedWatch><FedAction>Increase</FedAction></FedWatch>"],
     [("FedWatch/FedAction", "enum")]),
    (["<InjuryFatality><Injured><Age>1</Age></Injured><Injured><Age>151</Age></Injured>"
      "<Injured><Age>3</Age></Injured></InjuryFatality>"],
     [("InjuryFatality/Injured[2]/Age", "range")]),
    (["<Trip><ToLocation><Country>ZZZ</Country></ToLocation></Trip>"],
     [("Trip/ToLocation/Country", "iso3166")]),
    (["<Trip><ToLocation><State>ZZ</State></ToLocation></Trip>"],
     [("Trip/ToLocation/State", "usps")]),
    (["<Deal><DealValue><Currency>usd</Currency><Amount>5</Amount></DealValue></Deal>"],
     [("Deal/DealValue/Currency", "iso4217")]),
    (["<Deal><Target><Ticker>bel</Ticker></Target></Deal>"],
     [("Deal/Target/Ticker", "ticker")]),
    (["<MedicalFinding><Illness>two words</Illness></MedicalFinding>"],
     [("MedicalFinding/Illness", "token")]),
    (["<Negotiation><Party><Organization><FullName>A</FullName></Organization></Party>"
      "<Party><Person><Given> </Given></Person></Party>"
      "<Party><Given>B</Given></Party></Negotiation>"],
     [("Negotiation/Party[2]/Given", "empty")]),
    (["<Earnings>" + _MONEY_XML.format("Loss") + _MONEY_XML.format("EarningsAmount")
      + "</Earnings>"],
     [("Earnings", "exclusive")]),
    (["<Succession><Function>CEO</Function></Succession>"],
     [("Succession", "required")]),
    # spec order within a record and list items in their order, whatever
    # the input order; the event rule after the event's fields; events in turn
    (["<Trip><VisitorCount>-3</VisitorCount><Visitor><Age>200</Age></Visitor>"
      "<Host><Ticker>x</Ticker></Host></Trip>",
      "<Succession><Function> </Function></Succession>",
      "<InjuryFatality><Killed><Age>-1</Age></Killed><Cause>Meteor</Cause>"
      "<Killed><Country>USA</Country></Killed><Killed><Age>151</Age></Killed>"
      "</InjuryFatality>"],
     [("Trip[1]/Host/Ticker", "ticker"), ("Trip[1]/Visitor/Age", "range"),
      ("Trip[1]/VisitorCount", "range"), ("Succession[2]/Function", "empty"),
      ("Succession[2]", "required"), ("InjuryFatality[3]/Cause", "enum"),
      ("InjuryFatality[3]/Killed[1]/Age", "range"),
      ("InjuryFatality[3]/Killed[3]/Age", "range")]),
], ids=["enum", "range-second-of-three", "iso3166", "usps", "iso4217", "ticker", "token",
        "empty-wrapped-second-of-three", "exclusive", "required", "order"])
def test_reader_reports_each_finding_where_validate_does(events, expected):
    found = _reader_findings(_form(*events))
    assert [(finding.path, finding.code) for finding in found] == expected


@pytest.mark.parametrize("tail, error", [
    ("<Bogus/>", SchemaError),
    ("<Visitor><Age>old</Age></Visitor>", FieldTypeError),
    ("<VisitorCount>4</VisitorCount>", SchemaError),
])
def test_an_error_after_a_finding_still_wins(tail, error):
    xml = _form(f"<Trip><VisitorCount>-3</VisitorCount>{tail}</Trip>")
    with pytest.raises(error):
        parse_newsform(xml, [])


def test_stray_text_wins_over_an_earlier_child_error():
    xml = _form("<Trip><VisitorCount>x</VisitorCount><Host/>stray</Trip>")
    with pytest.raises(SchemaError) as info:
        parse_newsform(xml, [])
    assert str(info.value) == "Trip: unexpected text content"


# ---------------------------------------------------------------------------
# Pinned outcomes: a seeded set of structurally mutated documents, each read
# to its exception or its findings, digested. The mutations keep the XML
# well-formed, so no message of the XML parser, which differs between
# Python versions, enters the digest.

# leaf texts: empty, out of range, an unknown token, an unknown code, other
_PIN_TEXTS = (("", "   "), ("-1", "151", "-91", "181", "-0.5", "99999999999"),
              ("Bogus", "two words", "bel", "x.Y"), ("ZZZ", "ZZ", "usd", "QQ"),
              ("0", "1.5", "+7", "1e5", "abc", "5 mph", "Male", "Win", "19990101T000000Z"))
_PIN_NUMBER_RE = re.compile(r"-?[0-9]+(\.[0-9]+)?$")
_PIN_TAGS = ("Age", "Cause", "Country", "Amount", "Currency", "Person", "Organization",
             "Given", "Sport", "Injured", "Mystery", "Head", "Trip", "City")
_PIN_SPORTS = ("Martial Arts", "MartialArts", " Martial Arts ", "martial arts",
               "Martial  Arts", "Martial_Arts")


def _pin_mutate(root, rng):
    """Apply one to three structural mutations to a document tree."""
    for _ in range(rng.randrange(1, 4)):
        elems = list(root.iter())
        parents = {child: parent for parent in elems for child in parent}
        elem = rng.choice(elems)
        parent = parents.get(elem)
        how = rng.randrange(11)
        if how == 0 and parent is not None:      # duplicate
            parent.insert(list(parent).index(elem), copy.deepcopy(elem))
        elif how == 1 and parent is not None:    # drop
            parent.remove(elem)
        elif how == 2 and parent is not None:    # move, within or across parents
            parent.remove(elem)
            target = rng.choice([e for e in root.iter() if e is not elem])
            target.insert(rng.randrange(len(target) + 1), elem)
        elif how == 3 and parent is not None:    # rename
            siblings = [c.tag for c in parent] + list(_PIN_TAGS)
            elem.tag = rng.choice(siblings)
        elif how in (4, 5, 6, 7):                # leaf text, numbers mostly out of range
            leaves = [e for e in elems if len(e) == 0 and e.tag != "DatelineTime"]
            if leaves:
                leaf = rng.choice(leaves)
                numeric = _PIN_NUMBER_RE.match(leaf.text or "") and rng.random() < 0.7
                leaf.text = rng.choice(_PIN_TEXTS[1] if numeric else rng.choice(_PIN_TEXTS))
        elif how == 8:                           # attribute
            elem.set(rng.choice(("id", "lang", "x")), str(rng.randrange(10)))
        elif how == 9:                           # stray text, or only space
            stray = rng.choice(("stray", " ", "\n  ", "x "))
            if parent is not None and rng.random() < 0.5:
                elem.tail = stray
            else:
                elem.text = stray
        else:                                    # a Sport in another spelling
            sports = [e for e in elems if e.tag == "Sport"]
            spelling = rng.choice(_PIN_SPORTS)
            if sports:
                rng.choice(sports).text = spelling
            else:
                event = ET.fromstring(f"<Competition><Sport>{spelling}</Sport></Competition>")
                root.insert(rng.randrange(len(root) + 1), event)


def _pin_outcome(text: str) -> tuple[str, str]:
    """The kind of a document's outcome and its text: the exception class
    and message, the findings, or the canonical form of a valid document."""
    found = []
    try:
        form = parse_newsform(text, found)
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    if found:
        return "findings", "\n".join(f"{f.path}\t{f.code}\t{f.message}" for f in found)
    return "valid", serialize_newsform(form)


def test_mutated_document_outcomes_are_pinned():
    rng = random.Random(160)
    generator = DocGenerator(160)
    digest = hashlib.sha256()
    kinds = collections.Counter()
    for n in range(2000):
        root = ET.fromstring(serialize_newsform(generator.document()))
        _pin_mutate(root, rng)
        kind, outcome = _pin_outcome(ET.tostring(root, encoding="unicode"))
        kinds[kind] += 1
        digest.update(f"{n}\t{kind}\n{outcome}\n".encode())
    assert min(kinds.values()) >= 50, kinds
    assert digest.hexdigest() == "36c8033a0e1bb0a128dc4bd64564b5c17dce7dfe9b4f2847fc067f3cef4ecdac"


# ---------------------------------------------------------------------------
# Every document validate accepts round-trips

@pytest.mark.parametrize("head", [None, Person(given="X")], ids=["none", "person"])
def test_a_head_that_is_not_a_head_is_a_type_finding(head):
    doc = NewsForm(head=head)
    assert [(f.path, f.code) for f in model.validate(doc).errors] == [("Head", "type")]
    with pytest.raises(SerializeError):
        serialize_newsform(doc)


@pytest.mark.parametrize("text, message", [
    (" A", "leading or trailing whitespace is not kept: ' A'"),
    ("A\n", "leading or trailing whitespace is not kept: 'A\\n'"),
    ("A\u2003", "leading or trailing whitespace is not kept: 'A\\u2003'"),
    ("A\x01B", "character '\\x01' cannot be written in XML"),
    ("A\ufffeB", "character '\\ufffe' cannot be written in XML"),
    ("A\ud800", "character '\\ud800' cannot be written in XML"),
])
def test_text_the_codec_cannot_read_back_is_a_text_finding(text, message):
    doc = NewsForm(events=(Trip(visitor=Person(given=text)),
                           model.Competition(competition_code=text)))
    assert [(f.path, f.code, f.message) for f in model.validate(doc).errors] == [
        ("Trip[1]/Visitor/Given", "text", message),
        ("Competition[2]/CompetitionCode", "text", message)]
    with pytest.raises(SerializeError):
        serialize_newsform(doc)


def test_a_ticker_or_unit_before_a_newline_is_a_finding():
    doc = NewsForm(events=(InjuryFatality(source=Organization(ticker="AB\n")),
                           Weather(high=model.Measure(Decimal(5), "kg\n"),
                                   low=model.Measure(Decimal(5), "k\x01g"))))
    assert [(f.path, f.code) for f in model.validate(doc).errors] == [
        ("InjuryFatality[1]/Source/Ticker", "ticker"),
        ("Weather[2]/High", "unit"), ("Weather[2]/Low", "unit")]


def test_a_carriage_return_is_written_as_a_reference_and_read_back():
    xml = ("<NewsForm>\n  <Head/>\n  <Trip>\n    <Visitor><Given>A&#13;B</Given></Visitor>\n"
           "  </Trip>\n</NewsForm>\n")
    doc = parse_newsform(xml)
    assert doc.events[0].visitor.given == "A\rB"
    assert serialize_newsform(doc) == xml


# text drawn to hit the characters the codec must refuse or escape, and any
# character at all; each lands in every kind of string slot of a document
_SLOT_TEXT = st.one_of(
    st.text(st.sampled_from("A1.x &<>\t\n\r\x01\x0b\x85\u2003\ufffe\ud800\U0001f600"),
            max_size=5),
    st.text(st.characters(blacklist_categories=()), max_size=5))

_SLOTS = (
    lambda text: Trip(visitor=Person(given=text)),                    # text
    lambda text: model.Competition(competition_code=text),            # token
    lambda text: InjuryFatality(source=Organization(ticker=text)),    # ticker
    lambda text: Weather(high=model.Measure(Decimal("90.5"), text)),  # measure unit
)


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), _SLOT_TEXT)
def test_every_document_validate_accepts_round_trips(seed, text):
    generated = DocGenerator(seed).document()
    for slot in _SLOTS:
        doc = NewsForm(head=generated.head, events=generated.events + (slot(text),))
        if model.validate(doc).ok:
            assert parse_newsform(serialize_newsform(doc)) == doc


@pytest.mark.parametrize("event, read", [
    (InjuryFatality(injured=None, killed_count=3), InjuryFatality(killed_count=3)),
    (InjuryFatality(injured=Person(given="A")), InjuryFatality(injured=(Person(given="A"),))),
    (InjuryFatality(injured=[Person(given="A")]), InjuryFatality(injured=(Person(given="A"),))),
])
def test_a_list_field_holds_a_tuple_whatever_it_was_given(event, read):
    assert event == read
    doc = NewsForm(events=(event,))
    assert parse_newsform(serialize_newsform(doc)) == doc


@pytest.mark.parametrize("events", [None, "InjuryFatality", InjuryFatality(), 3])
def test_events_that_are_not_a_tuple_are_one_type_finding(events):
    doc = NewsForm(events=events)
    assert [(f.path, f.code) for f in model.validate(doc).errors] == [("Events", "type")]
    with pytest.raises(SerializeError):
        serialize_newsform(doc)


# Wrong-shaped values: any of these in any slot of a generated document,
# the head, the events and each list item included
_WRONG = (None, "x", 7, True, 1.5, Person(given="A"), Organization(full_name="B"),
          model.Location(city="C"), Money(Decimal(5), "USD"),
          model.Measure(Decimal(5), "mph"), Head(), InjuryFatality(killed_count=1))


def _fields(record) -> tuple:
    """(attribute, whether it holds a tuple) of each field of a record or a document."""
    if isinstance(record, NewsForm):
        return ("head", False), ("events", True)
    return tuple((spec.attr, spec.is_list) for spec in model.specs_for(type(record)))


def _slots(record, prefix=()):
    """The path of every slot below ``record``: (attribute, item index or None) pairs."""
    for attr, is_list in _fields(record):
        value = getattr(record, attr)
        yield prefix + ((attr, None),)
        for index, item in enumerate(value) if is_list else ((None, value),):
            path = prefix + ((attr, index),)
            if index is not None:
                yield path
            if type(item) in model.CHILD_SPECS:
                yield from _slots(item, path)


def _get(record, path):
    for attr, index in path:
        record = getattr(record, attr)
        if index is not None:
            record = record[index]
    return record


def _put(record, path, value):
    """``record`` with ``value`` at ``path``, every record on the way rebuilt."""
    (attr, index), rest = path[0], path[1:]
    current = getattr(record, attr)
    if index is None:
        new = _put(current, rest, value) if rest else value
    else:
        item = _put(current[index], rest, value) if rest else value
        new = current[:index] + (item,) + current[index + 1:]
    return dataclasses.replace(record, **{attr: new})


@settings(max_examples=1000, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_a_wrong_shaped_value_in_any_slot_is_a_finding_or_round_trips(seed, data):
    generated = DocGenerator(seed).document()
    path = data.draw(st.sampled_from(list(_slots(generated))))
    current = _get(generated, path)
    lone = current[0] if isinstance(current, tuple) and current else current
    # besides _WRONG: a list where a scalar goes, a scalar where a list goes
    # and a tuple holding None
    wrong = data.draw(st.sampled_from(_WRONG + ([lone], [7], lone, (None,), (lone, None))))
    try:
        doc = _put(generated, path, wrong)
    except TypeError as exc:   # a Money amount is never a float, not even in memory
        assert "not float" in str(exc)
        return
    report = model.validate(doc)
    try:
        text = serialize_newsform(doc)
    except SerializeError:
        assert not report.ok
        return
    assert report.ok
    read = parse_newsform(text)
    assert read == doc
    assert serialize_newsform(read) == text

