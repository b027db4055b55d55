"""Parsing and canonical serialization."""

import random
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


def test_unknown_event_element_is_a_schema_error():
    with pytest.raises(SchemaError) as info:
        parse_newsform("<NewsForm><Head/><Scandal/></NewsForm>")
    assert "Scandal" in str(info.value)


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
@given(st.one_of(st.text(), st.text(alphabet="&<>;amplgtquo#\"' x")))
def test_escape_equals_saxutils_escape(text):
    assert escape(text) == saxutils.escape(text)


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
