"""Validation behavior of the typed document model."""

from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest
from hypothesis import example, given, settings, strategies as st

from newsforms import model
from newsforms.model import (
    Deal,
    Earnings,
    FedWatch,
    Head,
    InjuryFatality,
    IPO,
    Location,
    Money,
    NewsForm,
    Organization,
    Person,
    Succession,
    Trip,
    validate,
)
from newsforms.vocab import Cause, Sentiment, Sex

from conftest import DocGenerator, schema_paths


def earthquake_doc(latitude="4.29") -> NewsForm:
    return NewsForm(
        head=Head(datetime(1999, 1, 25, 18, 19, 17, tzinfo=timezone.utc)),
        events=(InjuryFatality(
            cause="Earthquake",
            injured_count=900,
            killed_count=143,
            source=Person(function="Civil Defense Official"),
            at_location=Location(country="COL", latitude=Decimal(latitude),
                                 longitude=Decimal("-75.68")),
        ),),
    )


def test_earthquake_document_is_valid():
    report = validate(earthquake_doc())
    assert report.errors == ()
    assert report.ok


def test_latitude_out_of_range_is_one_error_with_path():
    report = validate(earthquake_doc(latitude="95"))
    assert len(report.errors) == 1
    finding = report.errors[0]
    assert finding.path == "InjuryFatality/AtLocation/Latitude"
    assert finding.code == "range"


def test_unknown_fed_action_is_an_enum_error():
    doc = NewsForm(events=(FedWatch(fed_action="Increase"),))
    report = validate(doc)
    assert len(report.errors) == 1
    assert report.errors[0].path == "FedWatch/FedAction"
    assert report.errors[0].code == "enum"
    assert "Increase" in report.errors[0].message


def test_enum_tokens_normalize_on_construction():
    event = InjuryFatality(cause="Earthquake")
    assert event.cause is Cause.EARTHQUAKE
    person = Person(sex="Female")
    assert person.sex is Sex.FEMALE


def test_longitude_bounds():
    ok = NewsForm(events=(Trip(to_location=Location(longitude=Decimal("-180"))),))
    assert validate(ok).ok
    bad = NewsForm(events=(Trip(to_location=Location(longitude=Decimal("180.01"))),))
    assert [f.path for f in validate(bad).errors] == ["Trip/ToLocation/Longitude"]


def test_age_bounds():
    assert validate(NewsForm(events=(Trip(visitor=Person(age=150)),))).ok
    report = validate(NewsForm(events=(Trip(visitor=Person(age=151)),)))
    assert [f.code for f in report.errors] == ["range"]
    report = validate(NewsForm(events=(Trip(visitor=Person(age=-1)),)))
    assert [f.code for f in report.errors] == ["range"]


def test_stake_is_open_at_zero_closed_at_hundred():
    assert validate(NewsForm(events=(Deal(stake=Decimal("100")),))).ok
    assert validate(NewsForm(events=(Deal(stake=Decimal("0.01")),))).ok
    assert not validate(NewsForm(events=(Deal(stake=Decimal("0")),))).ok
    assert not validate(NewsForm(events=(Deal(stake=Decimal("100.1")),))).ok


def test_stock_ratio_positive_and_shares_positive():
    assert not validate(NewsForm(events=(Deal(stock_ratio=Decimal("0")),))).ok
    assert validate(NewsForm(events=(Deal(stock_ratio=Decimal("0.5")),))).ok
    assert not validate(NewsForm(events=(IPO(shares=0),))).ok
    assert validate(NewsForm(events=(IPO(shares=1),))).ok


def test_counts_must_be_nonnegative():
    report = validate(NewsForm(events=(InjuryFatality(killed_count=-1),)))
    assert [f.path for f in report.errors] == ["InjuryFatality/KilledCount"]


@pytest.mark.parametrize("ticker", ["BEL", "A", "BRK.A", "ABCDEF", "X1.B2"])
def test_good_tickers(ticker):
    doc = NewsForm(events=(Deal(target=Organization(ticker=ticker)),))
    assert validate(doc).ok


@pytest.mark.parametrize("ticker", ["", "bel", "TOOLONGX", "BEL.", ".A", "BEL SY"])
def test_bad_tickers(ticker):
    doc = NewsForm(events=(Deal(target=Organization(ticker=ticker)),))
    assert [f.code for f in validate(doc).errors] == ["ticker"]


def test_country_code_must_be_in_shipped_table():
    bad = NewsForm(events=(Trip(to_location=Location(country="XYZ")),))
    assert [f.code for f in validate(bad).errors] == ["iso3166"]
    lowercase = NewsForm(events=(Trip(to_location=Location(country="col")),))
    assert [f.code for f in validate(lowercase).errors] == ["iso3166"]


def test_currency_code_must_be_in_shipped_table():
    bad = NewsForm(events=(Deal(deal_value=Money(Decimal("1"), "XXX")),))
    assert [f.code for f in validate(bad).errors] == ["iso4217"]
    assert validate(NewsForm(events=(Deal(deal_value=Money(Decimal("1"), "GBP")),))).ok


def test_state_code_table_includes_quebec():
    assert validate(NewsForm(events=(Trip(to_location=Location(state="PQ")),))).ok
    assert validate(NewsForm(events=(Trip(to_location=Location(state="CT")),))).ok
    assert not validate(NewsForm(events=(Trip(to_location=Location(state="ZZ")),))).ok


def test_earnings_amount_and_loss_are_exclusive():
    both = Earnings(earnings_amount=Money(Decimal("1"), "USD"),
                    loss=Money(Decimal("2"), "USD"))
    report = validate(NewsForm(events=(both,)))
    assert [f.code for f in report.errors] == ["exclusive"]


def test_succession_needs_someone():
    report = validate(NewsForm(events=(Succession(function="CEO"),)))
    assert [f.code for f in report.errors] == ["required"]
    assert validate(NewsForm(events=(Succession(person_in=Person(given="Ann")),))).ok


def test_money_rejects_float():
    with pytest.raises(TypeError):
        Money(1.5, "USD")


def test_money_accepts_int_and_text_amounts():
    assert Money(5, "USD").amount == Decimal("5")
    assert Money("2.50", "USD").amount == Decimal("2.50")


def test_money_fields_are_required_and_the_rest_default_to_empty():
    with pytest.raises(TypeError):
        Money()
    with pytest.raises(TypeError):
        Money(1)
    list_fields = 0
    for cls, specs in model.CHILD_SPECS.items():
        if cls is Money:
            continue
        empty = cls()
        for spec in specs:
            assert getattr(empty, spec.attr) == (() if spec.is_list else None), spec
            list_fields += spec.is_list
    assert list_fields == 5


def test_leaf_token_spells_a_measure_as_the_document_does():
    high = model.spec_by_element(model.Weather, "High")
    assert model.leaf_token(high, model.Measure(Decimal("90.50"), "F")) == "90.50 F"
    assert model.leaf_token(high, model.Measure(Decimal("140"), "mph")) == "140 mph"


def test_leaf_token_spells_money_as_currency_and_amount():
    value = model.spec_by_element(Deal, "DealValue")
    assert model.leaf_token(value, Money(Decimal("2.50"), "USD")) == "USD:2.50"
    assert model.leaf_token(None, Money(Decimal("52000000000"), "EUR")) == "EUR:52000000000"


def test_dateline_must_be_utc():
    naive = NewsForm(head=Head(datetime(1999, 1, 25, 18, 19, 17)))
    assert [f.code for f in validate(naive).errors] == ["timezone"]


def test_empty_text_rejected():
    doc = NewsForm(events=(Trip(visitor=Person(family="  ")),))
    assert [f.code for f in validate(doc).errors] == ["empty"]


def test_multi_event_paths_carry_ordinals():
    doc = NewsForm(events=(FedWatch(fed_action="Hold"),
                           FedWatch(fed_action="Increase")))
    report = validate(doc)
    assert [f.path for f in report.errors] == ["FedWatch[2]/FedAction"]


def test_validation_is_pure_and_deterministic():
    doc = earthquake_doc(latitude="95")
    first = validate(doc)
    second = validate(doc)
    assert first == second


def test_validation_reports_every_violation_in_document_order():
    doc = NewsForm(events=(InjuryFatality(
        killed_count=-2,
        injured_count=-1,
        at_location=Location(country="ZZZ", latitude=Decimal("95")),
    ),))
    paths = [f.path for f in validate(doc).errors]
    assert paths == [
        "InjuryFatality/InjuredCount",
        "InjuryFatality/KilledCount",
        "InjuryFatality/AtLocation/Country",
        "InjuryFatality/AtLocation/Latitude",
    ]


# Values of the wrong type, which only an in-memory document can hold; each
# finding is what validate reported before its leaf check was split in two.
@pytest.mark.parametrize("event, expected", [
    (Trip(visitor=Person(family=7)), ("type", "expected text, got int")),
    (model.MedicalFinding(illness=b"flu"), ("type", "expected token, got bytes")),
    (Trip(visitor_count=True), ("type", "expected integer, got bool")),
    (Trip(visitor_count=Decimal("3")), ("type", "expected integer, got Decimal")),
    (Deal(stake=0.5), ("float", "binary floating point is not allowed; use Decimal")),
    (Deal(stake="half"), ("type", "expected decimal, got str")),
    (Deal(stake=Decimal("NaN")), ("range", "decimal must be finite")),
    (Deal(stake=Decimal("-Infinity")), ("range", "decimal must be finite")),
    (Trip(visitor=Person(sex=2)), ("enum", "'int' is not in the Sex vocabulary")),
    (Trip(visitor=Person(sex="Other")), ("enum", "'Other' is not in the Sex vocabulary")),
    (Trip(visitor=Person(country=840)), ("iso3166", "not a known 3-letter country code: 840")),
    (Deal(target=Organization(ticker=5)), ("ticker", "not a valid exchange ticker: 5")),
    (Trip(visitor=Person(age=Decimal("151"))), ("type", "expected integer, got Decimal")),
    (Trip(visitor=Person(age=151)), ("range", "value must be <= 150, got 151")),
    (Deal(stake=Decimal("0")), ("range", "value must be > 0, got 0")),
    (Deal(stake=Decimal("-0.50")), ("range", "value must be > 0, got -0.50")),
])
def test_type_and_value_findings_of_in_memory_values(event, expected):
    assert [(f.code, f.message) for f in validate(NewsForm(events=(event,))).errors] == [expected]


def test_dateline_of_the_wrong_type_or_zone():
    def finding(stamp):
        return [(f.code, f.message) for f in validate(NewsForm(head=Head(stamp))).errors]
    assert finding("19990125T181917Z") == [("type", "expected datetime, got str")]
    east = timezone(timedelta(hours=1))
    assert finding(datetime(1999, 1, 25, tzinfo=east)) == [("timezone", "timestamp must be UTC")]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(sorted(model.CHILD_SPECS, key=lambda cls: cls.__name__)))
def test_build_record_equals_construction(seed, cls):
    """Normalized values, unknown vocabulary tokens included, as the codec
    reads them."""
    gen = DocGenerator(seed)
    values = {}
    for spec in model.specs_for(cls):
        if cls is Money or gen.rng.random() < 0.6:
            values[spec.attr] = gen.field_value(spec, 0.5)
            if spec.kind is model.FieldKind.ENUM and gen.rng.random() < 0.3:
                values[spec.attr] = "Bogus"
    built = model.build_record(cls, values)
    made = cls(**values)
    assert type(built) is cls
    assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
    for spec in model.specs_for(cls):
        assert type(getattr(built, spec.attr)) is type(getattr(made, spec.attr))


# -- sentiment ---------------------------------------------------------------

def test_injury_fatality_is_negative():
    assert model.classify_sentiment(InjuryFatality()) is Sentiment.NEGATIVE


def test_good_earnings_are_positive_bad_negative():
    assert model.classify_sentiment(Earnings(good_bad="Good")) is Sentiment.POSITIVE
    assert model.classify_sentiment(Earnings(good_bad="Bad")) is Sentiment.NEGATIVE
    assert model.classify_sentiment(Earnings()) is Sentiment.OTHER


def test_plain_trip_is_other():
    assert model.classify_sentiment(Trip()) is Sentiment.OTHER


def test_sentiment_is_total_and_deterministic_over_all_types():
    for cls in model.EVENT_TYPES.values():
        event = cls()
        first = model.classify_sentiment(event)
        assert first in (Sentiment.POSITIVE, Sentiment.NEGATIVE, Sentiment.OTHER)
        assert model.classify_sentiment(event) is first


def test_latitude_acceptance_matches_range_exactly():
    import random
    rng = random.Random(5)
    for _ in range(200):
        lat = Decimal(rng.randrange(-20000, 20001)) / 100
        doc = NewsForm(events=(Trip(to_location=Location(latitude=lat)),))
        assert validate(doc).ok == (abs(lat) <= 90), lat


def test_wrong_python_types_are_reported_not_raised():
    doc = NewsForm(events=(Trip(visitor=Person(family=42), visitor_count="9"),))
    codes = {f.code for f in validate(doc).errors}
    assert codes == {"type"}


# ---------------------------------------------------------------------------
# Path resolution

def test_resolve_path_covers_every_schema_path():
    total = 0
    for cls in model.EVENT_TYPES.values():
        for path in schema_paths(cls):
            specs = model.resolve_path(cls, path)
            assert specs is not None, path
            assert [s.element for s in specs] == path.split("."), path
            total += 1
    assert total == 675


def test_resolve_path_tries_organization_then_person():
    org_side = model.resolve_path(model.EconomicRelease, "Source.Sport")
    person_side = model.resolve_path(model.EconomicRelease, "Source.Sex")
    assert org_side[-1] is model.spec_by_element(Organization, "Sport")
    assert person_side[-1] is model.spec_by_element(Person, "Sex")
    assert model.resolve_path(model.EconomicRelease, "Source.Email")[-1] \
        is model.spec_by_element(Organization, "Email")


def test_resolve_path_rejects_unknown_and_leaf_hops():
    for path in ("Nope", "Stake.Amount", "DealValue.Amount.X", "", "Target."):
        assert model.resolve_path(Deal, path) is None, path


def test_record_classes_follow_the_field_kind():
    records = {spec.element: spec.records for spec in model.specs_for(InjuryFatality)}
    assert records["Killed"] == (Person,)
    assert records["Source"] == (Organization, Person)
    assert records["AtLocation"] == (Location,)
    assert records["KilledCount"] == ()
    assert model.spec_by_element(Deal, "DealValue").records == (Money,)


def test_values_at_fans_out_over_lists():
    event = InjuryFatality(killed=(Person(family="A"), Person(given="B"), Person(family="C")))
    specs = model.resolve_path(InjuryFatality, "Killed.Family")
    assert model.values_at(event, specs) == ["A", "C"]
    assert model.values_at(InjuryFatality(), specs) == []


# ---------------------------------------------------------------------------
# Timestamps

def _strptime_or_error(text):
    try:
        return datetime.strptime(text, model.TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    except ValueError:
        return ValueError


def _parse_or_error(text):
    try:
        return model.parse_timestamp(text)
    except ValueError:
        return ValueError


# ASCII digits mostly, with Arabic-Indic, fullwidth and Devanagari ones
_DIGIT = st.one_of(st.sampled_from("0123456789"), st.sampled_from("٠٣٩０５९"))
_STAMP_SHAPED = st.builds(
    lambda date, time, t, z: "".join(date) + t + "".join(time) + z,
    st.lists(_DIGIT, min_size=7, max_size=9), st.lists(_DIGIT, min_size=5, max_size=7),
    st.sampled_from("Tt "), st.sampled_from(["Z", "z", "", "Z\n"]))


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.text(max_size=20), _STAMP_SHAPED))
@example("19990125T181917Z")
@example("19991325T000000Z")   # month 13
@example("19990025T000000Z")   # month 0
@example("19990100T000000Z")   # day 0
@example("19990229T000000Z")   # not a leap year
@example("20000229T000000Z")
@example("19990125T240000Z")
@example("19990125T006000Z")
@example("19990125T000060Z")   # second 60
@example("19990125T000061Z")
@example("00000125T000000Z")   # year 0
@example("19990125t181917z")
@example("1999125T181917Z")
@example("١٩٩٩٠١٢٥T181917Z")
@example("19990125T181917Z\n")
def test_parse_timestamp_agrees_with_strptime(text):
    # on ASCII text; strptime also reads other scripts' digits, which the
    # codec could not write back as they were read
    expected = _strptime_or_error(text) if text.isascii() else ValueError
    assert _parse_or_error(text) == expected
