"""Shared fixtures: packaged resources, a seeded document generator, and
the six-document fixture corpus the query tests run against."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path

import pytest

from newsforms import model
from newsforms.lexicons import load_lexicon_set
from newsforms.model import (
    FieldKind,
    Head,
    Location,
    Measure,
    Money,
    NewsForm,
    Organization,
    Person,
)
from newsforms.resources import packaged_data_root
from newsforms.rules import load_kb, load_rules
from newsforms.xmlcodec import serialize_newsform

EARTHQUAKE_XML = """<NewsForm>
  <Head>
    <DatelineTime>19990125T181917Z</DatelineTime>
  </Head>
  <InjuryFatality>
    <Cause>Earthquake</Cause>
    <InjuredCount>900</InjuredCount>
    <KilledCount>143</KilledCount>
    <Source><Function>Civil Defense Official</Function></Source>
    <AtLocation>
      <Country>COL</Country>
      <Latitude>4.29</Latitude>
      <Longitude>-75.68</Longitude>
    </AtLocation>
  </InjuryFatality>
</NewsForm>
"""

INTRO_TEXT = (
    "An earthquake struck western Colombia on Monday, killing at least 143 "
    "people and injuring more than 900 as it toppled buildings across the "
    "country's coffee-growing heartland, civil defense officials said."
)

JOSPIN_TEXT = (
    "Prime Minister Lionel Jospin kept silent on the fate of a key "
    "government ally. Jospin, confronted with a political time-bomb, said "
    "nothing. Beyond saying this was an affair for the justice system, he "
    "maintained an awkward silence."
)


@pytest.fixture(scope="session")
def data_root() -> Path:
    return packaged_data_root()


@pytest.fixture(scope="session")
def lexicons(data_root):
    return load_lexicon_set(data_root / "lexicons")


@pytest.fixture(scope="session")
def rules(data_root):
    return load_rules(data_root / "rules")


@pytest.fixture(scope="session")
def kb(data_root):
    return load_kb(data_root / "kb")


# ---------------------------------------------------------------------------
# Pseudo-random valid document generator (independent of the codec).

_TEXT_POOL = (
    "Acme & Co", "west <wing>", "O'Hara", "plan \"B\"", "coffee-growing",
    "route 66", "Ily & Sons <intl>", "unit A", "two words", "dash-dash",
)
_UNIT_POOL = ("mph", "kph", "F", "C", "miles", "km", "hours")


class DocGenerator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.countries = sorted(model.iso3166_codes())
        self.currencies = sorted(model.iso4217_codes())
        self.states = sorted(model.usps_state_codes())

    def decimal(self, lo: int, hi: int, scale: int) -> Decimal:
        return Decimal(self.rng.randrange(lo, hi + 1)) / (Decimal(10) ** scale)

    def leaf(self, spec: model.FieldSpec):
        rng = self.rng
        kind = spec.kind
        if kind is FieldKind.TEXT:
            return rng.choice(_TEXT_POOL)
        if kind is FieldKind.TOKEN:
            return "Tok" + str(rng.randrange(1000))
        if kind is FieldKind.INT:
            lo = int(spec.min_value) if spec.min_value is not None else 0
            hi = int(spec.max_value) if spec.max_value is not None else lo + 5000
            return rng.randrange(lo, hi + 1)
        if kind is FieldKind.DECIMAL:
            scale = rng.randrange(0, 3)
            if spec.min_value is not None and spec.max_value is not None:
                lo = int(spec.min_value * 100) + (1 if spec.min_exclusive else 0)
                hi = int(spec.max_value * 100)
                return Decimal(rng.randrange(lo, hi + 1)) / 100
            if spec.min_value is not None:
                base = int(spec.min_value)
                return Decimal(rng.randrange(base * 100 + 1, base * 100 + 100000)) / 100
            return self.decimal(-10 ** 4, 10 ** 4, scale)
        if kind is FieldKind.TIMESTAMP:
            start = datetime(1998, 1, 1, tzinfo=timezone.utc)
            return start + timedelta(seconds=rng.randrange(0, 4 * 365 * 24 * 3600))
        if kind is FieldKind.ENUM:
            return rng.choice(list(spec.enum))
        if kind is FieldKind.COUNTRY:
            return rng.choice(self.countries)
        if kind is FieldKind.STATE:
            return rng.choice(self.states)
        if kind is FieldKind.CURRENCY:
            return rng.choice(self.currencies)
        if kind is FieldKind.TICKER:
            base = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ")
                           for _ in range(rng.randrange(1, 5)))
            return base + (".A" if rng.random() < 0.2 else "")
        raise AssertionError(kind)

    def money(self) -> Money:
        amount = self.decimal(-10 ** 7, 10 ** 9, self.rng.randrange(0, 3))
        return Money(amount, self.rng.choice(self.currencies))

    def measure(self) -> Measure:
        return Measure(self.decimal(0, 10 ** 4, self.rng.randrange(0, 2)),
                       self.rng.choice(_UNIT_POOL))

    def record(self, cls, density: float):
        values = {}
        for spec in model.specs_for(cls):
            if self.rng.random() > density:
                continue
            values[spec.attr] = self.field_value(spec, density)
        return cls(**values)

    def field_value(self, spec: model.FieldSpec, density: float):
        kind = spec.kind
        if kind in model.LEAF_KINDS:
            return self.leaf(spec)
        if kind is FieldKind.MONEY:
            return self.money()
        if kind is FieldKind.MEASURE:
            return self.measure()
        if kind is FieldKind.PERSON:
            return self.record(Person, density * 0.7)
        if kind is FieldKind.ORGANIZATION:
            return self.record(Organization, density * 0.7)
        if kind is FieldKind.LOCATION:
            return self.record(Location, density * 0.7)
        if kind is FieldKind.ORG_OR_PERSON:
            cls = Person if self.rng.random() < 0.5 else Organization
            return self.record(cls, density * 0.7)
        if kind is FieldKind.PERSON_LIST:
            return tuple(self.record(Person, density * 0.6)
                         for _ in range(self.rng.randrange(1, 3)))
        if kind is FieldKind.ORG_LIST:
            return tuple(self.record(Organization, density * 0.6)
                         for _ in range(self.rng.randrange(1, 3)))
        if kind is FieldKind.ORG_OR_PERSON_LIST:
            return tuple(self.record(
                Person if self.rng.random() < 0.5 else Organization, density * 0.6)
                for _ in range(self.rng.randrange(1, 3)))
        raise AssertionError(kind)

    def event(self):
        cls = self.rng.choice(list(model.EVENT_TYPES.values()))
        event = self.record(cls, density=0.45)
        if isinstance(event, model.Earnings) and event.earnings_amount is not None \
                and event.loss is not None:
            event = model.Earnings(**{**_as_dict(event), "loss": None})
        if isinstance(event, model.Succession) and event.person_in is None \
                and event.person_out is None:
            event = model.Succession(**{**_as_dict(event),
                                        "person_in": self.record(Person, 0.4)})
        return event

    def document(self) -> NewsForm:
        head = Head()
        if self.rng.random() < 0.8:
            spec = model.spec_by_element(Head, "DatelineTime")
            head = Head(dateline_time=self.leaf(spec))
        events = tuple(self.event() for _ in range(self.rng.randrange(0, 4)))
        return NewsForm(head=head, events=events)


def _as_dict(record):
    return {spec.attr: getattr(record, spec.attr)
            for spec in model.specs_for(type(record))}


@pytest.fixture()
def generator():
    return DocGenerator(seed=990125)


def schema_paths(cls: type, prefix: str = "") -> set[str]:
    """Every dotted element path below a record class, following each
    record class a field may hold."""
    paths = set()
    for spec in model.specs_for(cls):
        path = prefix + spec.element
        paths.add(path)
        for record in spec.records:
            paths |= schema_paths(record, path + ".")
    return paths


# ---------------------------------------------------------------------------
# Fixture corpus: six hand-authored documents exercising the query engine.

def _dt(y, m, d, hh=12, mm=0, ss=0):
    return datetime(y, m, d, hh, mm, ss, tzinfo=timezone.utc)


def fixture_documents() -> dict[str, NewsForm]:
    return {
        "quake": NewsForm(
            head=Head(_dt(1999, 1, 25, 18, 19, 17)),
            events=(model.InjuryFatality(
                cause="Earthquake", injured_count=900, killed_count=143,
                source=Person(function="Civil Defense Official"),
                at_location=Location(country="COL", latitude=Decimal("4.29"),
                                     longitude=Decimal("-75.68"))),)),
        "target-bel": NewsForm(
            head=Head(_dt(1999, 1, 26, 9, 30)),
            events=(model.Deal(
                acquirer=Organization(full_name="GTE", ticker="GTE"),
                target=Organization(full_name="Bell Atlantic", ticker="BEL"),
                deal_status="Agreed",
                deal_value=Money(Decimal("52000000000"), "USD")),)),
        "acquirer-bel": NewsForm(
            head=Head(_dt(1999, 1, 26, 15, 0)),
            events=(
                model.Deal(
                    acquirer=Organization(full_name="Bell Atlantic", ticker="BEL"),
                    target=Organization(full_name="AirTouch Communications",
                                        ticker="ATI"),
                    deal_status="InTalks"),
                model.Earnings(
                    company=Organization(full_name="Bell Atlantic", ticker="BEL"),
                    good_bad="Bad", loss=Money(Decimal("120000000"), "USD")),
            )),
        "fed": NewsForm(
            head=Head(_dt(1999, 1, 27, 14, 15)),
            events=(model.FedWatch(fed_action="Raise",
                                   interest_rate="FederalFundsTarget",
                                   rate=Decimal("5.25")),
                    model.EconomicRelease(
                        economic_release_type="GrossDomesticProduct",
                        direction="Up", rate=Decimal("4.2"),
                        source=Organization(full_name="Department of Commerce")),)),
        "products": NewsForm(
            head=Head(_dt(1999, 1, 27, 9, 0)),
            events=(
                model.NewProduct(company=Organization(full_name="Apple Computer",
                                                      ticker="AAPL"),
                                 item="iMac DV", product_status="Released",
                                 price=Money(Decimal("1299"), "USD")),
                model.NewProduct(company=Organization(full_name="Sony",
                                                      ticker="SNE"),
                                 item="Walkman NW", product_status="Released"),
                model.NewProduct(company=Organization(full_name="Audi"),
                                 item="Audi TT Quattro", product_status="Released"),
            )),
        "storm": NewsForm(
            head=Head(_dt(1999, 1, 30, 6, 45)),
            events=(
                model.Weather(meteor="Hurricane", given="Floyd",
                              declared_state="Evacuation",
                              at_location=Location(country="USA", state="NC"),
                              wind_speed=Measure(Decimal("140"), "mph")),
                model.InjuryFatality(killed_count=2,
                                     at_location=Location(country="BHS")),
                model.Vote(vote_status="Passed", in_favor=57, against=43,
                           legislation="Bill",
                           voting_body=Organization(full_name="Senate"),
                           signer=Person(given="Bill", family="Clinton",
                                         country="USA")),
            )),
    }


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("corpus")
    for name, doc in fixture_documents().items():
        (directory / f"{name}.newsform.xml").write_text(
            serialize_newsform(doc), encoding="utf-8")
    return directory


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion, when any ran."""
    rows = []
    for key, word in (("passed", "PASS"), ("failed", "FAIL")):
        for report in terminalreporter.stats.get(key, []):
            if "test_acceptance" in report.nodeid:
                rows.append((report.nodeid.split("::")[-1], word))
    if rows:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for name, word in sorted(rows):
            terminalreporter.write_line(f"  {word}  {name}")
