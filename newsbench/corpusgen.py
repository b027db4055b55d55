"""Seeded document corpus, churn mutations and query mix for the query
workloads.

The generator is modelled on ``DocGenerator`` in ``tests/conftest.py``:
every field of every event type can appear, at density 0.45. Tickers,
names, countries, currencies and cities come from small pools so that
equality predicates get hits, and dateline times fall in one year so that
per-day statistics stay a few hundred lines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path
from typing import Optional

from newsforms import model
from newsforms.model import FieldKind, Head, Measure, Money, NewsForm, Organization, Person
from newsforms.xmlcodec import FILE_EXTENSION, serialize_newsform

from stories import FAMILY, GIVEN

TICKERS = ("BEL", "ATI", "GTE", "MSFT", "IBM", "INTC", "AAPL", "SNE", "NOK", "PFE",
           "BRK.A", "GS")
COUNTRIES = ("USA", "GBR", "FRA", "DEU", "JPN", "COL", "TUR", "MEX", "IND", "BRA",
             "CHN", "ITA")
CURRENCIES = ("USD", "EUR", "JPY", "GBP")
STATES = ("NY", "CA", "TX", "FL", "NC", "IL", "WA", "GA")
ORG_NAMES = ("Bell Atlantic", "AirTouch Communications", "Granite Holdings", "Sony",
             "Acme & Co", "Keystone Networks", "Pfizer", "O'Hara Industries")
CITIES = ("Chicago", "London", "Paris", "Bogota", "Ankara", "Tokyo", "Houston", "Lyon")
PRODUCTS = ("iMac DV", "Walkman NW", "Audi TT Quattro", "ThinkPad 600", "Palm V",
            "PowerBook G3", "Discman D-E", "Nokia 3210")
FUNCTIONS = ("Chief Executive", "Chairman", "President", "Chief Financial Officer",
             "Managing Director")
TEXTS = ("Acme & Co", "west <wing>", "O'Hara", "plan \"B\"", "coffee-growing",
         "route 66", "Ily & Sons <intl>", "unit A", "two words", "dash-dash")
UNITS = ("mph", "kph", "F", "C", "miles", "km", "hours")

# pooled text fields, by (record class, element)
_TEXT_POOLS = {
    (Person, "Given"): GIVEN, (Person, "Family"): FAMILY,
    (Person, "Function"): FUNCTIONS, (Organization, "FullName"): ORG_NAMES,
    (model.Location, "City"): CITIES, (model.NewProduct, "Item"): PRODUCTS,
    (model.Succession, "Function"): FUNCTIONS,
}

YEAR_START = datetime(1999, 1, 1, tzinfo=timezone.utc)
CORPUS_SIZE = 3000


class DocGenerator:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def _decimal(self, lo: int, hi: int, scale: int) -> Decimal:
        return Decimal(self.rng.randrange(lo, hi + 1)) / (Decimal(10) ** scale)

    def leaf(self, owner: type, spec: model.FieldSpec):
        rng = self.rng
        kind = spec.kind
        if kind is FieldKind.TEXT:
            return rng.choice(_TEXT_POOLS.get((owner, spec.element), TEXTS))
        if kind is FieldKind.TOKEN:
            return "Tok" + str(rng.randrange(40))
        if kind is FieldKind.INT:
            lo = int(spec.min_value) if spec.min_value is not None else 0
            hi = int(spec.max_value) if spec.max_value is not None else lo + 5000
            return rng.randrange(lo, hi + 1)
        if kind is FieldKind.DECIMAL:
            if spec.min_value is not None and spec.max_value is not None:
                lo = int(spec.min_value * 100) + (1 if spec.min_exclusive else 0)
                return Decimal(rng.randrange(lo, int(spec.max_value * 100) + 1)) / 100
            if spec.min_value is not None:
                base = int(spec.min_value) * 100
                return Decimal(rng.randrange(base + 1, base + 100000)) / 100
            return self._decimal(-10 ** 4, 10 ** 4, rng.randrange(0, 3))
        if kind is FieldKind.TIMESTAMP:
            return self.timestamp()
        if kind is FieldKind.ENUM:
            return rng.choice(list(spec.enum))
        if kind is FieldKind.COUNTRY:
            return rng.choice(COUNTRIES)
        if kind is FieldKind.STATE:
            return rng.choice(STATES)
        if kind is FieldKind.CURRENCY:
            return rng.choice(CURRENCIES)
        if kind is FieldKind.TICKER:
            return rng.choice(TICKERS)
        raise AssertionError(kind)

    def timestamp(self) -> datetime:
        return YEAR_START + timedelta(seconds=self.rng.randrange(365 * 24 * 3600))

    def record(self, cls: type, density: float):
        values = {}
        for spec in model.specs_for(cls):
            if self.rng.random() <= density:
                values[spec.attr] = self.field_value(cls, spec, density)
        return cls(**values)

    def field_value(self, owner: type, spec: model.FieldSpec, density: float):
        rng = self.rng
        kind = spec.kind
        if kind in model.LEAF_KINDS:
            return self.leaf(owner, spec)
        if kind is FieldKind.MONEY:
            return Money(self._decimal(-10 ** 7, 10 ** 9, rng.randrange(0, 3)),
                         rng.choice(CURRENCIES))
        if kind is FieldKind.MEASURE:
            return Measure(self._decimal(0, 10 ** 4, rng.randrange(0, 2)), rng.choice(UNITS))
        if kind is FieldKind.PERSON:
            return self.record(Person, density * 0.7)
        if kind is FieldKind.ORGANIZATION:
            return self.record(Organization, density * 0.7)
        if kind is FieldKind.LOCATION:
            return self.record(model.Location, density * 0.7)
        if kind is FieldKind.ORG_OR_PERSON:
            return self.record(Person if rng.random() < 0.5 else Organization, density * 0.7)
        if kind in model.LIST_KINDS:
            choices = {FieldKind.PERSON_LIST: (Person,), FieldKind.ORG_LIST: (Organization,),
                       FieldKind.ORG_OR_PERSON_LIST: (Person, Organization)}[kind]
            return tuple(self.record(rng.choice(choices), density * 0.6)
                         for _ in range(rng.randrange(1, 3)))
        raise AssertionError(kind)

    def event(self):
        event = self.record(self.rng.choice(list(model.EVENT_TYPES.values())), 0.45)
        if isinstance(event, model.Earnings) and event.earnings_amount is not None:
            event = replace(event, loss=None)
        if isinstance(event, model.Succession) and event.person_in is None \
                and event.person_out is None:
            event = replace(event, person_in=self.record(Person, 0.4))
        return event

    def document(self) -> NewsForm:
        head = Head(dateline_time=self.timestamp()) if self.rng.random() < 0.85 else Head()
        return NewsForm(head=head,
                        events=tuple(self.event() for _ in range(self.rng.randrange(0, 4))))


def invalid_text(rng: random.Random, doc: NewsForm) -> str:
    """Document text that the corpus index must skip: broken XML, an
    unknown element, or a value out of range."""
    choice = rng.randrange(3)
    if choice == 0:
        text = serialize_newsform(doc)
        return text[:len(text) // 2]
    if choice == 1:
        return "<NewsForm><Head/><Mystery/></NewsForm>\n"
    return "<NewsForm><Head/><Trip><VisitorCount>-3</VisitorCount></Trip></NewsForm>\n"


class Corpus:
    """A corpus directory and the generator's in-memory view of it.

    ``docs`` maps each file name to its document, or to None when the file
    was made invalid on purpose.
    """

    def __init__(self, directory: Path, seed: int, size: int = CORPUS_SIZE):
        self.directory = directory
        self.rng = random.Random(seed)
        self.gen = DocGenerator(self.rng)
        self.docs: dict[str, Optional[NewsForm]] = {}
        self.next_number = 0
        directory.mkdir(parents=True)
        for _ in range(size):
            self._write(self._new_name(), self.gen.document())

    def _new_name(self) -> str:
        self.next_number += 1
        return f"doc-{self.next_number:06d}{FILE_EXTENSION}"

    def _write(self, name: str, doc: NewsForm):
        (self.directory / name).write_text(serialize_newsform(doc), encoding="utf-8")
        self.docs[name] = doc

    def churn(self):
        """Edit ~1% of the files, add ~0.5%, delete ~0.5%, invalidate ~0.1%."""
        rng = self.rng
        n = len(self.docs)
        names = sorted(self.docs)
        for name in rng.sample(names, round(n * 0.01)):
            self._write(name, self.gen.document())
        for name in rng.sample(names, round(n * 0.005)):
            (self.directory / name).unlink()
            del self.docs[name]
        for _ in range(round(n * 0.005)):
            self._write(self._new_name(), self.gen.document())
        valid = sorted(name for name, doc in self.docs.items() if doc is not None)
        for name in rng.sample(valid, max(1, round(n * 0.001))):
            text = invalid_text(rng, self.docs[name])
            (self.directory / name).write_text(text, encoding="utf-8")
            self.docs[name] = None

    def invalid_paths(self, corpus_arg: str) -> set[str]:
        return {str(Path(corpus_arg) / name) for name, doc in self.docs.items() if doc is None}


# ---------------------------------------------------------------------------
# Query mix

@dataclass(frozen=True)
class QueryOp:
    """One query, stats or geo op, in the structured form the oracle reads."""

    kind: str                       # one of KINDS
    command: str                    # query | stats | geo
    variant: str
    predicates: tuple = ()          # (dotted path, op, literal)
    sort: Optional[str] = None      # dotted path, or DatelineTime
    descending: bool = False
    since: Optional[datetime] = None
    until: Optional[datetime] = None
    bucket: Optional[str] = None    # stats only

    def text(self) -> str:
        text = " and ".join(f"{self.variant}.{path} {op} {literal}"
                            for path, op, literal in self.predicates) or self.variant
        if self.sort is not None:
            path = self.sort if self.sort == "DatelineTime" else f"{self.variant}.{self.sort}"
            text += f" sort {path} {'desc' if self.descending else 'asc'}"
        if self.since is not None:
            text += f" since {self.since.strftime(model.TIMESTAMP_FORMAT)}"
        if self.until is not None:
            text += f" until {self.until.strftime(model.TIMESTAMP_FORMAT)}"
        return text

    def argv(self, corpus_arg: str) -> list[str]:
        if self.command == "stats":
            return ["stats", corpus_arg, self.variant, self.bucket]
        return [self.command, corpus_arg, self.text()]


_EQ = (("Deal", "Target.Ticker", TICKERS), ("Deal", "Acquirer.Ticker", TICKERS),
       ("Earnings", "Company.Ticker", TICKERS), ("IPO", "Company.Ticker", TICKERS),
       ("InjuryFatality", "AtLocation.Country", COUNTRIES),
       ("War", "AtLocation.Country", COUNTRIES), ("Trip", "Visitor.Family", FAMILY),
       ("Succession", "In.Family", FAMILY), ("Earnings", "GoodBad", ("Good", "Bad")),
       ("Weather", "AtLocation.State", STATES))
_RANGE = (("InjuryFatality", "KilledCount"), ("Vote", "InFavor"), ("Trip", "VisitorCount"),
          ("IPO", "Shares"), ("FedWatch", "Rate"), ("Deal", "Stake"))
_CONTAINS = (("NewProduct", "Item", ("mac", "Walkman", "600", "D-E", "pal")),
             ("Deal", "Target.FullName", ("Atlantic", "hold", "&", "o'hara")),
             ("InjuryFatality", "CauseEvent", ("wing", "route", "&")),
             ("Succession", "Function", ("chief", "Officer", "dent")))
_SORT = {
    "sort-int": (("InjuryFatality", "KilledCount"), ("Vote", "InFavor"), ("IPO", "Shares"),
                 ("Trip", "VisitorCount")),
    "sort-decimal": (("FedWatch", "Rate"), ("Deal", "Stake"), ("EconomicRelease", "Rate"),
                     ("IPO", "Stake")),
    "sort-money": (("Deal", "DealValue"), ("Earnings", "Sales"), ("IPO", "Raised"),
                   ("NewProduct", "Price")),
}

# The op kinds of the mix, with equal weight: no measured traffic says
# otherwise. QueryMix deals them in rounds, each kind once per round, so
# the money-sort share of whole rounds is exactly 1/12.
KINDS = ("eq", "range", "contains", "bare", "sort-int", "sort-decimal", "sort-timestamp",
         "sort-money", "window", "stats-day", "stats-week", "geo")
VARIANTS = tuple(model.EVENT_TYPES)


def _spec_at(variant: str, dotted: str):
    owner, spec = model.EVENT_TYPES[variant], None
    for element in dotted.split("."):
        spec = model.spec_by_element(owner, element)
        owner = {FieldKind.PERSON: Person, FieldKind.ORGANIZATION: Organization,
                 FieldKind.LOCATION: model.Location}.get(spec.kind)
    return spec


class QueryMix:
    """The seeded op stream of a query workload, in rounds of len(KINDS)
    ops: each round holds every kind once, in a seeded order."""

    def __init__(self, rng: random.Random, gen: DocGenerator):
        self.rng, self.gen = rng, gen
        self.pending: list[str] = []

    def next(self) -> QueryOp:
        if not self.pending:
            self.pending = self.rng.sample(KINDS, len(KINDS))
        return next_query(self.rng, self.gen, self.pending.pop())

    def round_ended(self) -> bool:
        return not self.pending


def next_query(rng: random.Random, gen: DocGenerator, kind: str) -> QueryOp:
    descending = rng.random() < 0.5
    if kind == "eq":
        variant, path, pool = rng.choice(_EQ)
        predicates = [(path, "=", rng.choice(pool))]
        if variant == "Deal" and rng.random() < 0.3:
            predicates.append(("DealStatus", "=", rng.choice(list(model.DealStatus)).value))
        return QueryOp(kind, "query", variant, tuple(predicates))
    if kind == "range":
        variant, path = rng.choice(_RANGE)
        spec = _spec_at(variant, path)
        literal = model.leaf_token(spec, gen.leaf(model.EVENT_TYPES[variant], spec))
        return QueryOp(kind, "query", variant, ((path, rng.choice("<>"), literal),))
    if kind == "contains":
        variant, path, words = rng.choice(_CONTAINS)
        return QueryOp(kind, "query", variant, ((path, "contains", rng.choice(words)),))
    if kind == "bare":
        return QueryOp(kind, "query", rng.choice(VARIANTS))
    if kind in _SORT:
        variant, path = rng.choice(_SORT[kind])
        return QueryOp(kind, "query", variant, sort=path, descending=descending)
    if kind == "sort-timestamp":
        return QueryOp(kind, "query", rng.choice(VARIANTS), sort="DatelineTime",
                       descending=descending)
    if kind == "window":
        since = gen.timestamp()
        return QueryOp(kind, "query", rng.choice(VARIANTS), since=since,
                       until=since + timedelta(days=rng.randrange(1, 60)))
    if kind in ("stats-day", "stats-week"):
        return QueryOp(kind, "stats", rng.choice(VARIANTS), bucket=kind.split("-")[1])
    predicates = ()
    if rng.random() < 0.3:
        predicates = (("GoodBad", "=", rng.choice(("Good", "Bad"))),)
        return QueryOp(kind, "geo", "Earnings", predicates)
    return QueryOp(kind, "geo", rng.choice(VARIANTS))
