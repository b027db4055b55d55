"""Typed in-memory representation of news-event documents.

A document (:class:`NewsForm`) is a header plus zero or more typed event
records drawn from 17 event classes. Values are immutable dataclasses;
constructing one performs light normalization (vocabulary tokens to enum
members, ints to exact decimals, lists to tuples) but never rejects, so
that invalid data can be represented and then reported by :func:`validate`.

Validation is pure and exhaustive: every vocabulary, code-table, and range
constraint violation is reported with the field path where it occurred.
An empty error list means the document is accepted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional, Union, get_args

from .resources import packaged_data_root, read_code_table
from .vocab import (
    AccusationAction,
    Agreement,
    ArmedConflict,
    ArmedForceAction,
    Boat,
    Cause,
    CompassDirection,
    CompetitionOutcome,
    Continent,
    DealStatus,
    DeclaredState,
    Direction,
    DispositionMethod,
    FedAction,
    GoodBad,
    IllnessFactor,
    InterestRateName,
    Judgment,
    JointVentureType,
    LegalAction,
    LegalFiling,
    Legislation,
    Meteor,
    NegotiationStatus,
    ProductStatus,
    SentenceType,
    Sentiment,
    Sex,
    Sport,
    VictimAction,
    VoteStatus,
)

TIMESTAMP_FORMAT = "%Y%m%dT%H%M%SZ"
_TIMESTAMP_RE = re.compile(r"([0-9]{4})([0-9]{2})([0-9]{2})T([0-9]{2})([0-9]{2})([0-9]{2})Z")

_TICKER_RE = re.compile(r"^[A-Z0-9]{1,6}(\.[A-Z0-9]{1,4})?$")
_TOKEN_RE = re.compile(r"^\S+$")
_CODE3_RE = re.compile(r"^[A-Z]{3}$")
_CODE2_RE = re.compile(r"^[A-Z]{2}$")


# ---------------------------------------------------------------------------
# Code tables (one code per line, shipped as plain text)

@lru_cache(maxsize=None)
def iso3166_codes() -> frozenset[str]:
    return read_code_table(packaged_data_root() / "iso3166.txt")


@lru_cache(maxsize=None)
def iso4217_codes() -> frozenset[str]:
    return read_code_table(packaged_data_root() / "iso4217.txt")


@lru_cache(maxsize=None)
def usps_state_codes() -> frozenset[str]:
    return read_code_table(packaged_data_root() / "usps_states.txt")


def format_decimal(value: Decimal) -> str:
    """Plain-notation decimal text; preserves the stored scale (2.50 stays 2.50)."""
    return format(value, "f")


def parse_timestamp(text: str) -> datetime:
    """The UTC datetime of dateline-format text (``YYYYMMDDTHHMMSSZ``).

    Accepts and rejects what ``datetime.strptime(text, TIMESTAMP_FORMAT)``
    does on ASCII text, raising ValueError, and rejects all other text:
    strptime reads other scripts' digits, which the codec would write back
    in ASCII. The canonical spelling skips strptime, which is slow, and any
    other ASCII spelling goes through it.
    """
    match = _TIMESTAMP_RE.fullmatch(text)
    if match is None:
        if not text.isascii():
            raise ValueError(f"time data {text!r} is not ASCII")
        return datetime.strptime(text, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    return datetime(*map(int, match.groups()), tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# Field schema
#
# Each record field declares its schema entry where the dataclass declares
# the field (``_f``), and ``CHILD_SPECS`` is derived from those fields, so
# dataclass field order is the canonical (output) order. Order is
# lexicographic by element name except InjuryFatality, whose AtLocation
# child comes last; that is the one type whose output order is pinned by the
# worked example this format follows. Each spec also carries the record
# classes its kind holds (``records``), so path resolution, validation, the
# XML codec, the rule-template compiler and the corpus index all branch on
# the spec, not on their own kind lists. ``resolve_path`` and ``values_at``
# are the one path resolver and value walker over this schema.

class FieldKind(Enum):
    TEXT = "text"
    TOKEN = "token"
    INT = "int"
    DECIMAL = "decimal"
    TIMESTAMP = "timestamp"
    ENUM = "enum"
    COUNTRY = "country"
    STATE = "state"
    CURRENCY = "currency"
    TICKER = "ticker"
    MONEY = "money"
    MEASURE = "measure"
    PERSON = "person"
    ORGANIZATION = "organization"
    ORG_OR_PERSON = "org_or_person"
    LOCATION = "location"
    PERSON_LIST = "person_list"
    ORG_LIST = "org_list"
    ORG_OR_PERSON_LIST = "org_or_person_list"


LEAF_KINDS = frozenset({
    FieldKind.TEXT, FieldKind.TOKEN, FieldKind.INT, FieldKind.DECIMAL,
    FieldKind.TIMESTAMP, FieldKind.ENUM, FieldKind.COUNTRY, FieldKind.STATE,
    FieldKind.CURRENCY, FieldKind.TICKER,
})

LIST_KINDS = frozenset({
    FieldKind.PERSON_LIST, FieldKind.ORG_LIST, FieldKind.ORG_OR_PERSON_LIST,
})

ORDERED_KINDS = frozenset({
    FieldKind.INT, FieldKind.DECIMAL, FieldKind.TIMESTAMP, FieldKind.MONEY,
})


@dataclass(frozen=True)
class FieldSpec:
    element: str
    attr: str
    kind: FieldKind
    enum: Optional[type] = None
    min_value: Optional[Decimal] = None
    max_value: Optional[Decimal] = None
    min_exclusive: bool = False
    records: tuple[type, ...] = ()   # record classes a value may be; () for leaves
    # ``kind in LIST_KINDS``, kept on the spec because the per-field loops
    # of parsing, validation and indexing would hash the enum member each time
    is_list: bool = field(init=False)
    # a leaf's two checks (see "Leaf checks"); None where the kind has none
    type_check: Optional[Callable] = field(init=False, repr=False, compare=False)
    value_check: Optional[Callable] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "is_list", self.kind in LIST_KINDS)
        object.__setattr__(self, "type_check", _type_check(self))
        object.__setattr__(self, "value_check", _value_check(self))


def _f(element, kind, enum=None, lo=None, hi=None, lo_open=False, required=False):
    """A record field with its schema entry: the FieldSpec arguments but the
    attribute name and record classes, which ``CHILD_SPECS`` fills in. The
    default is None, or () for list kinds, unless the field is required."""
    spec = dict(element=element, kind=kind, enum=enum,
                min_value=None if lo is None else Decimal(lo),
                max_value=None if hi is None else Decimal(hi), min_exclusive=lo_open)
    if required:
        return field(metadata={"spec": spec})
    return field(default=() if kind in LIST_KINDS else None, metadata={"spec": spec})


# ---------------------------------------------------------------------------
# Leaf checks
#
# Each leaf spec carries two checks, each a function of the value that
# returns its finding's (code, message), or None when there is nothing to
# report. The type check asks whether the value has the type its kind holds
# (text and tokens str, INT an int, DECIMAL a finite Decimal, TIMESTAMP a
# UTC datetime); the codec reads every leaf into that type, so only
# in-memory documents can fail it. The value check asks whether a value of
# that type is allowed: bounds, vocabulary, code tables, tokens and
# tickers. ``validate`` runs both; the codec runs the value check on each
# leaf as it reads it.

# the type each kind holds and its name in a type finding; the other leaf
# kinds have no type check, as their value check takes any value
_LEAF_TYPES = {
    FieldKind.TEXT: (str, "text"), FieldKind.TOKEN: (str, "token"),
    FieldKind.INT: (int, "integer"), FieldKind.DECIMAL: (Decimal, "decimal"),
    FieldKind.TIMESTAMP: (datetime, "datetime"),
}

# the code-table kinds: finding code, code shape, table, name in the message
_CODE_KINDS = {
    FieldKind.COUNTRY: ("iso3166", _CODE3_RE, iso3166_codes, "3-letter country code"),
    FieldKind.STATE: ("usps", _CODE2_RE, usps_state_codes, "2-letter state code"),
    FieldKind.CURRENCY: ("iso4217", _CODE3_RE, iso4217_codes, "3-letter currency code"),
}

_UTC_OFFSET = timedelta(0)


def _type_check(spec: FieldSpec) -> Optional[Callable]:
    """The type check of a leaf field, or None (see above)."""
    if spec.kind not in _LEAF_TYPES:
        return None
    expected, name = _LEAF_TYPES[spec.kind]
    decimal = spec.kind is FieldKind.DECIMAL
    timestamp = spec.kind is FieldKind.TIMESTAMP

    def check(value):
        if decimal and isinstance(value, float):
            return "float", "binary floating point is not allowed; use Decimal"
        if not isinstance(value, expected) or isinstance(value, bool):
            return "type", f"expected {name}, got {type(value).__name__}"
        if decimal and not value.is_finite():
            return "range", "decimal must be finite"
        if timestamp and value.utcoffset() != _UTC_OFFSET:
            return "timezone", "timestamp must be UTC"
        return None
    return check


def _value_check(spec: FieldSpec) -> Optional[Callable]:
    """The value check of a leaf field, or None when its kind has none
    (timestamps, measures, records). An enum value may also be the unknown
    token the codec keeps, which it reports."""
    kind = spec.kind
    if kind is FieldKind.INT or kind is FieldKind.DECIMAL:
        return _bounds_check(spec)
    if kind is FieldKind.TEXT:
        def check(value):
            return None if value.strip() else ("empty", "text content must be non-empty")
    elif kind is FieldKind.TOKEN:
        def check(value):
            if _TOKEN_RE.match(value):
                return None
            return "token", f"not a whitespace-free token: {value!r}"
    elif kind is FieldKind.ENUM:
        vocabulary = spec.enum

        def check(value):
            if isinstance(value, vocabulary):
                return None
            shown = value if isinstance(value, str) else type(value).__name__
            return "enum", f"{shown!r} is not in the {vocabulary.__name__} vocabulary"
    elif kind in _CODE_KINDS:
        code, shape, table, name = _CODE_KINDS[kind]

        def check(value):
            if isinstance(value, str) and shape.match(value) and value in table():
                return None
            return code, f"not a known {name}: {value!r}"
    elif kind is FieldKind.TICKER:
        def check(value):
            if isinstance(value, str) and _TICKER_RE.match(value):
                return None
            return "ticker", f"not a valid exchange ticker: {value!r}"
    else:
        return None
    return check


def _bounds_check(spec: FieldSpec) -> Optional[Callable]:
    """The range check of a number field; None when it has no bounds."""
    lo, hi, lo_open = spec.min_value, spec.max_value, spec.min_exclusive
    if lo is None and hi is None:
        return None
    rel = ">" if lo_open else ">="

    def check(value):
        if lo is not None and (value < lo or lo_open and value == lo):
            return "range", f"value must be {rel} {format_decimal(lo)}, " \
                            f"got {format_decimal(Decimal(value))}"
        if hi is not None and value > hi:
            return "range", f"value must be <= {format_decimal(hi)}, " \
                            f"got {format_decimal(Decimal(value))}"
        return None
    return check


# ---------------------------------------------------------------------------
# Value types

class _Record:
    """Shared immutable-dataclass behavior: normalize fields on construction."""

    def __post_init__(self):
        for spec in _NORMALIZED_SPECS.get(type(self), ()):
            value = getattr(self, spec.attr)
            norm = _normalize(spec, value)
            if norm is not value:
                object.__setattr__(self, spec.attr, norm)


def _to_decimal(value):
    if isinstance(value, Decimal):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Decimal(value)
    if isinstance(value, str):
        try:
            return Decimal(value)
        except InvalidOperation:
            return value
    return value


def _normalize(spec: FieldSpec, value):
    if value is None:
        return None
    if spec.kind is FieldKind.ENUM and isinstance(value, str):
        try:
            return spec.enum(value)
        except ValueError:
            return value
    if spec.kind is FieldKind.DECIMAL:
        return _to_decimal(value)
    if spec.is_list:
        if isinstance(value, list):
            return tuple(value)
        return value
    return value


@dataclass(frozen=True)
class Person(_Record):
    additional: Optional[str] = _f("Additional", FieldKind.TEXT)
    age: Optional[int] = _f("Age", FieldKind.INT, lo=0, hi=150)
    country: Optional[str] = _f("Country", FieldKind.COUNTRY)
    email: Optional[str] = _f("Email", FieldKind.TEXT)
    family: Optional[str] = _f("Family", FieldKind.TEXT)
    function: Optional[str] = _f("Function", FieldKind.TEXT)
    given: Optional[str] = _f("Given", FieldKind.TEXT)
    prefix: Optional[str] = _f("Prefix", FieldKind.TEXT)
    sex: Optional[Sex] = _f("Sex", FieldKind.ENUM, enum=Sex)
    suffix: Optional[str] = _f("Suffix", FieldKind.TEXT)
    url: Optional[str] = _f("URL", FieldKind.TEXT)


@dataclass(frozen=True)
class Location(_Record):
    city: Optional[str] = _f("City", FieldKind.TEXT)
    continent: Optional[Continent] = _f("Continent", FieldKind.ENUM, enum=Continent)
    country: Optional[str] = _f("Country", FieldKind.COUNTRY)
    latitude: Optional[Decimal] = _f("Latitude", FieldKind.DECIMAL, lo=-90, hi=90)
    longitude: Optional[Decimal] = _f("Longitude", FieldKind.DECIMAL, lo=-180, hi=180)
    region: Optional[str] = _f("Region", FieldKind.TEXT)
    state: Optional[str] = _f("State", FieldKind.STATE)
    url: Optional[str] = _f("URL", FieldKind.TEXT)


@dataclass(frozen=True)
class Organization(_Record):
    email: Optional[str] = _f("Email", FieldKind.TEXT)
    full_name: Optional[str] = _f("FullName", FieldKind.TEXT)
    nickname: Optional[str] = _f("Nickname", FieldKind.TEXT)
    organization_type: Optional[str] = _f("OrganizationType", FieldKind.TOKEN)
    sport: Optional[Sport] = _f("Sport", FieldKind.ENUM, enum=Sport)
    ticker: Optional[str] = _f("Ticker", FieldKind.TICKER)
    url: Optional[str] = _f("URL", FieldKind.TEXT)


OrgOrPerson = Union[Organization, Person]


@dataclass(frozen=True)
class Money(_Record):
    """Exact decimal amount in an ISO 4217 currency. Never floating point."""

    amount: Decimal = _f("Amount", FieldKind.DECIMAL, required=True)
    currency: str = _f("Currency", FieldKind.CURRENCY, required=True)

    def __post_init__(self):
        if isinstance(self.amount, float):
            raise TypeError("Money amount must be Decimal, int, or numeric text, not float")
        super().__post_init__()


@dataclass(frozen=True)
class Measure:
    """A scalar with a unit word, e.g. 75 mph or 32 F."""

    value: Decimal
    unit: str

    def __post_init__(self):
        if isinstance(self.value, float):
            raise TypeError("Measure value must be Decimal, int, or numeric text, not float")


@dataclass(frozen=True)
class Head(_Record):
    dateline_time: Optional[datetime] = _f("DatelineTime", FieldKind.TIMESTAMP)


# ---------------------------------------------------------------------------
# Event types

@dataclass(frozen=True)
class Competition(_Record):
    competition_code: Optional[str] = _f("CompetitionCode", FieldKind.TOKEN)
    competition_outcome: Optional[CompetitionOutcome] = _f(
        "CompetitionOutcome", FieldKind.ENUM, enum=CompetitionOutcome)
    player: Optional[Person] = _f("Player", FieldKind.PERSON)
    sport: Optional[Sport] = _f("Sport", FieldKind.ENUM, enum=Sport)
    team: Optional[Organization] = _f("Team", FieldKind.ORGANIZATION)


@dataclass(frozen=True)
class Deal(_Record):
    acquirer: Optional[Organization] = _f("Acquirer", FieldKind.ORGANIZATION)
    advisor: Optional[Organization] = _f("Advisor", FieldKind.ORGANIZATION)
    deal_status: Optional[DealStatus] = _f("DealStatus", FieldKind.ENUM, enum=DealStatus)
    deal_value: Optional[Money] = _f("DealValue", FieldKind.MONEY)
    share_price: Optional[Money] = _f("SharePrice", FieldKind.MONEY)
    stake: Optional[Decimal] = _f("Stake", FieldKind.DECIMAL, lo=0, hi=100, lo_open=True)
    stock_ratio: Optional[Decimal] = _f("StockRatio", FieldKind.DECIMAL, lo=0, lo_open=True)
    successor: Optional[Organization] = _f("Successor", FieldKind.ORGANIZATION)
    survivor: Optional[Organization] = _f("Survivor", FieldKind.ORGANIZATION)
    target: Optional[Organization] = _f("Target", FieldKind.ORGANIZATION)


@dataclass(frozen=True)
class Earnings(_Record):
    company: Optional[Organization] = _f("Company", FieldKind.ORGANIZATION)
    eps: Optional[Money] = _f("EPS", FieldKind.MONEY)
    earnings_amount: Optional[Money] = _f("EarningsAmount", FieldKind.MONEY)
    good_bad: Optional[GoodBad] = _f("GoodBad", FieldKind.ENUM, enum=GoodBad)
    loss: Optional[Money] = _f("Loss", FieldKind.MONEY)
    previous_eps: Optional[Money] = _f("PreviousEPS", FieldKind.MONEY)
    previous_earnings: Optional[Money] = _f("PreviousEarnings", FieldKind.MONEY)
    sales: Optional[Money] = _f("Sales", FieldKind.MONEY)
    sales_ps: Optional[Money] = _f("SalesPS", FieldKind.MONEY)


@dataclass(frozen=True)
class EconomicRelease(_Record):
    annual_rate: Optional[Decimal] = _f("AnnualRate", FieldKind.DECIMAL)
    direction: Optional[Direction] = _f("Direction", FieldKind.ENUM, enum=Direction)
    economic_release_type: Optional[str] = _f("EconomicReleaseType", FieldKind.TOKEN)
    growth: Optional[Money] = _f("Growth", FieldKind.MONEY)
    growth_rate: Optional[Decimal] = _f("GrowthRate", FieldKind.DECIMAL)
    previous_rate: Optional[Decimal] = _f("PreviousRate", FieldKind.DECIMAL)
    rate: Optional[Decimal] = _f("Rate", FieldKind.DECIMAL)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)


@dataclass(frozen=True)
class FedWatch(_Record):
    actor: Optional[Organization] = _f("Actor", FieldKind.ORGANIZATION)
    fed_action: Optional[FedAction] = _f("FedAction", FieldKind.ENUM, enum=FedAction)
    interest_rate: Optional[InterestRateName] = _f(
        "InterestRate", FieldKind.ENUM, enum=InterestRateName)
    rate: Optional[Decimal] = _f("Rate", FieldKind.DECIMAL)


@dataclass(frozen=True)
class IPO(_Record):
    company: Optional[Organization] = _f("Company", FieldKind.ORGANIZATION)
    market_cap: Optional[Money] = _f("MarketCap", FieldKind.MONEY)
    raised: Optional[Money] = _f("Raised", FieldKind.MONEY)
    shares: Optional[int] = _f("Shares", FieldKind.INT, lo=1)
    stake: Optional[Decimal] = _f("Stake", FieldKind.DECIMAL, lo=0, hi=100, lo_open=True)


@dataclass(frozen=True)
class InjuryFatality(_Record):
    accident_car: Optional[str] = _f("AccidentCar", FieldKind.TEXT)
    accident_plane: Optional[str] = _f("AccidentPlane", FieldKind.TEXT)
    boat: Optional[Boat] = _f("Boat", FieldKind.ENUM, enum=Boat)
    cause: Optional[Cause] = _f("Cause", FieldKind.ENUM, enum=Cause)
    cause_event: Optional[str] = _f("CauseEvent", FieldKind.TEXT)
    hospitalized: tuple[Person, ...] = _f("Hospitalized", FieldKind.PERSON_LIST)
    injured: tuple[Person, ...] = _f("Injured", FieldKind.PERSON_LIST)
    injured_count: Optional[int] = _f("InjuredCount", FieldKind.INT, lo=0)
    killed: tuple[Person, ...] = _f("Killed", FieldKind.PERSON_LIST)
    killed_count: Optional[int] = _f("KilledCount", FieldKind.INT, lo=0)
    landed_plane: Optional[str] = _f("LandedPlane", FieldKind.TEXT)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)
    survived_by: Optional[str] = _f("SurvivedBy", FieldKind.TEXT)
    at_location: Optional[Location] = _f("AtLocation", FieldKind.LOCATION)


@dataclass(frozen=True)
class JointVenture(_Record):
    companies: tuple[Organization, ...] = _f("Company", FieldKind.ORG_LIST)
    item: Optional[str] = _f("Item", FieldKind.TEXT)
    joint_venture_type: Optional[JointVentureType] = _f(
        "JointVentureType", FieldKind.ENUM, enum=JointVentureType)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)


@dataclass(frozen=True)
class LegalEvent(_Record):
    accusation_action: Optional[AccusationAction] = _f(
        "AccusationAction", FieldKind.ENUM, enum=AccusationAction)
    accused: Optional[OrgOrPerson] = _f("Accused", FieldKind.ORG_OR_PERSON)
    accuser: Optional[OrgOrPerson] = _f("Accuser", FieldKind.ORG_OR_PERSON)
    arbiter: Optional[OrgOrPerson] = _f("Arbiter", FieldKind.ORG_OR_PERSON)
    arrested: Optional[Person] = _f("Arrested", FieldKind.PERSON)
    attorney: Optional[Person] = _f("Attorney", FieldKind.PERSON)
    award: Optional[Money] = _f("Award", FieldKind.MONEY)
    disposition_method: Optional[DispositionMethod] = _f(
        "DispositionMethod", FieldKind.ENUM, enum=DispositionMethod)
    forum: Optional[Organization] = _f("Forum", FieldKind.ORGANIZATION)
    judgment: Optional[Judgment] = _f("Judgment", FieldKind.ENUM, enum=Judgment)
    legal_action: Optional[LegalAction] = _f("LegalAction", FieldKind.ENUM, enum=LegalAction)
    legal_filing: Optional[LegalFiling] = _f("LegalFiling", FieldKind.ENUM, enum=LegalFiling)
    plea: Optional[Judgment] = _f("Plea", FieldKind.ENUM, enum=Judgment)
    released: Optional[Person] = _f("Released", FieldKind.PERSON)
    releaser: Optional[OrgOrPerson] = _f("Releaser", FieldKind.ORG_OR_PERSON)
    sentence_duration: Optional[str] = _f("SentenceDuration", FieldKind.TEXT)
    sentence_type: Optional[SentenceType] = _f("SentenceType", FieldKind.ENUM, enum=SentenceType)
    witness: Optional[Person] = _f("Witness", FieldKind.PERSON)


@dataclass(frozen=True)
class MedicalFinding(_Record):
    illness: Optional[str] = _f("Illness", FieldKind.TOKEN)
    illness_factor: Optional[IllnessFactor] = _f(
        "IllnessFactor", FieldKind.ENUM, enum=IllnessFactor)


@dataclass(frozen=True)
class Negotiation(_Record):
    agreement: Optional[Agreement] = _f("Agreement", FieldKind.ENUM, enum=Agreement)
    negotiation_status: Optional[NegotiationStatus] = _f(
        "NegotiationStatus", FieldKind.ENUM, enum=NegotiationStatus)
    negotiator: Optional[Person] = _f("Negotiator", FieldKind.PERSON)
    parties: tuple[OrgOrPerson, ...] = _f("Party", FieldKind.ORG_OR_PERSON_LIST)


@dataclass(frozen=True)
class NewProduct(_Record):
    company: Optional[Organization] = _f("Company", FieldKind.ORGANIZATION)
    item: Optional[str] = _f("Item", FieldKind.TEXT)
    price: Optional[Money] = _f("Price", FieldKind.MONEY)
    product_status: Optional[ProductStatus] = _f(
        "ProductStatus", FieldKind.ENUM, enum=ProductStatus)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)
    support_for: Optional[str] = _f("SupportFor", FieldKind.TEXT)


@dataclass(frozen=True)
class Succession(_Record):
    employer: Optional[OrgOrPerson] = _f("Employer", FieldKind.ORG_OR_PERSON)
    function: Optional[str] = _f("Function", FieldKind.TEXT)
    person_in: Optional[Person] = _f("In", FieldKind.PERSON)
    person_out: Optional[Person] = _f("Out", FieldKind.PERSON)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)


@dataclass(frozen=True)
class Trip(_Record):
    host: Optional[OrgOrPerson] = _f("Host", FieldKind.ORG_OR_PERSON)
    to_location: Optional[Location] = _f("ToLocation", FieldKind.LOCATION)
    visitor: Optional[Person] = _f("Visitor", FieldKind.PERSON)
    visitor_count: Optional[int] = _f("VisitorCount", FieldKind.INT, lo=0)


@dataclass(frozen=True)
class Vote(_Record):
    against: Optional[int] = _f("Against", FieldKind.INT, lo=0)
    in_favor: Optional[int] = _f("InFavor", FieldKind.INT, lo=0)
    law: Optional[str] = _f("Law", FieldKind.TEXT)
    legislation: Optional[Legislation] = _f("Legislation", FieldKind.ENUM, enum=Legislation)
    signer: Optional[Person] = _f("Signer", FieldKind.PERSON)
    vote_status: Optional[VoteStatus] = _f("VoteStatus", FieldKind.ENUM, enum=VoteStatus)
    voting_body: Optional[Organization] = _f("VotingBody", FieldKind.ORGANIZATION)


@dataclass(frozen=True)
class War(_Record):
    armed_conflict: Optional[ArmedConflict] = _f(
        "ArmedConflict", FieldKind.ENUM, enum=ArmedConflict)
    armed_force: Optional[str] = _f("ArmedForce", FieldKind.TEXT)
    armed_force_action: Optional[ArmedForceAction] = _f(
        "ArmedForceAction", FieldKind.ENUM, enum=ArmedForceAction)
    at_location: Optional[Location] = _f("AtLocation", FieldKind.LOCATION)
    leader: Optional[OrgOrPerson] = _f("Leader", FieldKind.ORG_OR_PERSON)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)
    victim: Optional[str] = _f("Victim", FieldKind.TEXT)
    victim_action: Optional[VictimAction] = _f("VictimAction", FieldKind.ENUM, enum=VictimAction)


@dataclass(frozen=True)
class Weather(_Record):
    at_location: Optional[Location] = _f("AtLocation", FieldKind.LOCATION)
    compass_direction: Optional[CompassDirection] = _f(
        "CompassDirection", FieldKind.ENUM, enum=CompassDirection)
    declared_state: Optional[DeclaredState] = _f(
        "DeclaredState", FieldKind.ENUM, enum=DeclaredState)
    declarer: Optional[OrgOrPerson] = _f("Declarer", FieldKind.ORG_OR_PERSON)
    distance_from_location: Optional[Measure] = _f("DistanceFromLocation", FieldKind.MEASURE)
    given: Optional[str] = _f("Given", FieldKind.TEXT)
    high: Optional[Measure] = _f("High", FieldKind.MEASURE)
    issuer: Optional[OrgOrPerson] = _f("Issuer", FieldKind.ORG_OR_PERSON)
    low: Optional[Measure] = _f("Low", FieldKind.MEASURE)
    meteor: Optional[Meteor] = _f("Meteor", FieldKind.ENUM, enum=Meteor)
    warning: Optional[str] = _f("Warning", FieldKind.TEXT)
    wind_speed: Optional[Measure] = _f("WindSpeed", FieldKind.MEASURE)


NewsEvent = Union[
    Competition, Deal, Earnings, EconomicRelease, FedWatch, IPO,
    InjuryFatality, JointVenture, LegalEvent, MedicalFinding, Negotiation,
    NewProduct, Succession, Trip, Vote, War, Weather,
]


@dataclass(frozen=True)
class NewsForm:
    head: Head = field(default_factory=Head)
    events: tuple[NewsEvent, ...] = ()

    def __post_init__(self):
        if isinstance(self.events, list):
            object.__setattr__(self, "events", tuple(self.events))


# The record classes of each composite kind; person-or-organization
# values try Organization first.
_RECORDS = {
    FieldKind.MONEY: (Money,),
    FieldKind.PERSON: (Person,),
    FieldKind.PERSON_LIST: (Person,),
    FieldKind.ORGANIZATION: (Organization,),
    FieldKind.ORG_LIST: (Organization,),
    FieldKind.LOCATION: (Location,),
    FieldKind.ORG_OR_PERSON: (Organization, Person),
    FieldKind.ORG_OR_PERSON_LIST: (Organization, Person),
}


def _declared_specs(cls: type) -> tuple[FieldSpec, ...]:
    """The specs a record class's fields declare, in field order."""
    return tuple(FieldSpec(attr=f.name, records=_RECORDS.get(f.metadata["spec"]["kind"], ()),
                           **f.metadata["spec"])
                 for f in fields(cls))


CHILD_SPECS: dict[type, tuple[FieldSpec, ...]] = {
    cls: _declared_specs(cls)
    for cls in (Person, Location, Organization, Money, Head, *get_args(NewsEvent))}

EVENT_TYPES: dict[str, type] = {cls.__name__: cls for cls in get_args(NewsEvent)}

ELEMENT_OF_EVENT = {cls: name for name, cls in EVENT_TYPES.items()}

_SPEC_OF_ELEMENT = {cls: {spec.element: spec for spec in specs}
                    for cls, specs in CHILD_SPECS.items()}

# the fields _normalize can change, so record construction skips the rest
_NORMALIZED_SPECS = {
    cls: tuple(spec for spec in specs
               if spec.kind in (FieldKind.ENUM, FieldKind.DECIMAL) or spec.is_list)
    for cls, specs in CHILD_SPECS.items()}


def build_record(cls: type, values: dict):
    """The record ``cls(**values)`` builds, made without running its
    ``__init__``. ``values`` must be normalized already, as the codec reads
    them (vocabulary members or unknown tokens, Decimals, tuples for list
    fields), and hold every required field. Only the given fields are
    set: the others read their default from the class, as a dataclass
    field with a default does."""
    record = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(record, name, value)
    return record


def specs_for(cls: type) -> tuple[FieldSpec, ...]:
    return CHILD_SPECS[cls]


def spec_by_element(cls: type, element: str) -> Optional[FieldSpec]:
    return _SPEC_OF_ELEMENT[cls].get(element)


def resolve_path(cls: type, dotted: str) -> Optional[tuple[FieldSpec, ...]]:
    """Spec chain of a dotted element path below a record class, or None.

    A hop through a field of several record classes (person or
    organization) tries each class in turn; list fields resolve like
    single ones.
    """

    def step(classes: tuple[type, ...], parts: list[str]):
        head, *rest = parts
        for owner in classes:
            spec = spec_by_element(owner, head)
            if spec is None:
                continue
            if not rest:
                return (spec,)
            tail = step(spec.records, rest)
            if tail is not None:
                return (spec,) + tail
        return None

    return step((cls,), dotted.split("."))


def values_at(record, specs: tuple[FieldSpec, ...]) -> list:
    """All populated values at a spec chain; list fields fan out."""
    values = [record]
    for spec in specs:
        next_values = []
        for value in values:
            item = getattr(value, spec.attr, None)
            if isinstance(item, tuple):
                next_values.extend(v for v in item if v is not None)
            elif item is not None:
                next_values.append(item)
        values = next_values
    return values


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class Finding:
    path: str
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def _check_record(out, path, value, expected: tuple[type, ...]):
    if not isinstance(value, expected):
        names = " or ".join(t.__name__ for t in expected)
        out.append(Finding(path, "type", f"expected {names}, got {type(value).__name__}"))
        return
    _walk(out, path, value)


def _check_field(out, path, spec, value):
    """Append the findings of one populated field at ``path`` to ``out``,
    records checked child by child."""
    if spec.is_list:
        items = value if isinstance(value, tuple) else (value,)
        for i, item in enumerate(items, start=1):
            item_path = path if len(items) == 1 else f"{path}[{i}]"
            _check_record(out, item_path, item, spec.records)
    elif spec.records:
        _check_record(out, path, value, spec.records)
    elif spec.kind is FieldKind.MEASURE:
        if not isinstance(value, Measure):
            out.append(Finding(path, "type", f"expected Measure, got {type(value).__name__}"))
        else:
            if not isinstance(value.value, Decimal) or not value.value.is_finite():
                out.append(Finding(path, "type", "measure value must be a finite Decimal"))
            if not isinstance(value.unit, str) or not _TOKEN_RE.match(value.unit):
                out.append(Finding(path, "unit", f"measure unit must be a token: {value.unit!r}"))
    else:
        problem = None if spec.type_check is None else spec.type_check(value)
        if problem is None and spec.value_check is not None:
            problem = spec.value_check(value)
        if problem is not None:
            out.append(Finding(path, *problem))


def _walk(out, path, record):
    for spec in CHILD_SPECS[type(record)]:
        value = getattr(record, spec.attr)
        if value is not None:
            _check_field(out, f"{path}/{spec.element}", spec, value)


def check_event_rules(out, path, event):
    """Append the findings of the rules that span an event's fields."""
    if isinstance(event, Earnings):
        if event.earnings_amount is not None and event.loss is not None:
            out.append(Finding(path, "exclusive",
                               "EarningsAmount and Loss cannot both be present"))
    elif isinstance(event, Succession):
        if event.person_in is None and event.person_out is None:
            out.append(Finding(path, "required",
                               "a succession needs at least one of In or Out"))


def validate(doc: NewsForm) -> ValidationReport:
    """Report every constraint violation in the document.

    Violations are data, not exceptions: the report lists each one with the
    path of the offending field, the Head first, then each event's fields
    in schema order and its cross-field rules. An empty error list means
    the document is accepted. Missing optional children are never
    reported. ``xmlcodec.parse_newsform`` reports the same findings, in
    the same order, as it reads a document.
    """
    out: list[Finding] = []
    _walk(out, "Head", doc.head)
    multi = len(doc.events) > 1
    for i, event in enumerate(doc.events, start=1):
        cls = type(event)
        if cls not in ELEMENT_OF_EVENT:
            out.append(Finding(f"Event[{i}]", "type",
                               f"not a news event type: {cls.__name__}"))
            continue
        name = ELEMENT_OF_EVENT[cls]
        path = f"{name}[{i}]" if multi else name
        _walk(out, path, event)
        check_event_rules(out, path, event)
    return ValidationReport(errors=tuple(out))


# ---------------------------------------------------------------------------
# Sentiment classification (the map legend: negative / positive / other)

@dataclass(frozen=True)
class _SentimentRule:
    variant: str
    spec: Optional[FieldSpec]   # None: the row matches every event
    value: Optional[str]
    sentiment: Sentiment


@lru_cache(maxsize=None)
def _sentiment_rules() -> tuple[_SentimentRule, ...]:
    rules = []
    path = packaged_data_root() / "sentiment.tsv"
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"sentiment.tsv:{lineno}: expected 3 columns, got {len(parts)}")
        variant, cond, sentiment = parts
        if variant not in EVENT_TYPES:
            raise ValueError(f"sentiment.tsv:{lineno}: unknown event type {variant!r}")
        if cond == "*":
            field = value = None
        elif "=" in cond:
            field, value = cond.split("=", 1)
        else:
            field, value = cond, None
        spec = None if field is None else spec_by_element(EVENT_TYPES[variant], field)
        if field is not None and spec is None:
            raise ValueError(f"sentiment.tsv:{lineno}: unknown field {field!r}")
        rules.append(_SentimentRule(variant, spec, value, Sentiment(sentiment)))
    return tuple(rules)


def leaf_token(spec: Optional[FieldSpec], value) -> str:
    """Canonical token of a value, which the kb and the sentiment table
    compare: the text the codec writes for a leaf or measure, ``USD:2.50``
    for money, the repr of other records. Decimals keep their stored scale
    (``90.50 F`` stays ``90.50 F``); ``spec`` is not read and may be None."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Decimal):
        return format_decimal(value)
    if isinstance(value, Measure):
        return f"{format_decimal(value.value)} {value.unit}"
    if isinstance(value, Money):
        return f"{value.currency}:{format_decimal(value.amount)}"
    if isinstance(value, datetime):
        return value.strftime(TIMESTAMP_FORMAT)
    return str(value)


def classify_sentiment(event: NewsEvent) -> Sentiment:
    """Classify an event as Positive, Negative, or Other.

    Total and deterministic over all event types; driven by the shipped
    classification table, first matching row wins.
    """
    name = ELEMENT_OF_EVENT.get(type(event))
    for rule in _sentiment_rules():
        if rule.variant != name:
            continue
        if rule.spec is None:
            return rule.sentiment
        value = getattr(event, rule.spec.attr)
        if value is None:
            continue
        if rule.value is None or leaf_token(rule.spec, value) == rule.value:
            return rule.sentiment
    return Sentiment.OTHER
