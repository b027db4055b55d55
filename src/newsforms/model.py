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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import lru_cache
from typing import Optional, Union

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

    Accepts and rejects exactly what ``datetime.strptime(text,
    TIMESTAMP_FORMAT)`` does, raising ValueError; the canonical spelling
    skips strptime, which is slow, and any other spelling goes through it.
    """
    match = _TIMESTAMP_RE.fullmatch(text)
    if match is None:
        return datetime.strptime(text, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    return datetime(*map(int, match.groups()), tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# Field schema
#
# Every document type declares its children once, in canonical (output)
# order. Each spec also carries the record classes its kind holds
# (``records``), so path resolution, validation, the XML codec, the
# rule-template compiler and the corpus index all branch on the spec, not on
# their own kind lists. ``resolve_path`` and ``values_at`` are the one path
# resolver and value walker over this schema.

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

    def __post_init__(self):
        object.__setattr__(self, "is_list", self.kind in LIST_KINDS)


def _spec(element, attr, kind, enum=None, lo=None, hi=None, lo_open=False):
    lo = Decimal(lo) if lo is not None else None
    hi = Decimal(hi) if hi is not None else None
    return FieldSpec(element, attr, kind, enum, lo, hi, lo_open, _RECORDS.get(kind, ()))


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
    additional: Optional[str] = None
    age: Optional[int] = None
    country: Optional[str] = None
    email: Optional[str] = None
    family: Optional[str] = None
    function: Optional[str] = None
    given: Optional[str] = None
    prefix: Optional[str] = None
    sex: Optional[Sex] = None
    suffix: Optional[str] = None
    url: Optional[str] = None


@dataclass(frozen=True)
class Location(_Record):
    city: Optional[str] = None
    continent: Optional[Continent] = None
    country: Optional[str] = None
    latitude: Optional[Decimal] = None
    longitude: Optional[Decimal] = None
    region: Optional[str] = None
    state: Optional[str] = None
    url: Optional[str] = None


@dataclass(frozen=True)
class Organization(_Record):
    email: Optional[str] = None
    full_name: Optional[str] = None
    nickname: Optional[str] = None
    organization_type: Optional[str] = None
    sport: Optional[Sport] = None
    ticker: Optional[str] = None
    url: Optional[str] = None


OrgOrPerson = Union[Organization, Person]


@dataclass(frozen=True)
class Money(_Record):
    """Exact decimal amount in an ISO 4217 currency. Never floating point."""

    amount: Decimal
    currency: str

    def __post_init__(self):
        if isinstance(self.amount, float):
            raise TypeError("Money amount must be Decimal, int, or numeric text, not float")
        super().__post_init__()


@dataclass(frozen=True)
class Measure(_Record):
    """A scalar with a unit word, e.g. 75 mph or 32 F."""

    value: Decimal
    unit: str

    def __post_init__(self):
        if isinstance(self.value, float):
            raise TypeError("Measure value must be Decimal, int, or numeric text, not float")
        super().__post_init__()


@dataclass(frozen=True)
class Head(_Record):
    dateline_time: Optional[datetime] = None


# ---------------------------------------------------------------------------
# Event types

@dataclass(frozen=True)
class Competition(_Record):
    competition_code: Optional[str] = None
    competition_outcome: Optional[CompetitionOutcome] = None
    player: Optional[Person] = None
    sport: Optional[Sport] = None
    team: Optional[Organization] = None


@dataclass(frozen=True)
class Deal(_Record):
    acquirer: Optional[Organization] = None
    advisor: Optional[Organization] = None
    deal_status: Optional[DealStatus] = None
    deal_value: Optional[Money] = None
    share_price: Optional[Money] = None
    stake: Optional[Decimal] = None
    stock_ratio: Optional[Decimal] = None
    successor: Optional[Organization] = None
    survivor: Optional[Organization] = None
    target: Optional[Organization] = None


@dataclass(frozen=True)
class Earnings(_Record):
    company: Optional[Organization] = None
    eps: Optional[Money] = None
    earnings_amount: Optional[Money] = None
    good_bad: Optional[GoodBad] = None
    loss: Optional[Money] = None
    previous_eps: Optional[Money] = None
    previous_earnings: Optional[Money] = None
    sales: Optional[Money] = None
    sales_ps: Optional[Money] = None


@dataclass(frozen=True)
class EconomicRelease(_Record):
    annual_rate: Optional[Decimal] = None
    direction: Optional[Direction] = None
    economic_release_type: Optional[str] = None
    growth: Optional[Money] = None
    growth_rate: Optional[Decimal] = None
    previous_rate: Optional[Decimal] = None
    rate: Optional[Decimal] = None
    source: Optional[OrgOrPerson] = None


@dataclass(frozen=True)
class FedWatch(_Record):
    actor: Optional[Organization] = None
    fed_action: Optional[FedAction] = None
    interest_rate: Optional[InterestRateName] = None
    rate: Optional[Decimal] = None


@dataclass(frozen=True)
class IPO(_Record):
    company: Optional[Organization] = None
    market_cap: Optional[Money] = None
    raised: Optional[Money] = None
    shares: Optional[int] = None
    stake: Optional[Decimal] = None


@dataclass(frozen=True)
class InjuryFatality(_Record):
    accident_car: Optional[str] = None
    accident_plane: Optional[str] = None
    boat: Optional[Boat] = None
    cause: Optional[Cause] = None
    cause_event: Optional[str] = None
    hospitalized: tuple[Person, ...] = ()
    injured: tuple[Person, ...] = ()
    injured_count: Optional[int] = None
    killed: tuple[Person, ...] = ()
    killed_count: Optional[int] = None
    landed_plane: Optional[str] = None
    source: Optional[OrgOrPerson] = None
    survived_by: Optional[str] = None
    at_location: Optional[Location] = None


@dataclass(frozen=True)
class JointVenture(_Record):
    companies: tuple[Organization, ...] = ()
    item: Optional[str] = None
    joint_venture_type: Optional[JointVentureType] = None
    source: Optional[OrgOrPerson] = None


@dataclass(frozen=True)
class LegalEvent(_Record):
    accusation_action: Optional[AccusationAction] = None
    accused: Optional[OrgOrPerson] = None
    accuser: Optional[OrgOrPerson] = None
    arbiter: Optional[OrgOrPerson] = None
    arrested: Optional[Person] = None
    attorney: Optional[Person] = None
    award: Optional[Money] = None
    disposition_method: Optional[DispositionMethod] = None
    forum: Optional[Organization] = None
    judgment: Optional[Judgment] = None
    legal_action: Optional[LegalAction] = None
    legal_filing: Optional[LegalFiling] = None
    plea: Optional[Judgment] = None
    released: Optional[Person] = None
    releaser: Optional[OrgOrPerson] = None
    sentence_duration: Optional[str] = None
    sentence_type: Optional[SentenceType] = None
    witness: Optional[Person] = None


@dataclass(frozen=True)
class MedicalFinding(_Record):
    illness: Optional[str] = None
    illness_factor: Optional[IllnessFactor] = None


@dataclass(frozen=True)
class Negotiation(_Record):
    agreement: Optional[Agreement] = None
    negotiation_status: Optional[NegotiationStatus] = None
    negotiator: Optional[Person] = None
    parties: tuple[OrgOrPerson, ...] = ()


@dataclass(frozen=True)
class NewProduct(_Record):
    company: Optional[Organization] = None
    item: Optional[str] = None
    price: Optional[Money] = None
    product_status: Optional[ProductStatus] = None
    source: Optional[OrgOrPerson] = None
    support_for: Optional[str] = None


@dataclass(frozen=True)
class Succession(_Record):
    employer: Optional[OrgOrPerson] = None
    function: Optional[str] = None
    person_in: Optional[Person] = None
    person_out: Optional[Person] = None
    source: Optional[OrgOrPerson] = None


@dataclass(frozen=True)
class Trip(_Record):
    host: Optional[OrgOrPerson] = None
    to_location: Optional[Location] = None
    visitor: Optional[Person] = None
    visitor_count: Optional[int] = None


@dataclass(frozen=True)
class Vote(_Record):
    against: Optional[int] = None
    in_favor: Optional[int] = None
    law: Optional[str] = None
    legislation: Optional[Legislation] = None
    signer: Optional[Person] = None
    vote_status: Optional[VoteStatus] = None
    voting_body: Optional[Organization] = None


@dataclass(frozen=True)
class War(_Record):
    armed_conflict: Optional[ArmedConflict] = None
    armed_force: Optional[str] = None
    armed_force_action: Optional[ArmedForceAction] = None
    at_location: Optional[Location] = None
    leader: Optional[OrgOrPerson] = None
    source: Optional[OrgOrPerson] = None
    victim: Optional[str] = None
    victim_action: Optional[VictimAction] = None


@dataclass(frozen=True)
class Weather(_Record):
    at_location: Optional[Location] = None
    compass_direction: Optional[CompassDirection] = None
    declared_state: Optional[DeclaredState] = None
    declarer: Optional[OrgOrPerson] = None
    distance_from_location: Optional[Measure] = None
    given: Optional[str] = None
    high: Optional[Measure] = None
    issuer: Optional[OrgOrPerson] = None
    low: Optional[Measure] = None
    meteor: Optional[Meteor] = None
    warning: Optional[str] = None
    wind_speed: Optional[Measure] = None


NewsEvent = Union[
    Competition, Deal, Earnings, EconomicRelease, FedWatch, IPO,
    InjuryFatality, JointVenture, LegalEvent, MedicalFinding, Negotiation,
    NewProduct, Succession, Trip, Vote, War, Weather,
]


@dataclass(frozen=True)
class NewsForm(_Record):
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


# ---------------------------------------------------------------------------
# Child registry, in canonical output order.
#
# Order is lexicographic by element name except InjuryFatality, whose
# AtLocation child comes last; that is the one type whose output order is
# pinned by the worked example this format follows.

CHILD_SPECS: dict[type, tuple[FieldSpec, ...]] = {}

CHILD_SPECS[Person] = (
    _spec("Additional", "additional", FieldKind.TEXT),
    _spec("Age", "age", FieldKind.INT, lo=0, hi=150),
    _spec("Country", "country", FieldKind.COUNTRY),
    _spec("Email", "email", FieldKind.TEXT),
    _spec("Family", "family", FieldKind.TEXT),
    _spec("Function", "function", FieldKind.TEXT),
    _spec("Given", "given", FieldKind.TEXT),
    _spec("Prefix", "prefix", FieldKind.TEXT),
    _spec("Sex", "sex", FieldKind.ENUM, enum=Sex),
    _spec("Suffix", "suffix", FieldKind.TEXT),
    _spec("URL", "url", FieldKind.TEXT),
)

CHILD_SPECS[Location] = (
    _spec("City", "city", FieldKind.TEXT),
    _spec("Continent", "continent", FieldKind.ENUM, enum=Continent),
    _spec("Country", "country", FieldKind.COUNTRY),
    _spec("Latitude", "latitude", FieldKind.DECIMAL, lo=-90, hi=90),
    _spec("Longitude", "longitude", FieldKind.DECIMAL, lo=-180, hi=180),
    _spec("Region", "region", FieldKind.TEXT),
    _spec("State", "state", FieldKind.STATE),
    _spec("URL", "url", FieldKind.TEXT),
)

CHILD_SPECS[Organization] = (
    _spec("Email", "email", FieldKind.TEXT),
    _spec("FullName", "full_name", FieldKind.TEXT),
    _spec("Nickname", "nickname", FieldKind.TEXT),
    _spec("OrganizationType", "organization_type", FieldKind.TOKEN),
    _spec("Sport", "sport", FieldKind.ENUM, enum=Sport),
    _spec("Ticker", "ticker", FieldKind.TICKER),
    _spec("URL", "url", FieldKind.TEXT),
)

CHILD_SPECS[Money] = (
    _spec("Amount", "amount", FieldKind.DECIMAL),
    _spec("Currency", "currency", FieldKind.CURRENCY),
)

CHILD_SPECS[Head] = (
    _spec("DatelineTime", "dateline_time", FieldKind.TIMESTAMP),
)

CHILD_SPECS[Competition] = (
    _spec("CompetitionCode", "competition_code", FieldKind.TOKEN),
    _spec("CompetitionOutcome", "competition_outcome", FieldKind.ENUM, enum=CompetitionOutcome),
    _spec("Player", "player", FieldKind.PERSON),
    _spec("Sport", "sport", FieldKind.ENUM, enum=Sport),
    _spec("Team", "team", FieldKind.ORGANIZATION),
)

CHILD_SPECS[Deal] = (
    _spec("Acquirer", "acquirer", FieldKind.ORGANIZATION),
    _spec("Advisor", "advisor", FieldKind.ORGANIZATION),
    _spec("DealStatus", "deal_status", FieldKind.ENUM, enum=DealStatus),
    _spec("DealValue", "deal_value", FieldKind.MONEY),
    _spec("SharePrice", "share_price", FieldKind.MONEY),
    _spec("Stake", "stake", FieldKind.DECIMAL, lo=0, hi=100, lo_open=True),
    _spec("StockRatio", "stock_ratio", FieldKind.DECIMAL, lo=0, lo_open=True),
    _spec("Successor", "successor", FieldKind.ORGANIZATION),
    _spec("Survivor", "survivor", FieldKind.ORGANIZATION),
    _spec("Target", "target", FieldKind.ORGANIZATION),
)

CHILD_SPECS[Earnings] = (
    _spec("Company", "company", FieldKind.ORGANIZATION),
    _spec("EPS", "eps", FieldKind.MONEY),
    _spec("EarningsAmount", "earnings_amount", FieldKind.MONEY),
    _spec("GoodBad", "good_bad", FieldKind.ENUM, enum=GoodBad),
    _spec("Loss", "loss", FieldKind.MONEY),
    _spec("PreviousEPS", "previous_eps", FieldKind.MONEY),
    _spec("PreviousEarnings", "previous_earnings", FieldKind.MONEY),
    _spec("Sales", "sales", FieldKind.MONEY),
    _spec("SalesPS", "sales_ps", FieldKind.MONEY),
)

CHILD_SPECS[EconomicRelease] = (
    _spec("AnnualRate", "annual_rate", FieldKind.DECIMAL),
    _spec("Direction", "direction", FieldKind.ENUM, enum=Direction),
    _spec("EconomicReleaseType", "economic_release_type", FieldKind.TOKEN),
    _spec("Growth", "growth", FieldKind.MONEY),
    _spec("GrowthRate", "growth_rate", FieldKind.DECIMAL),
    _spec("PreviousRate", "previous_rate", FieldKind.DECIMAL),
    _spec("Rate", "rate", FieldKind.DECIMAL),
    _spec("Source", "source", FieldKind.ORG_OR_PERSON),
)

CHILD_SPECS[FedWatch] = (
    _spec("Actor", "actor", FieldKind.ORGANIZATION),
    _spec("FedAction", "fed_action", FieldKind.ENUM, enum=FedAction),
    _spec("InterestRate", "interest_rate", FieldKind.ENUM, enum=InterestRateName),
    _spec("Rate", "rate", FieldKind.DECIMAL),
)

CHILD_SPECS[IPO] = (
    _spec("Company", "company", FieldKind.ORGANIZATION),
    _spec("MarketCap", "market_cap", FieldKind.MONEY),
    _spec("Raised", "raised", FieldKind.MONEY),
    _spec("Shares", "shares", FieldKind.INT, lo=1),
    _spec("Stake", "stake", FieldKind.DECIMAL, lo=0, hi=100, lo_open=True),
)

CHILD_SPECS[InjuryFatality] = (
    _spec("AccidentCar", "accident_car", FieldKind.TEXT),
    _spec("AccidentPlane", "accident_plane", FieldKind.TEXT),
    _spec("Boat", "boat", FieldKind.ENUM, enum=Boat),
    _spec("Cause", "cause", FieldKind.ENUM, enum=Cause),
    _spec("CauseEvent", "cause_event", FieldKind.TEXT),
    _spec("Hospitalized", "hospitalized", FieldKind.PERSON_LIST),
    _spec("Injured", "injured", FieldKind.PERSON_LIST),
    _spec("InjuredCount", "injured_count", FieldKind.INT, lo=0),
    _spec("Killed", "killed", FieldKind.PERSON_LIST),
    _spec("KilledCount", "killed_count", FieldKind.INT, lo=0),
    _spec("LandedPlane", "landed_plane", FieldKind.TEXT),
    _spec("Source", "source", FieldKind.ORG_OR_PERSON),
    _spec("SurvivedBy", "survived_by", FieldKind.TEXT),
    _spec("AtLocation", "at_location", FieldKind.LOCATION),
)

CHILD_SPECS[JointVenture] = (
    _spec("Company", "companies", FieldKind.ORG_LIST),
    _spec("Item", "item", FieldKind.TEXT),
    _spec("JointVentureType", "joint_venture_type", FieldKind.ENUM, enum=JointVentureType),
    _spec("Source", "source", FieldKind.ORG_OR_PERSON),
)

CHILD_SPECS[LegalEvent] = (
    _spec("AccusationAction", "accusation_action", FieldKind.ENUM, enum=AccusationAction),
    _spec("Accused", "accused", FieldKind.ORG_OR_PERSON),
    _spec("Accuser", "accuser", FieldKind.ORG_OR_PERSON),
    _spec("Arbiter", "arbiter", FieldKind.ORG_OR_PERSON),
    _spec("Arrested", "arrested", FieldKind.PERSON),
    _spec("Attorney", "attorney", FieldKind.PERSON),
    _spec("Award", "award", FieldKind.MONEY),
    _spec("DispositionMethod", "disposition_method", FieldKind.ENUM, enum=DispositionMethod),
    _spec("Forum", "forum", FieldKind.ORGANIZATION),
    _spec("Judgment", "judgment", FieldKind.ENUM, enum=Judgment),
    _spec("LegalAction", "legal_action", FieldKind.ENUM, enum=LegalAction),
    _spec("LegalFiling", "legal_filing", FieldKind.ENUM, enum=LegalFiling),
    _spec("Plea", "plea", FieldKind.ENUM, enum=Judgment),
    _spec("Released", "released", FieldKind.PERSON),
    _spec("Releaser", "releaser", FieldKind.ORG_OR_PERSON),
    _spec("SentenceDuration", "sentence_duration", FieldKind.TEXT),
    _spec("SentenceType", "sentence_type", FieldKind.ENUM, enum=SentenceType),
    _spec("Witness", "witness", FieldKind.PERSON),
)

CHILD_SPECS[MedicalFinding] = (
    _spec("Illness", "illness", FieldKind.TOKEN),
    _spec("IllnessFactor", "illness_factor", FieldKind.ENUM, enum=IllnessFactor),
)

CHILD_SPECS[Negotiation] = (
    _spec("Agreement", "agreement", FieldKind.ENUM, enum=Agreement),
    _spec("NegotiationStatus", "negotiation_status", FieldKind.ENUM, enum=NegotiationStatus),
    _spec("Negotiator", "negotiator", FieldKind.PERSON),
    _spec("Party", "parties", FieldKind.ORG_OR_PERSON_LIST),
)

CHILD_SPECS[NewProduct] = (
    _spec("Company", "company", FieldKind.ORGANIZATION),
    _spec("Item", "item", FieldKind.TEXT),
    _spec("Price", "price", FieldKind.MONEY),
    _spec("ProductStatus", "product_status", FieldKind.ENUM, enum=ProductStatus),
    _spec("Source", "source", FieldKind.ORG_OR_PERSON),
    _spec("SupportFor", "support_for", FieldKind.TEXT),
)

CHILD_SPECS[Succession] = (
    _spec("Employer", "employer", FieldKind.ORG_OR_PERSON),
    _spec("Function", "function", FieldKind.TEXT),
    _spec("In", "person_in", FieldKind.PERSON),
    _spec("Out", "person_out", FieldKind.PERSON),
    _spec("Source", "source", FieldKind.ORG_OR_PERSON),
)

CHILD_SPECS[Trip] = (
    _spec("Host", "host", FieldKind.ORG_OR_PERSON),
    _spec("ToLocation", "to_location", FieldKind.LOCATION),
    _spec("Visitor", "visitor", FieldKind.PERSON),
    _spec("VisitorCount", "visitor_count", FieldKind.INT, lo=0),
)

CHILD_SPECS[Vote] = (
    _spec("Against", "against", FieldKind.INT, lo=0),
    _spec("InFavor", "in_favor", FieldKind.INT, lo=0),
    _spec("Law", "law", FieldKind.TEXT),
    _spec("Legislation", "legislation", FieldKind.ENUM, enum=Legislation),
    _spec("Signer", "signer", FieldKind.PERSON),
    _spec("VoteStatus", "vote_status", FieldKind.ENUM, enum=VoteStatus),
    _spec("VotingBody", "voting_body", FieldKind.ORGANIZATION),
)

CHILD_SPECS[War] = (
    _spec("ArmedConflict", "armed_conflict", FieldKind.ENUM, enum=ArmedConflict),
    _spec("ArmedForce", "armed_force", FieldKind.TEXT),
    _spec("ArmedForceAction", "armed_force_action", FieldKind.ENUM, enum=ArmedForceAction),
    _spec("AtLocation", "at_location", FieldKind.LOCATION),
    _spec("Leader", "leader", FieldKind.ORG_OR_PERSON),
    _spec("Source", "source", FieldKind.ORG_OR_PERSON),
    _spec("Victim", "victim", FieldKind.TEXT),
    _spec("VictimAction", "victim_action", FieldKind.ENUM, enum=VictimAction),
)

CHILD_SPECS[Weather] = (
    _spec("AtLocation", "at_location", FieldKind.LOCATION),
    _spec("CompassDirection", "compass_direction", FieldKind.ENUM, enum=CompassDirection),
    _spec("DeclaredState", "declared_state", FieldKind.ENUM, enum=DeclaredState),
    _spec("Declarer", "declarer", FieldKind.ORG_OR_PERSON),
    _spec("DistanceFromLocation", "distance_from_location", FieldKind.MEASURE),
    _spec("Given", "given", FieldKind.TEXT),
    _spec("High", "high", FieldKind.MEASURE),
    _spec("Issuer", "issuer", FieldKind.ORG_OR_PERSON),
    _spec("Low", "low", FieldKind.MEASURE),
    _spec("Meteor", "meteor", FieldKind.ENUM, enum=Meteor),
    _spec("Warning", "warning", FieldKind.TEXT),
    _spec("WindSpeed", "wind_speed", FieldKind.MEASURE),
)

EVENT_TYPES: dict[str, type] = {
    "Competition": Competition,
    "Deal": Deal,
    "Earnings": Earnings,
    "EconomicRelease": EconomicRelease,
    "FedWatch": FedWatch,
    "IPO": IPO,
    "InjuryFatality": InjuryFatality,
    "JointVenture": JointVenture,
    "LegalEvent": LegalEvent,
    "MedicalFinding": MedicalFinding,
    "Negotiation": Negotiation,
    "NewProduct": NewProduct,
    "Succession": Succession,
    "Trip": Trip,
    "Vote": Vote,
    "War": War,
    "Weather": Weather,
}

ELEMENT_OF_EVENT = {cls: name for name, cls in EVENT_TYPES.items()}

_SPEC_OF_ELEMENT = {cls: {spec.element: spec for spec in specs}
                    for cls, specs in CHILD_SPECS.items()}

# the fields _normalize can change, so record construction skips the rest
_NORMALIZED_SPECS = {
    cls: tuple(spec for spec in specs
               if spec.kind in (FieldKind.ENUM, FieldKind.DECIMAL) or spec.is_list)
    for cls, specs in CHILD_SPECS.items()}


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
    warnings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.errors


def _join(path: str, element: str) -> str:
    return f"{path}/{element}" if path else element


def _check_leaf(out, path, spec, value):
    kind = spec.kind
    if kind is FieldKind.TEXT:
        if not isinstance(value, str):
            out.append(Finding(path, "type", f"expected text, got {type(value).__name__}"))
        elif not value.strip():
            out.append(Finding(path, "empty", "text content must be non-empty"))
    elif kind is FieldKind.TOKEN:
        if not isinstance(value, str):
            out.append(Finding(path, "type", f"expected token, got {type(value).__name__}"))
        elif not _TOKEN_RE.match(value):
            out.append(Finding(path, "token", f"not a whitespace-free token: {value!r}"))
    elif kind is FieldKind.INT:
        if not isinstance(value, int) or isinstance(value, bool):
            out.append(Finding(path, "type", f"expected integer, got {type(value).__name__}"))
        else:
            _check_bounds(out, path, spec, Decimal(value))
    elif kind is FieldKind.DECIMAL:
        if isinstance(value, float):
            out.append(Finding(path, "float", "binary floating point is not allowed; use Decimal"))
        elif not isinstance(value, Decimal):
            out.append(Finding(path, "type", f"expected decimal, got {type(value).__name__}"))
        elif not value.is_finite():
            out.append(Finding(path, "range", "decimal must be finite"))
        else:
            _check_bounds(out, path, spec, value)
    elif kind is FieldKind.TIMESTAMP:
        if not isinstance(value, datetime):
            out.append(Finding(path, "type", f"expected datetime, got {type(value).__name__}"))
        elif value.utcoffset() is None or value.utcoffset().total_seconds() != 0:
            out.append(Finding(path, "timezone", "timestamp must be UTC"))
    elif kind is FieldKind.ENUM:
        if not isinstance(value, spec.enum):
            shown = value if isinstance(value, str) else type(value).__name__
            out.append(Finding(path, "enum",
                               f"{shown!r} is not in the {spec.enum.__name__} vocabulary"))
    elif kind is FieldKind.COUNTRY:
        if not isinstance(value, str) or not _CODE3_RE.match(value) or value not in iso3166_codes():
            out.append(Finding(path, "iso3166", f"not a known 3-letter country code: {value!r}"))
    elif kind is FieldKind.STATE:
        if not isinstance(value, str) or not _CODE2_RE.match(value) or value not in usps_state_codes():
            out.append(Finding(path, "usps", f"not a known 2-letter state code: {value!r}"))
    elif kind is FieldKind.CURRENCY:
        if not isinstance(value, str) or not _CODE3_RE.match(value) or value not in iso4217_codes():
            out.append(Finding(path, "iso4217", f"not a known 3-letter currency code: {value!r}"))
    elif kind is FieldKind.TICKER:
        if not isinstance(value, str) or not _TICKER_RE.match(value):
            out.append(Finding(path, "ticker", f"not a valid exchange ticker: {value!r}"))


def _check_bounds(out, path, spec, value: Decimal):
    if spec.min_value is not None:
        if value < spec.min_value or (spec.min_exclusive and value == spec.min_value):
            bound = format_decimal(spec.min_value)
            rel = ">" if spec.min_exclusive else ">="
            out.append(Finding(path, "range", f"value must be {rel} {bound}, got {format_decimal(value)}"))
            return
    if spec.max_value is not None and value > spec.max_value:
        out.append(Finding(path, "range",
                           f"value must be <= {format_decimal(spec.max_value)}, got {format_decimal(value)}"))


def _check_record(out, path, value, expected: tuple[type, ...]):
    if not isinstance(value, expected):
        names = " or ".join(t.__name__ for t in expected)
        out.append(Finding(path, "type", f"expected {names}, got {type(value).__name__}"))
        return
    _walk(out, path, value)


def _walk(out, path, record):
    for spec in CHILD_SPECS[type(record)]:
        value = getattr(record, spec.attr)
        if value is None:
            continue
        child = _join(path, spec.element)
        if spec.is_list:
            items = value if isinstance(value, tuple) else (value,)
            for i, item in enumerate(items, start=1):
                item_path = child if len(items) == 1 else f"{child}[{i}]"
                _check_record(out, item_path, item, spec.records)
        elif spec.records:
            _check_record(out, child, value, spec.records)
        elif spec.kind is FieldKind.MEASURE:
            if not isinstance(value, Measure):
                out.append(Finding(child, "type", f"expected Measure, got {type(value).__name__}"))
            else:
                if not isinstance(value.value, Decimal) or not value.value.is_finite():
                    out.append(Finding(child, "type", "measure value must be a finite Decimal"))
                if not isinstance(value.unit, str) or not _TOKEN_RE.match(value.unit):
                    out.append(Finding(child, "unit", f"measure unit must be a token: {value.unit!r}"))
        else:
            _check_leaf(out, child, spec, value)


def _check_event_rules(out, path, event):
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
    path of the offending field, in document order. An empty error list
    means the document is accepted. Missing optional children are never
    reported.
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
        _check_event_rules(out, path, event)
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


def leaf_token(spec: FieldSpec, value) -> str:
    """Canonical document token for a leaf value."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Decimal):
        return format_decimal(value)
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
