"""Typed in-memory representation of news-event documents.

A document (:class:`NewsForm`) is a header plus zero or more typed event
records drawn from 17 event classes. Values are immutable dataclasses
that get their methods from :func:`value_class` (see "Value classes");
constructing one performs light normalization (vocabulary tokens to enum
members, ints to exact decimals, lists to tuples, and in a list field
``None`` to ``()`` and a lone item to a 1-tuple) but never rejects, so
that invalid data can be represented and then reported by :func:`validate`.
A dateline must be a whole second, as the codec writes it.

Validation is pure and exhaustive: every vocabulary, code-table, and range
constraint violation is reported with the field path where it occurred.
An empty error list means the document is accepted.

``read_conditions`` reads the one field-condition language of the kb and
the sentiment table; ``read_number`` is the one ASCII number reader.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from datetime import datetime, timedelta, timezone
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import lru_cache
from operator import attrgetter
from reprlib import recursive_repr
from typing import Callable, Optional, Union, get_args

from .resources import packaged_data_root, read_code_table, rows
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

# the characters XML 1.0 cannot carry; ``\Z`` where ``$`` would match before a final newline
_NON_XML = r"\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_NON_XML_RE = re.compile(f"[{_NON_XML}]")
_TICKER_RE = re.compile(r"^[A-Z0-9]{1,6}(\.[A-Z0-9]{1,4})?\Z")
_TOKEN_RE = re.compile(rf"^[^\s{_NON_XML}]+\Z")
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


def format_timestamp(value: datetime) -> str:
    """Dateline-format text of a datetime (``YYYYMMDDTHHMMSSZ``), the year
    zero-padded to four digits, which ``strftime("%Y")`` is not on every C
    library: glibc spells the year 999 as ``999``."""
    return (f"{value.year:04d}{value.month:02d}{value.day:02d}"
            f"T{value.hour:02d}{value.minute:02d}{value.second:02d}Z")


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
# Value classes
#
# Every value class of the package is declared under ``@value_class`` alone.
# It makes the class a dataclass with every generated method switched off,
# so the dataclass gathers the fields and ``dataclasses.fields``, ``replace``
# and ``asdict`` work on it; it then gives the class the methods
# ``dataclass`` would generate, as closures over that field list.
# ``dataclass`` compiles new source for each method of each class, which no
# bytecode cache keeps, so every call of the program would pay for it at
# import. Each value class has a docstring, because ``dataclass`` makes a
# missing one from ``inspect.signature`` of the class, which parses text at
# every import.

_object_setattr = object.__setattr__


def value_class(cls=None, /, *, frozen=True):
    """Make ``cls`` a dataclass with the ``__init__``, ``__repr__``,
    ``__eq__`` and ``__hash__`` of ``@dataclass(frozen=frozen)``, and when
    frozen its ``__setattr__`` and ``__delattr__``, which raise
    ``FrozenInstanceError``; a mutable class is unhashable. As the generated
    ones, ``__init__`` takes the ``init`` fields by position or keyword,
    fills a ``default_factory`` field it was not given and calls
    ``__post_init__``; ``__repr__`` shows the ``repr`` fields; ``__eq__`` and
    ``__hash__`` read the tuple of the ``compare`` fields.

    ``__init__`` stores the fields it is given, each as its own attribute,
    which keeps them in the instance's compact attribute storage; a field
    left to a plain default reads it from the class, as in a record that
    ``build_record`` makes."""
    if cls is None:
        return lambda cls: value_class(cls, frozen=frozen)
    declared = fields(dataclass(cls, init=False, repr=False, eq=False))
    names = tuple(f.name for f in declared if f.init)
    accepted = frozenset(names)
    required = frozenset(f.name for f in declared if f.init and f.default is MISSING
                         and f.default_factory is MISSING)
    factories = tuple((f.name, f.default_factory) for f in declared
                      if f.default_factory is not MISSING)
    # the fields __init__ stores when each init field is given: those, and
    # each other one with a factory
    size = len(names) + sum(not f.init for f in declared if f.default_factory is not MISSING)
    store = _object_setattr if frozen else setattr
    post_init = getattr(cls, "__post_init__", None)
    labels = tuple(f"{f.name}=" for f in declared if f.repr)
    shown = _values_of(tuple(f.name for f in declared if f.repr))
    compared = _values_of(tuple(f.name for f in declared if f.compare))
    guarded = frozenset(f.name for f in declared)

    def __init__(self, /, *args, **kwargs):
        if kwargs and not accepted.issuperset(kwargs):
            raise _argument_error(cls, names, args, kwargs)
        if args:
            if len(args) > len(names) or kwargs and not kwargs.keys().isdisjoint(names[:len(args)]):
                raise _argument_error(cls, names, args, kwargs)
            kwargs.update(zip(names, args))
        if len(kwargs) < size:   # a field left to its default or factory, or a missing one
            if required and not kwargs.keys() >= required:
                raise _argument_error(cls, names, args, kwargs, required)
            for name, factory in factories:
                if name not in kwargs:
                    kwargs[name] = factory()
        for name, value in kwargs.items():
            store(self, name, value)
        if post_init is not None:
            post_init(self)

    @recursive_repr()
    def __repr__(self):
        items = map(str.__add__, labels, map(repr, shown(self)))
        return f"{self.__class__.__qualname__}({', '.join(items)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    def __hash__(self):
        return hash(compared(self))

    def __setattr__(self, name, value):
        if type(self) is cls or name in guarded:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in guarded:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    methods = (__init__, __repr__, __eq__) + \
        ((__hash__, __setattr__, __delattr__) if frozen else ())
    for method in methods:
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    if not frozen:
        cls.__hash__ = None
    return cls


def _values_of(names: tuple[str, ...]) -> Callable:
    """The function of an instance that gives the tuple of its ``names``."""
    if len(names) > 1:
        return attrgetter(*names)
    if not names:
        return lambda instance: ()
    value = attrgetter(*names)
    return lambda instance: (value(instance),)


def _argument_error(cls: type, names: tuple[str, ...], args: tuple, kwargs: dict,
                    required: frozenset = frozenset()) -> TypeError:
    """Why a value class's ``__init__`` cannot take these arguments; with
    ``required``, ``kwargs`` holds every field given, short of some of those."""
    call = f"{cls.__qualname__}.__init__()"
    if required:
        absent = ", ".join(repr(name) for name in names if name in required and name not in kwargs)
        return TypeError(f"{call} missing required arguments: {absent}")
    unexpected = next((name for name in kwargs if name not in names), None)
    if unexpected is not None:
        return TypeError(f"{call} got an unexpected keyword argument {unexpected!r}")
    if len(args) > len(names):
        return TypeError(f"{call} takes at most {len(names)} positional arguments "
                         f"but {len(args)} were given")
    clash = next(name for name in names[:len(args)] if name in kwargs)
    return TypeError(f"{call} got multiple values for argument {clash!r}")


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


@value_class
class FieldSpec:
    """A record field's schema entry: element name, attribute, kind,
    vocabulary, bounds, whether it is required and the record classes it
    holds."""

    element: str
    attr: str
    kind: FieldKind
    enum: Optional[type] = None
    min_value: Optional[Decimal] = None
    max_value: Optional[Decimal] = None
    min_exclusive: bool = False
    required: bool = False   # the record cannot be built without it
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
                max_value=None if hi is None else Decimal(hi), min_exclusive=lo_open,
                required=required)
    if required:
        return field(metadata={"spec": spec})
    return field(default=() if kind in LIST_KINDS else None, metadata={"spec": spec})


# ---------------------------------------------------------------------------
# Leaf checks
#
# Each leaf spec carries two checks, each a function of the value that
# returns its finding's (code, message), or None when there is nothing to
# report. The type check asks whether the value has the type its kind holds
# (text and tokens str the codec reads back as written, INT an int, DECIMAL
# a finite Decimal, TIMESTAMP a UTC datetime); the codec reads every leaf
# into that type, so only in-memory documents can fail it. The value check
# asks whether a value of that type is allowed: bounds, vocabulary, code
# tables, tokens and tickers. ``validate`` runs both; the codec runs the
# value check on each leaf as it reads it.

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
    integer = spec.kind is FieldKind.INT
    decimal = spec.kind is FieldKind.DECIMAL
    timestamp = spec.kind is FieldKind.TIMESTAMP

    def check(value):
        if decimal and isinstance(value, float):
            return "float", "binary floating point is not allowed; use Decimal"
        if not isinstance(value, expected) or isinstance(value, bool):
            return "type", f"expected {name}, got {type(value).__name__}"
        if expected is str:   # text the codec would not read back; blank is the value check's
            stripped = value.strip()
            bad = stripped and _NON_XML_RE.search(value)
            if bad:
                return "text", f"character {bad.group()!r} cannot be written in XML"
            if stripped and stripped != value:
                return "text", f"leading or trailing whitespace is not kept: {value!r}"
            return None
        if integer:
            try:
                str(value)   # how the codec writes it
            except ValueError:   # more digits than the interpreter converts
                return "range", f"integer too long to write ({value.bit_length()} bits)"
        if decimal and not value.is_finite():
            return "range", "decimal must be finite"
        if timestamp:
            if value.utcoffset() != _UTC_OFFSET:
                return "timezone", "timestamp must be UTC"
            if value.microsecond:   # written to the second
                return "type", "timestamp must be a whole second"
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
    if spec.is_list:   # None, a list or a lone item: a tuple
        if isinstance(value, tuple):
            return value
        if value is None:
            return ()
        return tuple(value) if isinstance(value, list) else (value,)
    if value is None:
        return None
    if spec.kind is FieldKind.ENUM and isinstance(value, str):
        try:
            return spec.enum(value)
        except ValueError:
            return value
    if spec.kind is FieldKind.DECIMAL:
        return _to_decimal(value)
    return value


@value_class
class Person(_Record):
    """A person: name parts, title, function, age, sex, country and contact."""

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


@value_class
class Location(_Record):
    """A place: city, region, state, country, continent and coordinates."""

    city: Optional[str] = _f("City", FieldKind.TEXT)
    continent: Optional[Continent] = _f("Continent", FieldKind.ENUM, enum=Continent)
    country: Optional[str] = _f("Country", FieldKind.COUNTRY)
    latitude: Optional[Decimal] = _f("Latitude", FieldKind.DECIMAL, lo=-90, hi=90)
    longitude: Optional[Decimal] = _f("Longitude", FieldKind.DECIMAL, lo=-180, hi=180)
    region: Optional[str] = _f("Region", FieldKind.TEXT)
    state: Optional[str] = _f("State", FieldKind.STATE)
    url: Optional[str] = _f("URL", FieldKind.TEXT)


@value_class
class Organization(_Record):
    """An organization: full name, nickname, type, sport, ticker and contact."""

    email: Optional[str] = _f("Email", FieldKind.TEXT)
    full_name: Optional[str] = _f("FullName", FieldKind.TEXT)
    nickname: Optional[str] = _f("Nickname", FieldKind.TEXT)
    organization_type: Optional[str] = _f("OrganizationType", FieldKind.TOKEN)
    sport: Optional[Sport] = _f("Sport", FieldKind.ENUM, enum=Sport)
    ticker: Optional[str] = _f("Ticker", FieldKind.TICKER)
    url: Optional[str] = _f("URL", FieldKind.TEXT)


OrgOrPerson = Union[Organization, Person]


@value_class
class Money(_Record):
    """Exact decimal amount in an ISO 4217 currency. Never floating point."""

    amount: Decimal = _f("Amount", FieldKind.DECIMAL, required=True)
    currency: str = _f("Currency", FieldKind.CURRENCY, required=True)

    def __post_init__(self):
        if isinstance(self.amount, float):
            raise TypeError("Money amount must be Decimal, int, or numeric text, not float")
        super().__post_init__()


@value_class
class Measure:
    """A scalar with a unit word, e.g. 75 mph or 32 F."""

    value: Decimal
    unit: str

    def __post_init__(self):
        if isinstance(self.value, float):
            raise TypeError("Measure value must be Decimal, int, or numeric text, not float")


@value_class
class Head(_Record):
    """The document header: the dateline time."""

    dateline_time: Optional[datetime] = _f("DatelineTime", FieldKind.TIMESTAMP)


# ---------------------------------------------------------------------------
# Event types

@value_class
class Competition(_Record):
    """A sports result: the competition, its outcome, a player or a team."""

    competition_code: Optional[str] = _f("CompetitionCode", FieldKind.TOKEN)
    competition_outcome: Optional[CompetitionOutcome] = _f(
        "CompetitionOutcome", FieldKind.ENUM, enum=CompetitionOutcome)
    player: Optional[Person] = _f("Player", FieldKind.PERSON)
    sport: Optional[Sport] = _f("Sport", FieldKind.ENUM, enum=Sport)
    team: Optional[Organization] = _f("Team", FieldKind.ORGANIZATION)


@value_class
class Deal(_Record):
    """A merger or acquisition: the companies, value, price, stake and status."""

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


@value_class
class Earnings(_Record):
    """A company's earnings report: earnings or loss, sales and per-share figures."""

    company: Optional[Organization] = _f("Company", FieldKind.ORGANIZATION)
    eps: Optional[Money] = _f("EPS", FieldKind.MONEY)
    earnings_amount: Optional[Money] = _f("EarningsAmount", FieldKind.MONEY)
    good_bad: Optional[GoodBad] = _f("GoodBad", FieldKind.ENUM, enum=GoodBad)
    loss: Optional[Money] = _f("Loss", FieldKind.MONEY)
    previous_eps: Optional[Money] = _f("PreviousEPS", FieldKind.MONEY)
    previous_earnings: Optional[Money] = _f("PreviousEarnings", FieldKind.MONEY)
    sales: Optional[Money] = _f("Sales", FieldKind.MONEY)
    sales_ps: Optional[Money] = _f("SalesPS", FieldKind.MONEY)


@value_class
class EconomicRelease(_Record):
    """An economic figure's release: its type, rates, growth, direction and source."""

    annual_rate: Optional[Decimal] = _f("AnnualRate", FieldKind.DECIMAL)
    direction: Optional[Direction] = _f("Direction", FieldKind.ENUM, enum=Direction)
    economic_release_type: Optional[str] = _f("EconomicReleaseType", FieldKind.TOKEN)
    growth: Optional[Money] = _f("Growth", FieldKind.MONEY)
    growth_rate: Optional[Decimal] = _f("GrowthRate", FieldKind.DECIMAL)
    previous_rate: Optional[Decimal] = _f("PreviousRate", FieldKind.DECIMAL)
    rate: Optional[Decimal] = _f("Rate", FieldKind.DECIMAL)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)


@value_class
class FedWatch(_Record):
    """A central bank's action on an interest rate."""

    actor: Optional[Organization] = _f("Actor", FieldKind.ORGANIZATION)
    fed_action: Optional[FedAction] = _f("FedAction", FieldKind.ENUM, enum=FedAction)
    interest_rate: Optional[InterestRateName] = _f(
        "InterestRate", FieldKind.ENUM, enum=InterestRateName)
    rate: Optional[Decimal] = _f("Rate", FieldKind.DECIMAL)


@value_class
class IPO(_Record):
    """An initial public offering: the company, shares, stake, amount
    raised and market value."""

    company: Optional[Organization] = _f("Company", FieldKind.ORGANIZATION)
    market_cap: Optional[Money] = _f("MarketCap", FieldKind.MONEY)
    raised: Optional[Money] = _f("Raised", FieldKind.MONEY)
    shares: Optional[int] = _f("Shares", FieldKind.INT, lo=1)
    stake: Optional[Decimal] = _f("Stake", FieldKind.DECIMAL, lo=0, hi=100, lo_open=True)


@value_class
class InjuryFatality(_Record):
    """People killed or injured: the counts, the victims, the cause and the place."""

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


@value_class
class JointVenture(_Record):
    """A joint venture between companies."""

    companies: tuple[Organization, ...] = _f("Company", FieldKind.ORG_LIST)
    item: Optional[str] = _f("Item", FieldKind.TEXT)
    joint_venture_type: Optional[JointVentureType] = _f(
        "JointVentureType", FieldKind.ENUM, enum=JointVentureType)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)


@value_class
class LegalEvent(_Record):
    """A legal event: accusation, arrest, filing, judgment, sentence and the parties."""

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


@value_class
class MedicalFinding(_Record):
    """A medical finding: an illness and a factor in it."""

    illness: Optional[str] = _f("Illness", FieldKind.TOKEN)
    illness_factor: Optional[IllnessFactor] = _f(
        "IllnessFactor", FieldKind.ENUM, enum=IllnessFactor)


@value_class
class Negotiation(_Record):
    """A negotiation between parties: its agreement and status."""

    agreement: Optional[Agreement] = _f("Agreement", FieldKind.ENUM, enum=Agreement)
    negotiation_status: Optional[NegotiationStatus] = _f(
        "NegotiationStatus", FieldKind.ENUM, enum=NegotiationStatus)
    negotiator: Optional[Person] = _f("Negotiator", FieldKind.PERSON)
    parties: tuple[OrgOrPerson, ...] = _f("Party", FieldKind.ORG_OR_PERSON_LIST)


@value_class
class NewProduct(_Record):
    """A product announcement: the company, item, price and status."""

    company: Optional[Organization] = _f("Company", FieldKind.ORGANIZATION)
    item: Optional[str] = _f("Item", FieldKind.TEXT)
    price: Optional[Money] = _f("Price", FieldKind.MONEY)
    product_status: Optional[ProductStatus] = _f(
        "ProductStatus", FieldKind.ENUM, enum=ProductStatus)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)
    support_for: Optional[str] = _f("SupportFor", FieldKind.TEXT)


@value_class
class Succession(_Record):
    """A change in office: the employer, the function, who comes in and who goes out."""

    employer: Optional[OrgOrPerson] = _f("Employer", FieldKind.ORG_OR_PERSON)
    function: Optional[str] = _f("Function", FieldKind.TEXT)
    person_in: Optional[Person] = _f("In", FieldKind.PERSON)
    person_out: Optional[Person] = _f("Out", FieldKind.PERSON)
    source: Optional[OrgOrPerson] = _f("Source", FieldKind.ORG_OR_PERSON)


@value_class
class Trip(_Record):
    """A visit: the visitor, the host and the destination."""

    host: Optional[OrgOrPerson] = _f("Host", FieldKind.ORG_OR_PERSON)
    to_location: Optional[Location] = _f("ToLocation", FieldKind.LOCATION)
    visitor: Optional[Person] = _f("Visitor", FieldKind.PERSON)
    visitor_count: Optional[int] = _f("VisitorCount", FieldKind.INT, lo=0)


@value_class
class Vote(_Record):
    """A vote on legislation: the counts, the status, the voting body and the signer."""

    against: Optional[int] = _f("Against", FieldKind.INT, lo=0)
    in_favor: Optional[int] = _f("InFavor", FieldKind.INT, lo=0)
    law: Optional[str] = _f("Law", FieldKind.TEXT)
    legislation: Optional[Legislation] = _f("Legislation", FieldKind.ENUM, enum=Legislation)
    signer: Optional[Person] = _f("Signer", FieldKind.PERSON)
    vote_status: Optional[VoteStatus] = _f("VoteStatus", FieldKind.ENUM, enum=VoteStatus)
    voting_body: Optional[Organization] = _f("VotingBody", FieldKind.ORGANIZATION)


@value_class
class War(_Record):
    """An armed conflict: the force, its action, the leader, the victims and the place."""

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


@value_class
class Weather(_Record):
    """A weather event: the storm, its readings, the warnings and the place."""

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


@value_class
class NewsForm:
    """A document: the header and its events."""

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
    set: the others read their default from the class, as after
    ``__init__``."""
    record = object.__new__(cls)
    record.__dict__.update(values)
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

@value_class
class Finding:
    """One constraint violation: the field path, a code and a message."""

    path: str
    code: str
    message: str


@value_class
class ValidationReport:
    """The findings of ``validate``; ``ok`` when there are none."""

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
    if spec.is_list:   # a tuple, as construction normalizes it
        for i, item in enumerate(value, start=1):
            item_path = path if len(value) == 1 else f"{path}[{i}]"
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
        elif spec.required:
            out.append(Finding(f"{path}/{spec.element}", "required",
                               f"<{spec.element}> is required"))


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
    reported; a missing required one (a money's amount or currency) is.
    ``xmlcodec.parse_newsform`` reports the same findings, in the same
    order, as it reads a document.
    """
    out: list[Finding] = []
    _check_record(out, "Head", doc.head, (Head,))
    events = doc.events
    if not isinstance(events, tuple):
        out.append(Finding("Events", "type",
                           f"expected a tuple of events, got {type(events).__name__}"))
        events = ()
    multi = len(events) > 1
    for i, event in enumerate(events, start=1):
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
# Field conditions, the one language of the kb and the sentiment table: ``*``
# (always) or atoms joined by ``&``, each ``Field`` (``Field set``),
# ``Field empty``, ``Field ambiguous`` or ``Field`` then ``=``, ``!=``, ``<``
# or ``>`` then an operand. A field is a dotted path that may end at, but not
# pass through, a list or person-or-organization field; a condition reads its
# first value. An operand that is such a path names that field; any other is
# the ``leaf_token`` text (``=``, ``!=``) or the number (``<``, ``>``, which
# order number fields only) it is read into once, when the table loads.

_NUMBER_RE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_OPERATOR_RE = re.compile(r"!=|[<>=]")
_CONDITION_OPS = {"=": "eq", "!=": "ne", "<": "lt", ">": "gt"}
_NUMBER_KINDS = (FieldKind.INT, FieldKind.DECIMAL)


def read_number(text: str) -> Optional[Decimal]:
    """The number ASCII text spells (``5``, ``-0.00``, ``+5``, ``.5``,
    ``5E0``), or None. ``Decimal`` alone would also read other scripts'
    digits, underscores, surrounding spaces, NaN and Infinity."""
    if _NUMBER_RE.fullmatch(text) is None:
        return None
    try:
        return Decimal(text)
    except InvalidOperation:   # an exponent beyond what a Decimal holds
        return None


@value_class
class Condition:
    """One atom of a field condition (see "Field conditions")."""

    specs: tuple[FieldSpec, ...]    # the field tested
    op: str                         # set | empty | ambiguous | eq | ne | lt | gt
    value: Union[str, Decimal, None] = None   # the token (eq, ne) or number (lt, gt) ...
    value_specs: Optional[tuple[FieldSpec, ...]] = None   # ... unless the operand is a field

    def holds(self, event, alternatives=None) -> bool:
        """Whether the event meets the condition; ``ambiguous`` asks
        ``alternatives``, the other readings extraction found per attribute."""
        if self.op == "ambiguous":
            return bool(alternatives and alternatives.get(self.specs[0].attr))
        value = next(iter(values_at(event, self.specs)), None)
        if self.op == "set" or self.op == "empty":
            return (value is None) is (self.op == "empty")
        other = self.value if self.value_specs is None else \
            next(iter(values_at(event, self.value_specs)), None)
        if value is None or other is None:
            return False
        if self.op == "eq" or self.op == "ne":
            return (leaf_token(None, value) == leaf_token(None, other)) is (self.op == "eq")
        numbers = isinstance(value, (int, Decimal)) and isinstance(other, (int, Decimal))
        return numbers and (value < other if self.op == "lt" else value > other)


def _condition_path(cls: type, path: str) -> Optional[tuple[FieldSpec, ...]]:
    specs = resolve_path(cls, path)
    if specs is None or any(spec.is_list or len(spec.records) > 1 for spec in specs[:-1]):
        return None
    return specs


def read_conditions(cls: type, text: str) -> tuple[Condition, ...]:
    """The conditions a table cell spells over events of ``cls``; ValueError
    says why a cell spells none."""
    text = text.strip()
    return () if text == "*" else tuple(_read_condition(cls, atom.strip())
                                        for atom in text.split("&"))


def _read_condition(cls: type, atom: str) -> Condition:
    operator = _OPERATOR_RE.search(atom)
    if operator is None:
        path, *test = atom.split() or [""]
        op, operand = " ".join(test) or "set", None
        if op not in ("set", "empty", "ambiguous"):
            raise ValueError(f"bad condition {atom!r}")
    else:
        path, operand = atom[:operator.start()].strip(), atom[operator.end():].strip()
        op = _CONDITION_OPS[operator.group()]
        if not path or not operand or _OPERATOR_RE.search(operand):
            raise ValueError(f"condition {atom!r} needs one operator between two sides")
    specs = _condition_path(cls, path)
    if specs is None:
        raise ValueError(f"unknown field path {path!r}")
    if op == "ambiguous" and (len(specs) > 1 or len(specs[0].records) < 2):
        raise ValueError(f"{atom!r}: only a person-or-organization field of the event "
                         f"is ambiguous")
    if operand is None:
        return Condition(specs, op)
    operand_specs = _condition_path(cls, operand)
    if op == "eq" or op == "ne":
        return Condition(specs, op, None if operand_specs else operand, operand_specs)
    number = None if operand_specs else read_number(operand)
    if not operand_specs and number is None:
        raise ValueError(f"{atom!r} compares with {operand!r}, neither a field nor a number")
    if any(side[-1].kind not in _NUMBER_KINDS for side in (specs, operand_specs) if side):
        raise ValueError(f"{atom!r} orders a field that is not a number")
    return Condition(specs, op, number, operand_specs)


# ---------------------------------------------------------------------------
# Sentiment classification (the map legend: negative / positive / other)

@lru_cache(maxsize=None)
def _sentiment_table() -> dict[type, tuple[tuple[tuple[Condition, ...], Sentiment], ...]]:
    """Each event class's (conditions, sentiment) rows, in file order."""
    table: dict[type, list] = {}
    path = packaged_data_root() / "sentiment.tsv"
    for lineno, columns in rows(path.read_text(encoding="utf-8")):
        parts = "\t".join(columns).strip().split("\t")   # the stripped line's columns
        try:
            if len(parts) != 3:
                raise ValueError(f"expected 3 columns, got {len(parts)}")
            variant, cell, sentiment = parts
            if variant not in EVENT_TYPES:
                raise ValueError(f"unknown event type {variant!r}")
            cls = EVENT_TYPES[variant]
            table.setdefault(cls, []).append((read_conditions(cls, cell), Sentiment(sentiment)))
        except ValueError as exc:
            raise ValueError(f"sentiment.tsv:{lineno}: {exc}") from None
    return {cls: tuple(rows) for cls, rows in table.items()}


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
        return format_timestamp(value)
    return str(value)


def classify_sentiment(event: NewsEvent) -> Sentiment:
    """Classify an event as Positive, Negative, or Other.

    Total and deterministic over all event types; driven by the shipped
    classification table, whose conditions are the kb's, first matching
    row wins.
    """
    for conditions, sentiment in _sentiment_table().get(type(event), ()):
        if all(condition.holds(event) for condition in conditions):
            return sentiment
    return Sentiment.OTHER
