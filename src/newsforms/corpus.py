"""Corpus index and query engine over news-event documents.

A corpus is a directory of ``*.newsform.xml`` files. The index holds the
documents that read without an error or a finding; the reader checks each
document as it parses it, so indexing walks a document once. Its inverted
map from (event type, field path, value token) to document ids is built
only when something reads it.
Each command builds the index once and runs one query, so queries scan
the parsed documents rather than pay for postings they would read once.
Queries are a conjunction of field-path predicates that must all hold on
one event record, with optional sorting, and time windows; results equal
brute-force evaluation on every corpus.

Query surface syntax::

    Variant.Path.To.Field OP value [and Variant.Path OP value ...]
        [sort Variant.Path asc|desc] [since TS] [until TS]

Operators: = != < <= > >= contains. A bare variant name matches every
document containing an event of that type. A predicate path ends at a
value field, a money or a measure, never at a person, organization or
location record. Money literals are written
``USD:1000000.50``; comparing against a differently-denominated field is
an error. A ``NaN`` literal on a numeric field is an error. Sorting is
on the exact value; equal keys keep document order in both directions.
Timestamps use the dateline format ``YYYYMMDDTHHMMSSZ``.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from decimal import Context, Decimal, InvalidOperation
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

from . import model
from .model import FieldKind, FieldSpec, Measure, Money, NewsForm
from .vocab import Sentiment
from .xmlcodec import FILE_EXTENSION, read_newsform

_MONEY_LITERAL_RE = re.compile(r"^([A-Z]{3}):(-?[0-9]+(?:\.[0-9]+)?)$")

_COMPARE_OPS = {"<", "<=", ">", ">="}
_ALL_OPS = {"=", "!=", "<", "<=", ">", ">=", "contains"}


class QueryError(ValueError):
    """Query text that does not parse or type-check; carries a position."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(message)
        self.position = position


def _norm_number(value) -> str:
    """Canonical text of a number: trailing zeros stripped, never rounded."""
    dec = value if isinstance(value, Decimal) else Decimal(value)
    norm = dec.normalize()
    if norm != dec and dec.is_finite():   # rounded to the context's precision
        norm = dec.normalize(Context(prec=len(dec.as_tuple().digits)))
    return format(norm, "f")


def _posting_token(spec: FieldSpec, value) -> str:
    """Index text of a value: numbers normalized, ``USD:2.5``, ``75 mph``."""
    if spec.kind in (FieldKind.INT, FieldKind.DECIMAL):
        return _norm_number(value)
    if spec.kind is FieldKind.MONEY:
        return f"{value.currency}:{_norm_number(value.amount)}"
    if spec.kind is FieldKind.MEASURE:
        return f"{_norm_number(value.value)} {value.unit}"
    return model.leaf_token(spec, value)


# ---------------------------------------------------------------------------
# Index

@dataclass
class IndexedDoc:
    doc_id: str
    path: str
    form: NewsForm


@dataclass
class CorpusIndex:
    docs: list[IndexedDoc] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    def doc(self, doc_id: str) -> IndexedDoc:
        return next(d for d in self.docs if d.doc_id == doc_id)

    @cached_property
    def postings(self) -> dict[tuple[str, str, str], set[str]]:
        """Ids of the documents holding each (event type, field path, value
        token), built on first read."""
        postings: dict[tuple[str, str, str], set[str]] = {}
        for doc in self.docs:
            for event in doc.form.events:
                variant = model.ELEMENT_OF_EVENT[type(event)]
                for leaf_path, token in _leaf_postings(event, ""):
                    postings.setdefault((variant, leaf_path, token), set()).add(doc.doc_id)
        return postings


def _leaf_postings(record, prefix: str):
    """Yield (dotted path, value token) for every populated leaf; a money
    value is posted whole and by its Amount and Currency."""
    # the inner loop of the postings build, so it reads fields directly
    # rather than through model.values_at
    for spec in model.specs_for(type(record)):
        value = getattr(record, spec.attr)
        if value is None or value == ():
            continue
        path = f"{prefix}.{spec.element}" if prefix else spec.element
        if not spec.records or spec.kind is FieldKind.MONEY:
            yield path, _posting_token(spec, value)
        if spec.records:
            for item in value if spec.is_list else (value,):
                yield from _leaf_postings(item, path)


def build_index(paths: Iterable) -> CorpusIndex:
    """Index the given files; invalid ones are skipped with a diagnostic."""
    index = CorpusIndex()
    for n, path in enumerate(paths, start=1):
        doc_id = f"d{n:04d}"
        findings: list[model.Finding] = []
        try:
            form = read_newsform(path, findings)
        except (OSError, ValueError) as exc:
            index.diagnostics.append(f"skipped\t{path}\t{exc}")
            continue
        if findings:
            first = findings[0]
            index.diagnostics.append(
                f"skipped\t{path}\tinvalid: {first.path}: {first.message}")
            continue
        index.docs.append(IndexedDoc(doc_id, str(path), form))
    return index


def corpus_paths(directory) -> list[Path]:
    return sorted(Path(directory).glob(f"*{FILE_EXTENSION}"))


# ---------------------------------------------------------------------------
# Queries

@dataclass(frozen=True)
class Predicate:
    path: str          # dotted, without the variant
    op: str
    value: str         # literal token as written
    specs: tuple[FieldSpec, ...] = ()


class SortOrder(Enum):
    ASC = "asc"
    DESC = "desc"


@dataclass(frozen=True)
class QueryExpr:
    variant: str
    predicates: tuple[Predicate, ...] = ()
    sort_path: Optional[str] = None
    sort_specs: tuple[FieldSpec, ...] = ()
    sort_order: SortOrder = SortOrder.ASC
    since: Optional[datetime] = None
    until: Optional[datetime] = None


_TOKEN_SPLIT_RE = re.compile(r'"[^"]*"|\S+')

_DATELINE = (model.spec_by_element(model.Head, "DatelineTime"),)


def _is_nan(literal: str) -> bool:
    try:
        return Decimal(literal).is_nan()
    except InvalidOperation:
        return False


def event_type(name: str, position: int = 0) -> type:
    """The event class of a variant name; QueryError if there is none."""
    if name not in model.EVENT_TYPES:
        raise QueryError(f"unknown event type {name!r}", position)
    return model.EVENT_TYPES[name]


def parse_query(text: str) -> QueryExpr:
    """Parse query surface syntax; errors carry the offending position."""
    tokens = [(m.group(), m.start()) for m in _TOKEN_SPLIT_RE.finditer(text)]
    if not tokens:
        raise QueryError("empty query")
    variant: Optional[str] = None
    predicates: list[Predicate] = []
    sort_path = None
    sort_specs: tuple[FieldSpec, ...] = ()
    sort_order = SortOrder.ASC
    since = until = None
    i = 0

    def parse_stamp(token: str, pos: int) -> datetime:
        try:
            return model.parse_timestamp(token)
        except ValueError:
            raise QueryError(f"bad timestamp {token!r} (want YYYYMMDDTHHMMSSZ)",
                             pos) from None

    def split_variant(dotted: str, pos: int):
        nonlocal variant
        parts = dotted.split(".", 1)
        name = parts[0]
        event_type(name, pos)
        if variant is None:
            variant = name
        elif variant != name:
            raise QueryError(
                f"all predicates must use one event type ({variant}), got {name}", pos)
        return parts[1] if len(parts) > 1 else None

    while i < len(tokens):
        token, pos = tokens[i]
        lower = token.lower()
        if lower == "and":
            i += 1
            continue
        if lower == "sort":
            if i + 1 >= len(tokens):
                raise QueryError("sort needs a field path", pos)
            path_token, path_pos = tokens[i + 1]
            i += 2
            if i < len(tokens) and tokens[i][0].lower() in ("asc", "desc"):
                sort_order = SortOrder(tokens[i][0].lower())
                i += 1
            if path_token == "DatelineTime":
                sort_path, sort_specs = path_token, _DATELINE
                continue
            rel = split_variant(path_token, path_pos)
            if rel is None:
                raise QueryError("sort path needs a field", path_pos)
            specs = model.resolve_path(model.EVENT_TYPES[variant], rel)
            if specs is None:
                raise QueryError(f"unknown field path {path_token!r}", path_pos)
            if specs[-1].kind not in model.ORDERED_KINDS:
                raise QueryError(
                    f"sort field {path_token!r} is not numeric, date, or money",
                    path_pos)
            sort_path, sort_specs = rel, specs
            continue
        if lower == "since" or lower == "until":
            if i + 1 >= len(tokens):
                raise QueryError(f"{lower} needs a timestamp", pos)
            stamp = parse_stamp(tokens[i + 1][0], tokens[i + 1][1])
            if lower == "since":
                since = stamp
            else:
                until = stamp
            i += 2
            continue
        # predicate: Path OP value, or a bare variant name
        rel = split_variant(token, pos)
        if rel is None:
            i += 1
            continue
        if i + 2 >= len(tokens):
            raise QueryError(f"predicate on {token!r} needs an operator and value", pos)
        op_token, op_pos = tokens[i + 1]
        value_token, value_pos = tokens[i + 2]
        if op_token not in _ALL_OPS:
            raise QueryError(f"unknown operator {op_token!r}", op_pos)
        specs = model.resolve_path(model.EVENT_TYPES[variant], rel)
        if specs is None:
            raise QueryError(f"unknown field path {token!r}", pos)
        kind = specs[-1].kind
        if specs[-1].records and kind is not FieldKind.MONEY:
            raise QueryError(
                f"field path {token!r} names a record, not a value; name one of its fields",
                pos)
        value = value_token.strip('"')
        if op_token in _COMPARE_OPS and kind not in model.ORDERED_KINDS:
            raise QueryError(
                f"operator {op_token!r} needs a numeric, date, or money field", op_pos)
        if kind is FieldKind.MONEY and op_token != "contains" \
                and not _MONEY_LITERAL_RE.match(value_token):
            raise QueryError(
                f"money literal must look like USD:100.50, got {value_token!r}", pos)
        if kind in (FieldKind.INT, FieldKind.DECIMAL) and _is_nan(value):
            raise QueryError(f"{value_token!r} is not a number", value_pos)
        predicates.append(Predicate(rel, op_token, value, specs))
        i += 3
    if variant is None:
        raise QueryError("query names no event type")
    return QueryExpr(variant=variant, predicates=tuple(predicates),
                     sort_path=sort_path, sort_specs=sort_specs,
                     sort_order=sort_order, since=since, until=until)


# -- evaluation --------------------------------------------------------------

_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _text(spec: FieldSpec, value) -> str:
    """What ``contains`` and text equality see: the document token, or the
    index text of a money or measure value."""
    if isinstance(value, (Money, Measure)):
        return _posting_token(spec, value)
    return model.leaf_token(spec, value)


def _predicate_holds(pred: Predicate, event) -> bool:
    spec = pred.specs[-1]
    kind = spec.kind
    for value in model.values_at(event, pred.specs):
        if pred.op == "contains":
            if pred.value.lower() in _text(spec, value).lower():
                return True
            continue
        if kind is FieldKind.MONEY:
            currency, amount = _MONEY_LITERAL_RE.match(pred.value).groups()
            if value.currency != currency:
                raise QueryError(
                    f"cannot compare {value.currency} amount with {currency} literal")
            lhs, rhs = value.amount, Decimal(amount)
        elif kind in (FieldKind.INT, FieldKind.DECIMAL):
            try:
                lhs, rhs = Decimal(value), Decimal(pred.value)
            except InvalidOperation:
                continue
        elif kind is FieldKind.TIMESTAMP:
            try:
                lhs, rhs = value, model.parse_timestamp(pred.value)
            except ValueError:
                continue
        else:
            lhs, rhs = _text(spec, value), pred.value
        if _COMPARE[pred.op](lhs, rhs):
            return True
    return False


def _event_matches(query: QueryExpr, event) -> bool:
    return all(_predicate_holds(pred, event) for pred in query.predicates)


def _doc_in_window(query: QueryExpr, doc: IndexedDoc) -> bool:
    if query.since is None and query.until is None:
        return True
    stamp = doc.form.head.dateline_time
    if stamp is None:
        return False
    if query.since is not None and stamp < query.since:
        return False
    if query.until is not None and stamp > query.until:
        return False
    return True


def _matching_events(query: QueryExpr, doc: IndexedDoc) -> list:
    cls = model.EVENT_TYPES[query.variant]
    return [event for event in doc.form.events
            if isinstance(event, cls) and _event_matches(query, event)]


@dataclass(frozen=True)
class QueryHit:
    doc_id: str
    path: str
    sort_value: str  # "-" when the doc has no value for the sort key


def evaluate_query(index: CorpusIndex, query: QueryExpr) -> list[QueryHit]:
    hits = []
    for doc in index.docs:
        if not _doc_in_window(query, doc):
            continue
        events = _matching_events(query, doc)
        if not events:
            continue
        sort_key = None
        if query.sort_path is not None:
            records = (doc.form.head,) if query.sort_path == "DatelineTime" else events
            sort_key = next((value for record in records
                             for value in model.values_at(record, query.sort_specs)), None)
        display = "-" if sort_key is None else _posting_token(query.sort_specs[-1], sort_key)
        hits.append((sort_key, QueryHit(doc.doc_id, doc.path, display)))
    if query.sort_path is not None:
        keyed = [pair for pair in hits if pair[0] is not None]
        # exact values; the sort is stable under reverse too, so equal keys
        # keep doc order; hits without a key follow in doc order
        keyed.sort(key=lambda pair: pair[0].amount if isinstance(pair[0], Money) else pair[0],
                   reverse=query.sort_order is SortOrder.DESC)
        hits = keyed + [pair for pair in hits if pair[0] is None]
    return [hit for _, hit in hits]


def query(index: CorpusIndex, q: QueryExpr) -> list[str]:
    """Ordered ids of the documents with at least one fully matching event."""
    return [hit.doc_id for hit in evaluate_query(index, q)]


# ---------------------------------------------------------------------------
# Statistics

class Bucket(Enum):
    DAY = "day"
    WEEK = "week"


@dataclass(frozen=True)
class StatsResult:
    buckets: tuple[tuple[datetime, int], ...]
    undated: int


def _bucket_start(stamp: datetime, bucket: Bucket) -> datetime:
    day = datetime(stamp.year, stamp.month, stamp.day, tzinfo=timezone.utc)
    if bucket is Bucket.WEEK:
        return day - timedelta(days=day.weekday())
    return day


def stats(index: CorpusIndex, variant: str, bucket: Bucket) -> StatsResult:
    """Events of one type per UTC day or week; gaps inside the covered
    range appear with count 0; undated documents are tallied separately."""
    cls = event_type(variant)
    counts: dict[datetime, int] = {}
    undated = 0
    for doc in index.docs:
        n = sum(1 for event in doc.form.events if isinstance(event, cls))
        if n == 0:
            continue
        stamp = doc.form.head.dateline_time
        if stamp is None:
            undated += n
            continue
        start = _bucket_start(stamp, bucket)
        counts[start] = counts.get(start, 0) + n
    if not counts:
        return StatsResult(buckets=(), undated=undated)
    step = timedelta(days=7 if bucket is Bucket.WEEK else 1)
    current = min(counts)
    last = max(counts)
    out = []
    while current <= last:
        out.append((current, counts.get(current, 0)))
        current += step
    return StatsResult(buckets=tuple(out), undated=undated)


# ---------------------------------------------------------------------------
# Geographic distribution

@dataclass(frozen=True)
class GeoDistribution:
    per_country: tuple[tuple[str, tuple[int, int, int]], ...]  # sorted by code
    unlocated: tuple[int, int, int]

    def total(self) -> int:
        return sum(sum(c) for _, c in self.per_country) + sum(self.unlocated)


def resolve_event_country(event) -> Optional[str]:
    """Country of an event: its location, destination, or a party's origin."""
    for attr in ("at_location", "to_location"):
        location = getattr(event, attr, None)
        if location is not None and location.country:
            return location.country
    for spec in model.specs_for(type(event)):
        for value in model.values_at(event, (spec,)):
            if isinstance(value, model.Person) and value.country:
                return value.country
    return None


def geo_distribution(index: CorpusIndex, query_expr: QueryExpr) -> GeoDistribution:
    """Bucket matched events by country and sentiment."""
    tallies: dict[Optional[str], list[int]] = {}
    for doc in index.docs:
        if not _doc_in_window(query_expr, doc):
            continue
        for event in _matching_events(query_expr, doc):
            country = resolve_event_country(event)
            slot = {Sentiment.POSITIVE: 0, Sentiment.NEGATIVE: 1,
                    Sentiment.OTHER: 2}[model.classify_sentiment(event)]
            tallies.setdefault(country, [0, 0, 0])[slot] += 1
    unlocated = tuple(tallies.pop(None, [0, 0, 0]))
    per_country = tuple(sorted((code, tuple(counts))
                               for code, counts in tallies.items()))
    return GeoDistribution(per_country=per_country, unlocated=unlocated)
