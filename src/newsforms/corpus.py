"""Corpus index and query engine over news-event documents.

A corpus is a directory of ``*.newsform.xml`` files. ``corpus_paths``
lists them as ``str`` paths, the directory joined to each name, which the
reader opens and ``IndexedDoc.path`` and the ``skipped`` lines carry as
they are; no Path object is built per file. The index holds the
documents that read without an error or a finding; the reader
(``xmlcodec.read_newsforms``) checks each document as it parses it, so
indexing walks a document once. It parses up to 64 files at a time as one
wrapped XML document, and reads alone a file that could change such a
batch's outcome (see ``xmlcodec``), so every kept document and ``skipped``
line is what reading each file alone gives. Each document is handed over
as it is walked: given an event type, the index keeps only the documents
holding an event of that type, the only ones a query, stats or geo
request over it reads, and drops the others at once. Its
inverted map from (event type, field path, value token) to document ids
is built only when something reads it.
Each command builds the index once and runs one query, so queries scan
the parsed documents rather than pay for postings they would read once.
A large corpus is read in per-CPU shards of its sorted file list
(``shards.run``), joined in file order, so the result equals a serial read.
Queries are a conjunction of field-path predicates that must all hold on
one event record, with optional sorting, and time windows; results equal
brute-force evaluation on every corpus.

Query surface syntax::

    Variant.Path.To.Field OP value [and Variant.Path OP value ...]
        [sort Variant.Path asc|desc] [since TS] [until TS]

Operators: = != < <= > >= contains. A bare variant name matches every
document containing an event of that type. A predicate path ends at a
value field, a money or a measure, never at a person, organization or
location record, and never at a timestamp: the dateline is read only by
``since``, ``until`` and ``sort DatelineTime``. Ordering operators and
``sort`` take number and money fields. ``parse_query`` reads each
literal once into the operand every event is compared with: a number on
an integer or decimal field, read by ``model.read_number`` (``NaN``,
``Infinity``, ``abc``, ``1_4_3`` or other scripts' digits are an error);
on a money field, but for ``contains``, a ``Money`` written
``USD:1000000.50`` (``[A-Z]{3}:``, an optional ``-``, ASCII digits and
an optional fraction); elsewhere the text, which ``contains`` also
matches on. Comparing money against a differently-denominated field is
an error. Sorting is on the exact value; equal keys keep document order
in both directions.
Timestamps use the dateline format ``YYYYMMDDTHHMMSSZ``.
"""

from __future__ import annotations

import operator
import os
import re
from dataclasses import field
from datetime import datetime, timedelta, timezone
from decimal import Context, Decimal
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Optional

from . import model, shards
from .model import FieldKind, FieldSpec, Measure, Money, NewsForm, value_class
from .vocab import Sentiment
from .xmlcodec import FILE_EXTENSION, read_newsforms

_MONEY_LITERAL_RE = re.compile(r"^([A-Z]{3}):(-?[0-9]+(?:\.[0-9]+)?)$")

_COMPARE = {"=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_COMPARE_OPS = _COMPARE.keys() - {"=", "!="}   # the ordering operators
_ALL_OPS = _COMPARE.keys() | {"contains"}


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

@value_class(frozen=False)
class IndexedDoc:
    """A kept corpus document: its id, path and parsed form."""

    doc_id: str
    path: str
    form: NewsForm


@value_class(frozen=False)
class CorpusIndex:
    """The documents a corpus read kept, in path order, and its ``skipped`` lines."""

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


# A shard goes to a child process only when each shard would hold at least
# this many files. A fork round trip costs about 2 ms in a 30-40 MB process
# (2 CPUs, Python 3.11), the parse of some 40 documents, and each kept
# document is pickled across a pipe and read back; at 256 files a second
# shard saves several times that, and small corpora such as test fixtures
# stay in one process.
SHARD_MIN_FILES = 256


def build_index(paths: Iterable, variant: Optional[str] = None) -> CorpusIndex:
    """Index the given files; invalid ones are skipped with a diagnostic.

    Document ids count every path, ``d0001`` for the first, kept or
    skipped. With ``variant``, only the documents holding an event of
    that type are kept: queries, stats and geo over that type read no
    other document.

    The path list is read in contiguous shards of at least
    ``SHARD_MIN_FILES`` files, one per usable CPU (``shards.run``), and
    joined in path order, so documents and diagnostics come out as a
    serial read gives them.
    """
    paths = list(paths)
    cls = None if variant is None else event_type(variant)
    index = CorpusIndex()
    for docs, diagnostics in shards.run(len(paths), SHARD_MIN_FILES,
                                        lambda start, stop: _read_shard(paths, start, stop, cls)):
        index.docs += docs
        index.diagnostics += diagnostics
    return index


def _read_shard(paths: list, start: int, stop: int, cls: Optional[type]):
    """The kept documents and the diagnostics of ``paths[start:stop]``."""
    docs: list[IndexedDoc] = []
    diagnostics: list[str] = []
    for n, (form, findings) in enumerate(read_newsforms(paths[start:stop]), start):
        path = paths[n]
        if form.__class__ is not NewsForm:   # the error that reading the file raised
            diagnostics.append(f"skipped\t{path}\t{form}")
            continue
        if findings:
            first = findings[0]
            diagnostics.append(f"skipped\t{path}\tinvalid: {first.path}: {first.message}")
            continue
        if cls is None or any(isinstance(event, cls) for event in form.events):
            docs.append(IndexedDoc(f"d{n + 1:04d}", str(path), form))
    return docs, diagnostics


def corpus_paths(directory) -> list[str]:
    """The directory's entries named ``*.newsform.xml``, in name order, as
    path strings: those of the list ``sorted(Path(directory).glob(
    "*.newsform.xml"))`` gives, dot-files and matching subdirectories
    included, but sorted as name strings and joined to one normalized base
    (``str(Path(directory))``; ``.`` gives no prefix) rather than built as
    Path objects, which costs more than the listing itself."""
    base = str(Path(directory))
    try:
        with os.scandir(base) as entries:
            names = sorted(entry.name for entry in entries
                           if entry.name.endswith(FILE_EXTENSION))
    except OSError:   # as with glob, a directory that cannot be listed lists nothing
        return []
    if base == ".":
        return names
    prefix = os.path.join(base, "")
    return [prefix + name for name in names]


# ---------------------------------------------------------------------------
# Queries

@value_class
class Predicate:
    """One comparison of a query: the operator, the literal and the field path."""

    op: str
    value: str         # literal token as written, quotes stripped
    specs: tuple[FieldSpec, ...]
    literal: Decimal | Money | str   # ``value`` read once; see parse_query


@value_class
class QueryExpr:
    """A parsed query: the event type, predicates, sort key and date window."""

    variant: str
    predicates: tuple[Predicate, ...] = ()
    sort_specs: tuple[FieldSpec, ...] = ()   # () unsorted; _DATELINE sorts on the dateline
    descending: bool = False
    since: Optional[datetime] = None
    until: Optional[datetime] = None


_TOKEN_SPLIT_RE = re.compile(r'"[^"]*"|\S+')

_DATELINE = (model.spec_by_element(model.Head, "DatelineTime"),)


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
    sort_specs: tuple[FieldSpec, ...] = ()
    descending = False
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
                descending = tokens[i][0].lower() == "desc"
                i += 1
            if path_token == "DatelineTime":
                sort_specs = _DATELINE
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
            sort_specs = specs
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
        literal = value
        if kind is FieldKind.MONEY and op_token != "contains":
            match = _MONEY_LITERAL_RE.match(value_token)
            if match is None:
                raise QueryError(
                    f"money literal must look like USD:100.50, got {value_token!r}", pos)
            literal = Money(Decimal(match[2]), match[1])
        elif kind in (FieldKind.INT, FieldKind.DECIMAL):
            literal = model.read_number(value)
            if literal is None:
                raise QueryError(f"{value_token!r} is not a number", value_pos)
        predicates.append(Predicate(op_token, value, specs, literal))
        i += 3
    if variant is None:
        raise QueryError("query names no event type")
    return QueryExpr(variant=variant, predicates=tuple(predicates), sort_specs=sort_specs,
                     descending=descending, since=since, until=until)


# -- evaluation --------------------------------------------------------------

def _text(spec: FieldSpec, value) -> str:
    """What ``contains`` and text equality see: the document token, or the
    index text of a money or measure value."""
    if isinstance(value, (Money, Measure)):
        return _posting_token(spec, value)
    return model.leaf_token(spec, value)


def _predicate_holds(pred: Predicate, event) -> bool:
    spec = pred.specs[-1]
    compare = _COMPARE.get(pred.op)   # None for contains
    literal = pred.literal
    for value in model.values_at(event, pred.specs):
        if compare is None:
            holds = pred.value.lower() in _text(spec, value).lower()
        elif isinstance(literal, Money):
            if value.currency != literal.currency:
                raise QueryError(f"cannot compare {value.currency} amount "
                                 f"with {literal.currency} literal")
            holds = compare(value.amount, literal.amount)
        elif isinstance(literal, Decimal):
            holds = compare(value, literal)   # an int compares exactly with a Decimal
        else:
            holds = compare(_text(spec, value), literal)
        if holds:
            return True
    return False


def _matches(index: CorpusIndex, query: QueryExpr):
    """Yield (document, its matching events), in document order, for each
    document dated inside the query's window that holds an event of its
    type on which every predicate holds. A window skips undated documents."""
    cls = model.EVENT_TYPES[query.variant]
    since, until = query.since, query.until
    for doc in index.docs:
        if since is not None or until is not None:
            stamp = doc.form.head.dateline_time
            if stamp is None or (since is not None and stamp < since) \
                    or (until is not None and stamp > until):
                continue
        events = [event for event in doc.form.events if isinstance(event, cls)
                  and all(_predicate_holds(pred, event) for pred in query.predicates)]
        if events:
            yield doc, events


@value_class
class QueryHit:
    """One query result: the document id, path and sort value."""

    doc_id: str
    path: str
    sort_value: str  # "-" when the doc has no value for the sort key


def evaluate_query(index: CorpusIndex, query: QueryExpr) -> list[QueryHit]:
    specs = query.sort_specs
    on_head = specs == _DATELINE
    hits = []
    for doc, events in _matches(index, query):
        sort_key = None
        if specs:
            records = (doc.form.head,) if on_head else events
            sort_key = next((value for record in records
                             for value in model.values_at(record, specs)), None)
        display = "-" if sort_key is None else _posting_token(specs[-1], sort_key)
        hits.append((sort_key, QueryHit(doc.doc_id, doc.path, display)))
    if specs:
        keyed = [pair for pair in hits if pair[0] is not None]
        # exact values; the sort is stable under reverse too, so equal keys
        # keep doc order; hits without a key follow in doc order
        keyed.sort(key=lambda pair: pair[0].amount if isinstance(pair[0], Money) else pair[0],
                   reverse=query.descending)
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


@value_class
class StatsResult:
    """Event counts per day or week, and the count of undated events."""

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
    event_type(variant)   # a QueryError on an unknown type
    counts: dict[datetime, int] = {}
    undated = 0
    for doc, events in _matches(index, QueryExpr(variant)):
        stamp = doc.form.head.dateline_time
        if stamp is None:
            undated += len(events)
            continue
        start = _bucket_start(stamp, bucket)
        counts[start] = counts.get(start, 0) + len(events)
    if not counts:
        return StatsResult(buckets=(), undated=undated)
    step = timedelta(days=7 if bucket is Bucket.WEEK else 1)
    first = min(counts)
    starts = (first + k * step for k in range((max(counts) - first) // step + 1))
    return StatsResult(buckets=tuple((start, counts.get(start, 0)) for start in starts),
                       undated=undated)


# ---------------------------------------------------------------------------
# Geographic distribution

@value_class
class GeoDistribution:
    """Positive, negative and other event counts per country, and of unlocated events."""

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
    for _, events in _matches(index, query_expr):
        for event in events:
            country = resolve_event_country(event)
            slot = {Sentiment.POSITIVE: 0, Sentiment.NEGATIVE: 1,
                    Sentiment.OTHER: 2}[model.classify_sentiment(event)]
            tallies.setdefault(country, [0, 0, 0])[slot] += 1
    unlocated = tuple(tallies.pop(None, [0, 0, 0]))
    per_country = tuple(sorted((code, tuple(counts))
                               for code, counts in tallies.items()))
    return GeoDistribution(per_country=per_country, unlocated=unlocated)
