"""Brute-force oracle for query, stats and geo ops.

It evaluates each op by a linear scan over the generator's in-memory
documents and renders the exact standard output and exit code the CLI
must give. It shares no code with ``newsforms.corpus``; like the oracle
in ``tests/test_corpus.py`` it walks every populated leaf of an event.

One rule goes beyond the code at hand: sorting on a money field whose
values span more than one currency is a query error (exit 3), the same
rule as for money predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from pathlib import Path
from typing import Optional

from newsforms import model
from newsforms.model import FieldKind, Money, NewsForm, Person
from newsforms.vocab import Sentiment

from corpusgen import QueryOp
from tokens import leaf_text, norm_number

EXIT_OK = 0
EXIT_QUERY_ERROR = 3


@dataclass(frozen=True)
class Doc:
    doc_id: str
    path: str
    form: Optional[NewsForm]   # None for a file the index must skip


def documents(corpus_arg: str, docs: dict) -> list[Doc]:
    """Documents in index order; ids count every file, skipped or not."""
    return [Doc(f"d{n:04d}", str(Path(corpus_arg) / name), docs[name])
            for n, name in enumerate(sorted(docs), start=1)]


def _leaves(record, prefix: str = ""):
    """(dotted path, kind, value) for every populated leaf of a record."""
    for spec in model.specs_for(type(record)):
        value = getattr(record, spec.attr)
        if value is None or value == ():
            continue
        path = f"{prefix}.{spec.element}" if prefix else spec.element
        if spec.kind in model.LEAF_KINDS or spec.kind is FieldKind.MEASURE:
            yield path, spec.kind, value
        elif spec.kind is FieldKind.MONEY:
            yield path, spec.kind, value
            yield f"{path}.Amount", FieldKind.DECIMAL, value.amount
            yield f"{path}.Currency", FieldKind.CURRENCY, value.currency
        elif spec.kind in model.LIST_KINDS:
            for item in value:
                yield from _leaves(item, path)
        else:
            yield from _leaves(value, path)


def _holds(kind: FieldKind, value, op: str, literal: str) -> bool:
    if op == "contains":
        return literal.lower() in leaf_text(value).lower()
    if kind is FieldKind.INT:
        lhs, rhs = Decimal(value), Decimal(literal)
    elif kind is FieldKind.DECIMAL:
        lhs, rhs = value, Decimal(literal)
    else:
        lhs, rhs = leaf_text(value), literal
    return {"=": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs, "<=": lhs <= rhs,
            ">": lhs > rhs, ">=": lhs >= rhs}[op]


def _event_matches(event, predicates) -> bool:
    leaves = list(_leaves(event))
    return all(any(p == path and _holds(kind, value, op, literal)
                   for p, kind, value in leaves)
               for path, op, literal in predicates)


def _in_window(op: QueryOp, form: NewsForm) -> bool:
    if op.since is None and op.until is None:
        return True
    stamp = form.head.dateline_time
    return stamp is not None and (op.since is None or stamp >= op.since) \
        and (op.until is None or stamp <= op.until)


def _matches(op: QueryOp, docs: list[Doc]):
    """(doc, matching events) for every valid doc with at least one."""
    cls = model.EVENT_TYPES[op.variant]
    for doc in docs:
        if doc.form is None or not _in_window(op, doc.form):
            continue
        events = [e for e in doc.form.events
                  if isinstance(e, cls) and _event_matches(e, op.predicates)]
        if events:
            yield doc, events


def _sort_key(op: QueryOp, doc: Doc, events):
    if op.sort == "DatelineTime":
        return doc.form.head.dateline_time
    for event in events:
        for path, _, value in _leaves(event):
            if path == op.sort:
                return value
    return None


def _display(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (Money, datetime)):
        return leaf_text(value)
    return norm_number(value)


def expect_query(op: QueryOp, docs: list[Doc],
                 sort_across_currencies: bool = False) -> tuple[int, str]:
    """With sort_across_currencies, money keys in different currencies are
    ordered by amount alone instead of being an error: the output of the
    known defect, which the benchmark tells apart from other failures."""
    rows = [(doc, _sort_key(op, doc, events) if op.sort else None)
            for doc, events in _matches(op, docs)]
    if op.sort is not None:
        keyed = [row for row in rows if row[1] is not None]
        if not sort_across_currencies and \
                len({key.currency for _, key in keyed if isinstance(key, Money)}) > 1:
            return EXIT_QUERY_ERROR, ""

        def order(row):
            key = row[1]
            return key.amount if isinstance(key, Money) else key

        # Python's sort is stable under reverse too: equal keys keep doc order
        rows = sorted(keyed, key=order, reverse=op.descending) + \
            [row for row in rows if row[1] is None]
    return EXIT_OK, "".join(f"{doc.doc_id}\t{doc.path}\t{_display(key)}\n"
                            for doc, key in rows)


def expect_stats(op: QueryOp, docs: list[Doc]) -> tuple[int, str]:
    cls = model.EVENT_TYPES[op.variant]
    week = op.bucket == "week"
    counts: dict[datetime, int] = {}
    undated = 0
    for doc in docs:
        if doc.form is None:
            continue
        n = sum(isinstance(e, cls) for e in doc.form.events)
        stamp = doc.form.head.dateline_time
        if n and stamp is None:
            undated += n
        elif n:
            day = datetime(stamp.year, stamp.month, stamp.day, tzinfo=timezone.utc)
            if week:
                day -= timedelta(days=day.weekday())
            counts[day] = counts.get(day, 0) + n
    lines = []
    if counts:
        day, step = min(counts), timedelta(days=7 if week else 1)
        while day <= max(counts):
            lines.append(f"{day.strftime('%Y%m%d')}\t{counts.get(day, 0)}\n")
            day += step
    lines.append(f"UNDATED\t{undated}\n")
    return EXIT_OK, "".join(lines)


def _country(event) -> Optional[str]:
    for attr in ("at_location", "to_location"):
        location = getattr(event, attr, None)
        if location is not None and location.country:
            return location.country
    for spec in model.specs_for(type(event)):
        value = getattr(event, spec.attr)
        items = value if spec.kind in (FieldKind.PERSON_LIST,
                                       FieldKind.ORG_OR_PERSON_LIST) else (value,)
        if spec.kind in (FieldKind.PERSON, FieldKind.ORG_OR_PERSON,
                         FieldKind.PERSON_LIST, FieldKind.ORG_OR_PERSON_LIST):
            for item in items:
                if isinstance(item, Person) and item.country:
                    return item.country
    return None


def expect_geo(op: QueryOp, docs: list[Doc]) -> tuple[int, str]:
    slot = {Sentiment.POSITIVE: 0, Sentiment.NEGATIVE: 1, Sentiment.OTHER: 2}
    tallies: dict[Optional[str], list[int]] = {}
    for _, events in _matches(op, docs):
        for event in events:
            counts = tallies.setdefault(_country(event), [0, 0, 0])
            counts[slot[model.classify_sentiment(event)]] += 1
    unlocated = tallies.pop(None, [0, 0, 0])
    lines = [f"{code}\t{p}\t{n}\t{o}\n" for code, (p, n, o) in sorted(tallies.items())]
    lines.append("UNLOCATED\t{}\t{}\t{}\n".format(*unlocated))
    return EXIT_OK, "".join(lines)


def expect(op: QueryOp, docs: list[Doc]) -> tuple[int, str]:
    """The exit code and standard output the CLI must give for an op."""
    return {"query": expect_query, "stats": expect_stats, "geo": expect_geo}[op.command](op, docs)


def skipped_paths(stderr: str) -> set[str]:
    """Paths named by the corpus index's ``skipped`` diagnostics."""
    return {line.split("\t")[1] for line in stderr.splitlines()
            if line.startswith("skipped\t")}
