"""Parsing and canonical serialization of news-event documents as XML.

Input is liberal: children may appear in any order, person-or-organization
fields may spell the value inline or wrapped in an explicit ``<Person>`` /
``<Organization>`` element, and "Martial Arts" is accepted for the
MartialArts sport token. Numbers are read in ASCII digits only.

Reading checks a document in the same walk: each field's reader, compiled
from its ``FieldSpec``, parses the leaf text into the field's type and runs
the field's value check from ``model``, so ``parse_newsform`` reports the
findings ``model.validate`` would, in its order. An unknown vocabulary
token is kept verbatim, as the subject of its finding.

Output is canonical and byte-deterministic: UTF-8, no XML declaration, no
attributes, 2-space indentation, children in each type's fixed order.
Person, organization, money, and measure values occupy a single line;
locations and the document structure are block-indented. A value that
carries only fields shared by Person and Organization (Email, URL) cannot
be re-inferred from an inline spelling, so the canonical form wraps it
explicitly; everything else is inline.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from decimal import Decimal
from functools import partial
from typing import Optional, Union
from xml.sax.saxutils import escape

from . import model
from .model import (
    FieldKind,
    Head,
    Location,
    Measure,
    Money,
    NewsForm,
    Organization,
    Person,
)

FILE_EXTENSION = ".newsform.xml"

# ASCII digits only: ``\d`` would admit other scripts' digits, which int()
# and Decimal() read but the codec would write back as ASCII
_INT_RE = re.compile(r"^[-+]?[0-9]+$")
_DECIMAL_RE = re.compile(r"^[-+]?[0-9]+(\.[0-9]+)?$")
_MEASURE_RE = re.compile(r"^([-+]?[0-9]+(?:\.[0-9]+)?)\s+(\S+)$")
_LINE_BREAK_RE = re.compile(r"\r\n?|\n")   # XML's line ends

_PERSON_ONLY = {s.element for s in model.specs_for(Person)} - {"Email", "URL"}
_ORG_ONLY = {s.element for s in model.specs_for(Organization)} - {"Email", "URL"}


class XmlSyntaxError(ValueError):
    """Malformed XML; carries the 1-based line and 0-based column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SchemaError(ValueError):
    """Well-formed XML that does not fit the document schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class FieldTypeError(ValueError):
    """Leaf text that does not parse as the field's type."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class SerializeError(ValueError):
    """Refusal to serialize a document whose validation report has errors."""

    def __init__(self, report: model.ValidationReport):
        first = report.errors[0]
        super().__init__(
            f"document has {len(report.errors)} validation error(s); "
            f"first: {first.path}: {first.message}"
        )
        self.report = report


# ---------------------------------------------------------------------------
# Parsing

def parse_newsform(text: Union[str, bytes], findings: Optional[list] = None) -> NewsForm:
    """Parse document XML into its typed form, checking it on the way.

    Whitespace between elements is insignificant; leaf text is read into
    its field's type, and an unknown vocabulary token is kept verbatim.
    Each leaf's value check runs as the leaf is read, so the one walk
    finds every violation ``model.validate`` reports on the parsed
    document, in the same order; they are appended to ``findings`` when
    a list is given.

    Raises XmlSyntaxError (also for bytes that are not UTF-8), SchemaError
    or FieldTypeError, all three ValueErrors, whatever was found before;
    ``findings`` is then incomplete.
    """
    if isinstance(text, bytes):
        text = _decode(text)
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position
        raise XmlSyntaxError(exc.msg.split(":")[0], line, column) from None
    if root.tag != "NewsForm":
        raise SchemaError("", f"root element must be NewsForm, not {root.tag}")
    _reject_attributes(root, "NewsForm")
    _reject_text(root, "NewsForm")

    # validate reports the Head first; its one field, a timestamp, has no
    # value check, so the Head's place in the input does not matter
    found = [] if findings is None else findings
    head = Head()
    seen_head = False
    events = []
    event_total = sum(1 for child in root if child.tag != "Head")
    event_no = 0
    for child in root:
        if child.tag == "Head":
            if seen_head:
                raise SchemaError("Head", "duplicate Head element")
            seen_head = True
            head = _read_record(Head, child, "Head", "Head", found)
        elif child.tag in model.EVENT_TYPES:
            event_no += 1
            path = f"{child.tag}[{event_no}]" if event_total > 1 else child.tag
            event = _read_record(model.EVENT_TYPES[child.tag], child, path, path, found)
            model.check_event_rules(found, path, event)
            events.append(event)
        else:
            raise SchemaError(child.tag, f"unknown element <{child.tag}>")
    return NewsForm(head=head, events=tuple(events))


def _decode(data: bytes) -> str:
    """UTF-8 text of a document; a bad byte is an XmlSyntaxError at the
    line and column the XML parser would give it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _LINE_BREAK_RE.split(data[:exc.start].decode("utf-8"))
        raise XmlSyntaxError(f"not UTF-8 text: {exc.reason}",
                             len(lines), len(lines[-1])) from None


def read_newsform(path, findings: Optional[list] = None) -> NewsForm:
    with open(path, "rb") as fh:
        return parse_newsform(fh.read(), findings)


def _reject_attributes(elem: ET.Element, path: str):
    if elem.attrib:
        name = next(iter(elem.attrib))
        raise SchemaError(path, f"attributes are not allowed ({name!r})")


def _reject_text(elem: ET.Element, path: str):
    if elem.text and elem.text.strip():
        raise SchemaError(path, "unexpected text content")
    for child in elem:
        if child.tail and child.tail.strip():
            raise SchemaError(path, "unexpected text content")


# Each field's reader, ``read(elem, path, fpath, found)``, converts its
# element into the field's value and appends the value's findings to
# ``found``. ``path`` locates errors in the input; ``fpath`` is the path
# ``model.validate`` gives the value's findings, which differs inside a
# wrapped person or organization (no wrapper element) and for the items of
# a list of several (``Injured[2]``).

def _read_record(cls: type, elem: ET.Element, path: str, fpath: str, found: list):
    _reject_attributes(elem, path)
    _reject_text(elem, path)
    fields = _FIELDS[cls]
    values: dict[str, object] = {}
    lists = None     # list field -> whether it has several items
    runs = None      # (spec rank, first finding) of each child that found any
    for child in elem:
        tag = child.tag
        entry = fields.get(tag)
        if entry is None:
            raise SchemaError(f"{path}/{tag}", f"unknown element <{tag}>")
        attr, is_list, rank, read = entry
        child_path = f"{path}/{tag}"
        child_fpath = child_path if fpath is path else f"{fpath}/{tag}"
        mark = len(found)
        if is_list:
            if lists is None:
                lists = {}
            if attr not in lists:
                lists[attr] = sum(1 for other in elem if other.tag == tag) > 1
                values[attr] = []
            items = values[attr]
            if lists[attr]:
                child_fpath = f"{child_fpath}[{len(items) + 1}]"
            items.append(read(child, child_path, child_fpath, found))
        else:
            value = read(child, child_path, child_fpath, found)
            if attr in values:
                raise SchemaError(child_path, f"<{tag}> may appear at most once")
            values[attr] = value
        if len(found) > mark:
            if runs is None:
                runs = []
            runs.append((rank, mark))
    if runs is not None and len(runs) > 1:
        _in_spec_order(found, runs)
    if lists is not None:
        for attr in lists:
            values[attr] = tuple(values[attr])
    if cls is Money and len(values) < 2:
        raise SchemaError(path, "money needs both <Amount> and <Currency>")
    return model.build_record(cls, values)


def _in_spec_order(found: list, runs: list):
    """Put a record's findings in its fields' spec order, as ``validate``
    walks them: each run of findings a child appended moves with its
    child; the sort is stable, so list items keep their order."""
    ends = [mark for _, mark in runs[1:]] + [len(found)]
    ordered = sorted(((rank, found[mark:end]) for (rank, mark), end in zip(runs, ends)),
                     key=lambda run: run[0])
    found[runs[0][1]:] = [finding for _, run in ordered for finding in run]


def _read_org_or_person(elem: ET.Element, path: str, fpath: str, found: list):
    """A person-or-organization field: wrapped or inline spelling."""
    children = list(elem)
    if len(children) == 1 and children[0].tag in ("Person", "Organization"):
        _reject_attributes(elem, path)
        _reject_text(elem, path)
        inner = children[0]
        cls = Person if inner.tag == "Person" else Organization
        return _read_record(cls, inner, f"{path}/{inner.tag}", fpath, found)
    names = {child.tag for child in children}
    has_person = bool(names & _PERSON_ONLY)
    has_org = bool(names & _ORG_ONLY)
    if has_person and has_org:
        raise SchemaError(path, "mixes Person-only and Organization-only children")
    # Only shared children (Email/URL) or empty: read as Person. The
    # canonical serializer never emits that ambiguous inline form.
    cls = Organization if has_org else Person
    return _read_record(cls, elem, path, fpath, found)


def _parse_int(text: str, path: str) -> int:
    if not _INT_RE.match(text):
        raise FieldTypeError(path, f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:   # more digits than the interpreter converts
        raise FieldTypeError(path, f"integer too long to read ({len(text)} characters)") from None


def _parse_decimal(text: str, path: str) -> Decimal:
    if not _DECIMAL_RE.match(text):
        raise FieldTypeError(path, f"not a decimal number: {text!r}")
    return Decimal(text)


def _parse_timestamp(text: str, path: str):
    try:
        return model.parse_timestamp(text)
    except ValueError:
        raise FieldTypeError(
            path, f"not a basic-format UTC timestamp (YYYYMMDDTHHMMSSZ): {text!r}") from None


def _parse_measure(text: str, path: str) -> Measure:
    match = _MEASURE_RE.match(text)
    if not match:
        raise FieldTypeError(path, f"not a 'value unit' measure: {text!r}")
    return Measure(Decimal(match.group(1)), match.group(2))


def _enum_parser(vocabulary: type):
    def parse(text: str, path: str):
        try:
            return vocabulary(text)
        except ValueError:
            return text   # kept verbatim; the value check reports it
    return parse


# the text parser of each leaf kind; the other kinds keep the text
_LEAF_PARSERS = {
    FieldKind.INT: _parse_int, FieldKind.DECIMAL: _parse_decimal,
    FieldKind.TIMESTAMP: _parse_timestamp, FieldKind.MEASURE: _parse_measure,
}


def _reader(spec: model.FieldSpec):
    """The reader of one field's element, compiled from its spec."""
    if len(spec.records) > 1:
        return _read_org_or_person
    if spec.records:
        return partial(_read_record, spec.records[0])
    parse = _enum_parser(spec.enum) if spec.kind is FieldKind.ENUM \
        else _LEAF_PARSERS.get(spec.kind)
    check = spec.value_check

    def read(elem: ET.Element, path: str, fpath: str, found: list):
        if elem.attrib or len(elem):
            _reject_attributes(elem, path)
            raise SchemaError(path, f"<{elem.tag}> must not contain child elements")
        text = elem.text
        value = text.strip() if text else ""
        if parse is not None:
            value = parse(value, path)
        if check is not None:
            problem = check(value)
            if problem is not None:
                found.append(model.Finding(fpath, *problem))
        return value
    return read


# tag -> (attribute, list field?, rank in spec order, reader), per record class
_FIELDS = {cls: {spec.element: (spec.attr, spec.is_list, rank, _reader(spec))
                 for rank, spec in enumerate(specs)}
           for cls, specs in model.CHILD_SPECS.items()}


def read_field(elem: ET.Element, spec: model.FieldSpec, path: str, findings: list):
    """One field's value read from its element at ``path``, as the
    document reader reads it; its findings are appended to ``findings``."""
    return _reader(spec)(elem, path, path, findings)


# ---------------------------------------------------------------------------
# Serialization

def serialize_newsform(doc: NewsForm) -> str:
    """Emit canonical XML for a valid document.

    ``parse_newsform(serialize_newsform(doc)) == doc`` for every valid
    document, and serializing a document parsed from canonical input
    reproduces the input byte for byte.
    """
    report = model.validate(doc)
    if report.errors:
        raise SerializeError(report)
    lines = ["<NewsForm>"]
    _write_record(lines, doc.head, "Head", "  ")
    for event in doc.events:
        _write_record(lines, event, model.ELEMENT_OF_EVENT[type(event)], "  ")
    lines.append("</NewsForm>")
    return "\n".join(lines) + "\n"


def _inline(element: str, record) -> str:
    """Single-line form used for person/organization/money values."""
    parts = []
    for spec in model.specs_for(type(record)):
        value = getattr(record, spec.attr)
        if value is None:
            continue
        parts.append(f"<{spec.element}>{escape(model.leaf_token(spec, value))}</{spec.element}>")
    if not parts:
        return f"<{element}/>"
    return f"<{element}>{''.join(parts)}</{element}>"


def _needs_wrapper(record) -> bool:
    discriminating = _PERSON_ONLY if isinstance(record, Person) else _ORG_ONLY
    for spec in model.specs_for(type(record)):
        if spec.element in discriminating and getattr(record, spec.attr) is not None:
            return False
    return True


def _inline_field(spec: model.FieldSpec, value) -> str:
    """Single-line form of any value but a location."""
    if len(spec.records) > 1 and _needs_wrapper(value):
        return f"<{spec.element}>{_inline(type(value).__name__, value)}</{spec.element}>"
    if spec.records:
        return _inline(spec.element, value)
    return f"<{spec.element}>{escape(model.leaf_token(spec, value))}</{spec.element}>"


def _write_record(lines: list[str], record, element: str, indent: str):
    populated = [(spec, item) for spec in model.specs_for(type(record))
                 for item in model.values_at(record, (spec,))]
    if not populated:
        lines.append(f"{indent}<{element}/>")
        return
    lines.append(f"{indent}<{element}>")
    inner = indent + "  "
    for spec, item in populated:
        if isinstance(item, Location):
            _write_record(lines, item, spec.element, inner)
        else:
            lines.append(inner + _inline_field(spec, item))
    lines.append(f"{indent}</{element}>")
