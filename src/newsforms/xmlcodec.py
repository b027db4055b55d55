"""Parsing and canonical serialization of news-event documents as XML.

Input is liberal: children may appear in any order, person-or-organization
fields may spell the value inline or wrapped in an explicit ``<Person>`` /
``<Organization>`` element, and "Martial Arts" is accepted for the
MartialArts sport token.

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
from typing import Union
from xml.sax.saxutils import escape

from . import model
from .model import (
    FieldKind,
    Head,
    Location,
    Measure,
    NewsForm,
    Organization,
    Person,
)

FILE_EXTENSION = ".newsform.xml"

_INT_RE = re.compile(r"^[-+]?\d+$")
_DECIMAL_RE = re.compile(r"^[-+]?\d+(\.\d+)?$")
_MEASURE_RE = re.compile(r"^([-+]?\d+(?:\.\d+)?)\s+(\S+)$")
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

def parse_newsform(text: Union[str, bytes]) -> NewsForm:
    """Parse document XML into its typed form.

    Whitespace between elements is insignificant; numeric and enum leaf
    text is normalized into typed fields. Unknown vocabulary tokens are
    kept verbatim for :func:`model.validate` to report.

    Raises XmlSyntaxError (also for bytes that are not UTF-8), SchemaError
    or FieldTypeError; all three are ValueErrors.
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
            head = _parse_record(child, Head, "Head")
        elif child.tag in model.EVENT_TYPES:
            event_no += 1
            path = f"{child.tag}[{event_no}]" if event_total > 1 else child.tag
            events.append(_parse_record(child, model.EVENT_TYPES[child.tag], path))
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


def read_newsform(path) -> NewsForm:
    with open(path, "rb") as fh:
        return parse_newsform(fh.read())


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


def _parse_record(elem: ET.Element, cls: type, path: str):
    _reject_attributes(elem, path)
    _reject_text(elem, path)
    values: dict[str, object] = {}
    for child in elem:
        spec = model.spec_by_element(cls, child.tag)
        if spec is None:
            raise SchemaError(f"{path}/{child.tag}", f"unknown element <{child.tag}>")
        child_path = f"{path}/{child.tag}"
        parsed = _parse_field(child, spec, child_path)
        if spec.is_list:
            values.setdefault(spec.attr, []).append(parsed)
        elif spec.attr in values:
            raise SchemaError(child_path, f"<{child.tag}> may appear at most once")
        else:
            values[spec.attr] = parsed
    # constructing the record turns list fields into tuples; on parsed values
    # it fails only when Money, the one record with required fields, lacks one
    try:
        return cls(**values)
    except TypeError:
        raise SchemaError(path, "money needs both <Amount> and <Currency>") from None


def _leaf_text(elem: ET.Element, path: str) -> str:
    _reject_attributes(elem, path)
    if len(elem):
        raise SchemaError(path, f"<{elem.tag}> must not contain child elements")
    return (elem.text or "").strip()


def _parse_field(elem: ET.Element, spec: model.FieldSpec, path: str):
    if len(spec.records) > 1:
        return _parse_org_or_person(elem, path)
    if spec.records:
        return _parse_record(elem, spec.records[0], path)
    kind = spec.kind
    text = _leaf_text(elem, path)
    if kind is FieldKind.INT:
        if not _INT_RE.match(text):
            raise FieldTypeError(path, f"not an integer: {text!r}")
        return int(text)
    if kind is FieldKind.DECIMAL:
        if not _DECIMAL_RE.match(text):
            raise FieldTypeError(path, f"not a decimal number: {text!r}")
        return Decimal(text)
    if kind is FieldKind.TIMESTAMP:
        try:
            return model.parse_timestamp(text)
        except ValueError:
            raise FieldTypeError(
                path, f"not a basic-format UTC timestamp (YYYYMMDDTHHMMSSZ): {text!r}"
            ) from None
    if kind is FieldKind.ENUM:
        try:
            return spec.enum(text)
        except ValueError:
            return text  # kept verbatim; validate() reports the vocabulary error
    if kind is FieldKind.MEASURE:
        match = _MEASURE_RE.match(text)
        if not match:
            raise FieldTypeError(path, f"not a 'value unit' measure: {text!r}")
        return Measure(Decimal(match.group(1)), match.group(2))
    return text


def _parse_org_or_person(elem: ET.Element, path: str):
    """A person-or-organization field: wrapped or inline spelling."""
    children = list(elem)
    if len(children) == 1 and children[0].tag in ("Person", "Organization"):
        _reject_attributes(elem, path)
        _reject_text(elem, path)
        inner = children[0]
        cls = Person if inner.tag == "Person" else Organization
        return _parse_record(inner, cls, f"{path}/{inner.tag}")
    names = {child.tag for child in children}
    has_person = bool(names & _PERSON_ONLY)
    has_org = bool(names & _ORG_ONLY)
    if has_person and has_org:
        raise SchemaError(path, "mixes Person-only and Organization-only children")
    # Only shared children (Email/URL) or empty: read as Person. The
    # canonical serializer never emits that ambiguous inline form.
    cls = Organization if has_org else Person
    return _parse_record(elem, cls, path)


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
