"""Parsing and canonical serialization of news-event documents as XML.

Input is liberal: children may appear in any order, person-or-organization
fields may spell the value inline or wrapped in an explicit ``<Person>`` /
``<Organization>`` element, and "Martial Arts" is accepted for the
MartialArts sport token. Numbers and timestamps are read in ASCII digits only.

Reading checks a document in the same walk: one pass over each record's
children through its class's table, built once from ``model.CHILD_SPECS``,
which gives each child tag its field, how the element is read and the
field's value check from ``model``. Leaves, most of a document, are read
inline in that loop; an enum leaf is looked up among its members by value,
and a known member needs no check. So ``parse_newsform`` reports the
findings ``model.validate`` would, in its order. An unknown vocabulary
token is kept verbatim, as the subject of its finding. A child's paths are
built only where an error is raised, a finding is appended or a record
child is read. Text around a child is checked as the child is read; on an
error the whole record's text is checked first, so stray text is reported
before any later error, as a check ahead of the walk would report it.

``read_newsforms``, the corpus reader, reads many files with the outcome
``parse_newsform`` gives each alone. It parses runs of them as one wrapped
XML document and walks each root in turn; a file joins a run only if,
stripped of XML whitespace (not ``str.strip``'s wider set), it starts
with ``<NewsForm`` and ends with ``</NewsForm>``, is UTF-8 and holds no
wrapper tag bytes. A run whose parse fails, or that does not hold one
wrapper per file around one element each, is read a file at a time.

Output is canonical and byte-deterministic: UTF-8, no XML declaration, no
attributes, 2-space indentation, children in each type's fixed order.
Person, organization, money, and measure values occupy a single line;
locations and the document structure are block-indented. A value that
carries only fields shared by Person and Organization (Email, URL) cannot
be re-inferred from an inline spelling, so the canonical form wraps it
explicitly; everything else is inline.
"""

from __future__ import annotations

import os
import re
import xml.etree.ElementTree as ET
from decimal import Decimal
from typing import Iterator, Optional, Sequence, Union

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


def escape(text: str) -> str:
    """Escape ``&``, ``<``, ``>`` (``&`` first) and ``\\r``, which a reader takes for a line
    end, in leaf text: ``xml.sax.saxutils.escape(text, {"\\r": "&#13;"})``, whose import
    would load ``urllib.request`` and ``email`` into every command."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;") \
        .replace("\r", "&#13;")


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
    return _read_document(root, [] if findings is None else findings)


_NO_HEAD = Head()   # frozen, so every headless document shares it


def _read_document(root: ET.Element, found: list) -> NewsForm:
    if root.tag != "NewsForm":
        raise SchemaError("", f"root element must be NewsForm, not {root.tag}")
    _reject_attributes(root, "NewsForm")
    text = root.text
    if text and not text.isspace():
        raise SchemaError("NewsForm", "unexpected text content")

    # validate reports the Head first; its one field, a timestamp, has no
    # value check, so the Head's place in the input does not matter
    head = None
    events = []
    several = len(root) - len(root.findall("Head")) > 1
    try:
        for child in root:
            tail = child.tail
            if tail and not tail.isspace():
                raise SchemaError("NewsForm", "unexpected text content")
            tag = child.tag
            if tag == "Head":
                if head is not None:
                    raise SchemaError("Head", "duplicate Head element")
                head = _read_record(Head, child, "Head", "Head", found)
            elif tag in model.EVENT_TYPES:
                path = f"{tag}[{len(events) + 1}]" if several else tag
                event = _read_record(model.EVENT_TYPES[tag], child, path, path, found)
                model.check_event_rules(found, path, event)
                events.append(event)
            else:
                raise SchemaError(tag, f"unknown element <{tag}>")
    except ValueError:
        _reject_text(root, "NewsForm")   # stray text wins over a later error
        raise
    return model.build_record(NewsForm, {"head": head or _NO_HEAD, "events": tuple(events)})


def _decode(data: bytes) -> str:
    """UTF-8 text of a document; a bad byte is an XmlSyntaxError at the
    line and column the XML parser would give it."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _LINE_BREAK_RE.split(data[:exc.start].decode("utf-8"))
        raise XmlSyntaxError(f"not UTF-8 text: {exc.reason}",
                             len(lines), len(lines[-1])) from None


# The corpus reader parses up to this many files as one XML document,
# ``<_><_>file</_><_>file</_>…</_>``. An ``ET.fromstring`` call costs about
# 5 µs before it reads a byte: a generated document of some 430 bytes
# parses in 17 µs alone and in 10 µs inside a batch of 64 (Python 3.11,
# one CPU of a 2-CPU host).
_BATCH_SIZE = 64
_XML_SPACE = b" \t\r\n"   # what XML takes for whitespace; bytes.strip() takes more
_READ_FLAGS = os.O_RDONLY | getattr(os, "O_BINARY", 0)   # Windows translates newlines without it


def read_newsforms(paths: Sequence) -> Iterator[tuple]:
    """One ``(form, findings)`` per path, in order, each as
    ``parse_newsform`` gives it the file's bytes; for a file that cannot be
    read or parsed, ``form`` is the OSError or ValueError raised and
    ``findings`` is empty.

    Runs of up to ``_BATCH_SIZE`` files are parsed in one wrapped
    document when each file can join it (``_joins_batch``), and each
    document is walked as it is yielded. A batch that does not parse, or
    does not hold exactly one wrapper per file, each with exactly one
    element child, is read a file at a time, so every outcome and message
    is the single file's."""
    for first in range(0, len(paths), _BATCH_SIZE):
        files = []   # each file's bytes, or the OSError raised reading it
        for path in paths[first:first + _BATCH_SIZE]:
            try:
                files.append(_read_bytes(path))
            except OSError as exc:
                files.append(exc)
        for data, root in zip(files, _batch_roots(files)):
            if data.__class__ is not bytes:
                yield data, []
                continue
            found: list = []
            try:
                form = parse_newsform(data, found) if root is None \
                    else _read_document(root, found)
            except ValueError as exc:
                yield exc, []
                continue
            yield form, found


def _read_bytes(path) -> bytes:
    """A file's bytes, in fewer system calls than ``open(...).read()``,
    with the error that call raises."""
    fd = os.open(path, _READ_FLAGS)
    try:
        chunks = []
        while True:
            chunk = os.read(fd, 65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
    except OSError as exc:   # a directory opens, but does not read
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)


def _joins_batch(data: bytes) -> bool:
    """Whether a file can be parsed inside a batch with the outcome it has
    alone: UTF-8 text that, stripped of XML whitespace, starts with
    ``<NewsForm`` and ends with ``</NewsForm>``, and holds no wrapper tag
    bytes. Then nothing can stand before or after its root unseen, no file
    can open or close a wrapper, and a comment, CDATA section or element
    left open across files swallows a wrapper or breaks the parse. A
    truncated file fails the end test, so it does not break its batch."""
    body = data.strip(_XML_SPACE)
    if not body.startswith(b"<NewsForm") or not body.endswith(b"</NewsForm>") \
            or b"<_" in body or b"</_" in body:
        return False
    if not body.isascii():
        try:
            body.decode("utf-8")
        except UnicodeDecodeError:
            return False
    return True


def _batch_roots(files: list) -> list:
    """Each file's document root from one batch parse of the files that
    can join it, or None for a file to parse alone."""
    roots = [None] * len(files)
    joining = [n for n, data in enumerate(files)
               if data.__class__ is bytes and _joins_batch(data)]
    if not joining:
        return roots
    try:
        batch = ET.fromstring(b"<_><_>" + b"</_><_>".join([files[n] for n in joining])
                              + b"</_></_>")
    except ET.ParseError:
        return roots
    if len(batch) == len(joining) and all(len(wrapper) == 1 for wrapper in batch):
        for n, wrapper in zip(joining, batch):
            roots[n] = wrapper[0]
    return roots


def _reject_attributes(elem: ET.Element, path: str):
    # ``keys()`` rather than ``attrib``, which makes a dict for an element
    # that has none
    names = elem.keys()
    if names:
        raise SchemaError(path, f"attributes are not allowed ({names[0]!r})")


def _reject_text(elem: ET.Element, path: str):
    text = elem.text
    if text and not text.isspace():
        raise SchemaError(path, "unexpected text content")
    for child in elem:
        tail = child.tail
        if tail and not tail.isspace():
            raise SchemaError(path, "unexpected text content")


# Each record class's table maps a child tag to (attribute, list field?,
# rank in spec order, how, read, value check); ``how`` says what ``read``
# is: None for text the leaf keeps (_TEXT), a parser of the stripped text
# that raises ValueError with its message (_PARSE), an enum's members by
# value (_ENUM), a record class (_RECORD), or None for a person or
# organization (_EITHER). ``path`` locates errors in the input; ``fpath``
# is the path ``model.validate`` gives the value's findings, which differs
# inside a wrapped person or organization (no wrapper element) and for the
# items of a list of several (``Injured[2]``).

_TEXT, _PARSE, _ENUM, _RECORD, _EITHER = range(5)   # the leaf ways below _RECORD


class _Members(dict):
    """An enum's members by value. A value not among them is read by the
    enum itself, which may take another spelling (``Sport`` reads
    ``Martial Arts`` through ``_missing_``), or else kept as the text."""

    def __init__(self, enum: type):
        super().__init__((member.value, member) for member in enum)
        self.enum = enum

    def __missing__(self, text: str):
        try:
            return self.enum(text)
        except ValueError:
            return text


def _join(path: str, tag: str) -> str:
    return f"{path}/{tag}" if path else tag


def _read_record(cls: type, elem: ET.Element, path: str, fpath: str, found: list):
    _reject_attributes(elem, path)
    text = elem.text
    if text and not text.isspace():
        raise SchemaError(path, "unexpected text content")
    try:
        values = _read_fields(_FIELDS[cls], elem, path, fpath, found, tails=True)
    except ValueError:
        _reject_text(elem, path)   # stray text wins over a later error
        raise
    if cls is Money and len(values) < 2:
        raise SchemaError(path, "money needs both <Amount> and <Currency>")
    record = object.__new__(cls)   # model.build_record, inline
    record.__dict__.update(values)
    return record


def _read_fields(fields: dict, children, path: str, fpath: str, found: list,
                 tails: bool = False) -> dict:
    """The field values of ``children``, read through ``fields``, a
    record class's table; the record's findings go to ``found`` in spec
    order. With ``tails``, text after a child is an error at ``path``."""
    values: dict[str, object] = {}
    lists = None     # list field -> whether it has several items
    runs = None      # (spec rank, first finding) of each child that found any
    for child in children:
        if tails:
            tail = child.tail
            if tail and not tail.isspace():
                raise SchemaError(path, "unexpected text content")
        tag = child.tag
        entry = fields.get(tag)
        if entry is None:
            raise SchemaError(_join(path, tag), f"unknown element <{tag}>")
        attr, is_list, rank, how, read, check = entry
        if how < _RECORD:   # a leaf; never a list item
            if len(child) or child.keys():
                _reject_attributes(child, _join(path, tag))
                raise SchemaError(_join(path, tag), f"<{tag}> must not contain child elements")
            text = child.text
            value = text.strip() if text else ""
            if how == _ENUM:
                value = read[value]
                if value.__class__ is not str:   # a member: its check holds
                    check = None
            elif how == _PARSE:
                try:
                    value = read(value)
                except ValueError as exc:
                    raise FieldTypeError(_join(path, tag), str(exc)) from None
            if check is not None:
                problem = check(value)
                if problem is not None:
                    if runs is None:
                        runs = []
                    runs.append((rank, len(found)))
                    found.append(model.Finding(_join(fpath, tag), *problem))
        else:   # a record, read under its own paths
            mark = len(found)
            child_path = _join(path, tag)
            child_fpath = _join(fpath, tag)
            if is_list:
                if lists is None:
                    lists = {}
                if attr not in lists:
                    lists[attr] = [other.tag for other in children].count(tag) > 1
                    values[attr] = []
                if lists[attr]:
                    child_fpath = f"{child_fpath}[{len(values[attr]) + 1}]"
            if how == _RECORD:
                value = _read_record(read, child, child_path, child_fpath, found)
            else:
                value = _read_org_or_person(child, child_path, child_fpath, found)
            if len(found) > mark:
                if runs is None:
                    runs = []
                runs.append((rank, mark))
            if is_list:
                values[attr].append(value)
                continue
        if attr in values:
            raise SchemaError(_join(path, tag), f"<{tag}> may appear at most once")
        values[attr] = value
    if runs is not None and len(runs) > 1:
        _in_spec_order(found, runs)
    if lists is not None:
        for attr in lists:
            values[attr] = tuple(values[attr])
    return values


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
    has_person = not names.isdisjoint(_PERSON_ONLY)
    has_org = not names.isdisjoint(_ORG_ONLY)
    if has_person and has_org:
        raise SchemaError(path, "mixes Person-only and Organization-only children")
    # Only shared children (Email/URL) or empty: read as Person. The
    # canonical serializer never emits that ambiguous inline form.
    cls = Organization if has_org else Person
    return _read_record(cls, elem, path, fpath, found)


# Each leaf parser takes the stripped text and returns the field's value,
# or raises ValueError with the message the reader gives the path.

def _parse_int(text: str) -> int:
    if not _INT_RE.match(text):
        raise ValueError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:   # more digits than the interpreter converts
        raise ValueError(f"integer too long to read ({len(text)} characters)") from None


def _parse_decimal(text: str) -> Decimal:
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"not a decimal number: {text!r}")
    return Decimal(text)


def _parse_timestamp(text: str):
    try:
        return model.parse_timestamp(text)
    except ValueError:
        raise ValueError(
            f"not a basic-format UTC timestamp (YYYYMMDDTHHMMSSZ): {text!r}") from None


def _parse_measure(text: str) -> Measure:
    match = _MEASURE_RE.match(text)
    if not match:
        raise ValueError(f"not a 'value unit' measure: {text!r}")
    return Measure(Decimal(match.group(1)), match.group(2))


# the text parser of each leaf kind; the other kinds keep the text
_LEAF_PARSERS = {
    FieldKind.INT: _parse_int, FieldKind.DECIMAL: _parse_decimal,
    FieldKind.TIMESTAMP: _parse_timestamp, FieldKind.MEASURE: _parse_measure,
}


def _entry(rank: int, spec: model.FieldSpec) -> tuple:
    """A field's entry in its record class's table (see above)."""
    if len(spec.records) > 1:
        how, read = _EITHER, None
    elif spec.records:
        how, read = _RECORD, spec.records[0]
    elif spec.kind is FieldKind.ENUM:
        how, read = _ENUM, _MEMBERS[spec.enum]
    elif spec.kind in _LEAF_PARSERS:
        how, read = _PARSE, _LEAF_PARSERS[spec.kind]
    else:
        how, read = _TEXT, None
    return spec.attr, spec.is_list, rank, how, read, spec.value_check


_MEMBERS = {spec.enum: _Members(spec.enum) for specs in model.CHILD_SPECS.values()
            for spec in specs if spec.enum is not None}

_FIELDS = {cls: {spec.element: _entry(rank, spec) for rank, spec in enumerate(specs)}
           for cls, specs in model.CHILD_SPECS.items()}


def read_field(elem: ET.Element, spec: model.FieldSpec, findings: list):
    """One field's value read from its element, whose tag is the path its
    errors and findings give, by the document reader's own code; its
    findings are appended to ``findings``. An item of a list field is read
    alone."""
    value = _read_fields({elem.tag: _entry(0, spec)}, (elem,), "", "", findings)[spec.attr]
    return value[0] if spec.is_list else value


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
