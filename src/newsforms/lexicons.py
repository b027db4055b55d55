"""Gazetteer and lexicon resources mapping surface forms to entity readings.

A lexicon is a TSV file: ``surface<TAB>kind<TAB>normalized<TAB>attrs`` with
``;``-separated ``key=value`` attrs and ``#`` comment lines. One surface may
carry several entries, across files or within one; lookup always returns
all of them, in load order, so downstream stages see every ambiguity
(New York the city, the state, and several teams). Each number attribute
the entity scanner reads must read through ``model.read_number`` and is
kept as that decimal, and each ``Unit`` must name one of
``UNIT_DIMENSIONS`` as its ``dim``.

A manifest file in the lexicon directory lists the files to load, in
order; a second column ``ci`` marks a lexicon as case-insensitive (number
words, units, pronouns). Proper-noun lexicons are case-sensitive.

All files load into one index keyed by the case-folded surface, so a
lookup is one dictionary probe; entries of a case-sensitive file keep
their exact surface and match only that.

Beside the index, ``LexiconSet.prefixes`` holds every case-folded word
prefix of every key: the node set of a token trie over the keys
(Aho and Corasick, "Efficient string matching", 1975). A token window
whose folded surface is not in it starts no key, so the entity scanner
stops extending the window there.

A key is spelled as the scanner joins a token window, by ``spell``: single
spaces, and a comma as a token of its own (``Washington , D.C.``)."""

# no ``from __future__ import annotations``: ``NamedTuple`` would compile
# each field's annotation string at import
from dataclasses import field
from decimal import Decimal
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .model import read_number, value_class
from .resources import rows


class EntryKind(Enum):
    PERSON_NAME = "PersonName"
    GIVEN_NAME = "GivenName"
    FAMILY_NAME = "FamilyName"
    TITLE = "Title"
    CITY = "City"
    STATE = "State"
    COUNTRY = "Country"
    REGION = "Region"
    CONTINENT = "Continent"
    ORG_NAME = "OrgName"
    ORG_SUFFIX = "OrgSuffix"
    SPORTS_TEAM = "SportsTeam"
    CURRENCY_UNIT = "CurrencyUnit"
    UNIT = "Unit"
    NUMBER_WORD = "NumberWord"
    PRONOUN = "Pronoun"
    PRODUCT = "Product"


class LexiconError(ValueError):
    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


class LexiconEntry(NamedTuple):
    """One lexicon line; a named tuple, as one is built per line loaded."""
    surface: str
    kind: EntryKind
    normalized: str
    attributes: tuple[tuple[str, Union[str, Decimal]], ...] = ()

    def attr(self, key: str) -> Union[str, Decimal, None]:
        for k, v in self.attributes:
            if k == key:
                return v
        return None


# the attributes the entity scanner reads as numbers, each with the largest
# magnitude it takes: a coordinate's range; for a number word's value and
# magnitude and a currency unit's scale, 10^28, as the scanner computes in
# the default decimal context, whose 28-digit precision ``total % 10``
# (twenty five) exceeds on a value above 10^29
_COORDINATES = {"lat": 90, "lon": 180}
_SCANNER_BOUND = Decimal("1e28")
_NUMBER_ATTRS = {EntryKind.CITY: _COORDINATES, EntryKind.COUNTRY: _COORDINATES,
                 EntryKind.NUMBER_WORD: {"val": _SCANNER_BOUND, "mag": _SCANNER_BOUND},
                 EntryKind.CURRENCY_UNIT: {"scale": _SCANNER_BOUND}}

# the dimensions a Unit names; each names its reading kind
UNIT_DIMENSIONS = ("percent", "distance", "duration", "speed", "temperature")


def _read_attrs(raw: str, kind: EntryKind, path, lineno: int) -> tuple:
    """A line's ``key=value`` attributes, each checked as it is read; a
    number the entity scanner reads is kept as the decimal it spells."""
    bounds = _NUMBER_ATTRS.get(kind, {})
    attrs: dict[str, Union[str, Decimal]] = {}
    for piece in raw.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise LexiconError(path, lineno, f"bad attribute (need key=value): {piece!r}")
        key, value = piece.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise LexiconError(path, lineno, f"bad attribute (empty key or value): {piece!r}")
        if key in attrs:
            raise LexiconError(path, lineno, f"duplicate attribute key {key!r}")
        if key in bounds:
            number = read_number(value)
            if number is None:
                raise LexiconError(path, lineno, f"{key} is not a decimal: {value!r}")
            if not -bounds[key] <= number <= bounds[key]:
                raise LexiconError(path, lineno, f"{key} out of range: {value}")
            value = number
        attrs[key] = value
    if kind is EntryKind.UNIT and attrs.get("dim") not in UNIT_DIMENSIONS:
        raise LexiconError(path, lineno, f"dim must be one of {', '.join(UNIT_DIMENSIONS)}, "
                                         f"got {attrs.get('dim')!r}")
    return tuple(attrs.items())


def spell(surface: str) -> str:
    """A surface spelled as a token window: single spaces, and a comma as a
    token of its own (``Washington, D.C.`` spells ``Washington , D.C.``)."""
    return " ".join(surface.replace(",", " , ").split())


@value_class(frozen=False)
class LexiconSet:
    """One index over every loaded entry: the case-folded ``spell`` of a
    surface maps to ``(exact surface, or None in a ci file; entry)`` pairs in
    load order; ``prefixes`` holds the folded word prefixes of every key;
    ``readings``, no part of ``==``, memoizes the entity scanner's readings."""

    index: dict[str, list[tuple[Optional[str], LexiconEntry]]] = field(default_factory=dict)
    prefixes: set[str] = field(default_factory=set)
    readings: dict = field(default_factory=dict, compare=False, repr=False)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.index.values())

    def lookup(self, surface: str) -> list[LexiconEntry]:
        # keys are spelled and case folding moves no space or comma, so a
        # surface found as it stands needs no spelling
        exact = surface
        bucket = self.index.get(surface.casefold())
        if bucket is None:
            exact = spell(surface)
            bucket = self.index.get(exact.casefold(), ())
        return [entry for key, entry in bucket if key is None or key == exact]


_KINDS = {kind.value: kind for kind in EntryKind}


def _add_file(lexicons: LexiconSet, path: Path, case_sensitive: bool):
    """Add one TSV lexicon; malformed lines raise with their line number. A
    (surface, kind, normalized) triple repeated within the file is kept once."""
    index, seen = lexicons.index, set()
    for lineno, columns in rows(path.read_text(encoding="utf-8")):
        if len(columns) not in (3, 4):
            raise LexiconError(path, lineno, f"expected 3 or 4 tab-separated columns, got {len(columns)}")
        surface, kind_token, normalized = columns[0].strip(), columns[1].strip(), columns[2].strip()
        if not surface:
            raise LexiconError(path, lineno, "empty surface")
        kind = _KINDS.get(kind_token)
        if kind is None:
            raise LexiconError(path, lineno, f"unknown entry kind {kind_token!r}")
        if not normalized:
            raise LexiconError(path, lineno, "empty normalized value")
        attrs = _read_attrs(columns[3] if len(columns) == 4 else "", kind, path, lineno)
        exact = spell(surface)
        key = exact if case_sensitive else None   # None matches in any case
        folded = exact.casefold()
        identity = (key, folded, kind_token, normalized)   # a str hashes faster than a kind
        if identity in seen:
            continue
        seen.add(identity)
        bucket = index.get(folded)
        if bucket is None:
            _add_prefixes(lexicons.prefixes, folded)
            bucket = index[folded] = []
        bucket.append((key, LexiconEntry(surface, kind, normalized, attrs)))


def _add_prefixes(prefixes: set[str], folded: str):
    prefix = ""
    for word in folded.split(" "):
        prefix = f"{prefix} {word}" if prefix else word
        prefixes.add(prefix)


def load_lexicon(path, case_sensitive: bool = True) -> LexiconSet:
    """Load one TSV lexicon as a set of its own."""
    lexicons = LexiconSet()
    _add_file(lexicons, Path(path), case_sensitive)
    return lexicons


def load_lexicon_set(directory) -> LexiconSet:
    """Load every lexicon named by the directory's manifest, in order."""
    directory = Path(directory)
    manifest = directory / "manifest"
    if not manifest.is_file():
        raise FileNotFoundError(f"no lexicon manifest at {manifest}")
    lexicons = LexiconSet()
    for lineno, columns in rows(manifest.read_text(encoding="utf-8")):
        # the columns of the stripped line: a tab before or after the names opens none
        filename, *flags = (c.strip() for c in "\t".join(columns).strip().split("\t"))
        unknown = set(flags) - {"ci"}
        if unknown:
            raise LexiconError(manifest, lineno, f"unknown flag(s) {sorted(unknown)}")
        _add_file(lexicons, directory / filename, case_sensitive="ci" not in flags)
    return lexicons
