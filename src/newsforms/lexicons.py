"""Gazetteer and lexicon resources mapping surface forms to entity readings.

A lexicon is a TSV file: ``surface<TAB>kind<TAB>normalized<TAB>attrs`` with
``;``-separated ``key=value`` attrs and ``#`` comment lines. One surface may
carry several entries, across files or within one; lookup always returns
all of them, in load order, so downstream stages see every ambiguity
(New York the city, the state, and several teams).

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
stops extending the window there. The text joins a comma token to the
word before it only once another token follows (``Washington , D.C.``
reads ``washington, d.c.``), so a prefix ending in a comma also enters in
its two shorter token forms, ``washington`` and ``washington ,``."""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path
from typing import Optional


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


@dataclass(frozen=True)
class LexiconEntry:
    surface: str
    kind: EntryKind
    normalized: str
    attributes: tuple[tuple[str, str], ...] = ()

    def attr(self, key: str, default: Optional[str] = None) -> Optional[str]:
        for k, v in self.attributes:
            if k == key:
                return v
        return default


def _parse_attrs(raw: str, path, lineno: int) -> tuple[tuple[str, str], ...]:
    attrs: list[tuple[str, str]] = []
    seen = set()
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
        if key in seen:
            raise LexiconError(path, lineno, f"duplicate attribute key {key!r}")
        seen.add(key)
        attrs.append((key, value))
    return tuple(attrs)


def _check_coordinates(entry: LexiconEntry, path, lineno: int):
    for key, bound in (("lat", 90), ("lon", 180)):
        raw = entry.attr(key)
        if raw is None:
            continue
        try:
            value = Decimal(raw)
        except InvalidOperation:
            raise LexiconError(path, lineno, f"{key} is not a decimal: {raw!r}") from None
        if not -bound <= value <= bound:
            raise LexiconError(path, lineno, f"{key} out of range: {raw}")


@dataclass
class LexiconSet:
    """One index over every loaded entry: the case-folded, whitespace-normalised
    surface maps to ``(exact surface, or None in a ci file; entry)`` pairs in
    load order; ``prefixes`` holds the folded word prefixes of every key."""

    index: dict[str, list[tuple[Optional[str], LexiconEntry]]] = field(default_factory=dict)
    prefixes: set[str] = field(default_factory=set)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self.index.values())

    def lookup(self, surface: str) -> list[LexiconEntry]:
        exact = " ".join(surface.split())
        return [entry for key, entry in self.index.get(exact.casefold(), ())
                if key is None or key == exact]


_KINDS = {kind.value: kind for kind in EntryKind}


def _add_file(lexicons: LexiconSet, path: Path, case_sensitive: bool):
    """Add one TSV lexicon; malformed lines raise with their line number. A
    (surface, kind, normalized) triple repeated within the file is kept once."""
    index, seen = lexicons.index, set()
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        columns = raw.split("\t")
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
        attrs = _parse_attrs(columns[3], path, lineno) if len(columns) == 4 else ()
        entry = LexiconEntry(surface, kind, normalized, attrs)
        if kind is EntryKind.CITY or kind is EntryKind.COUNTRY:
            _check_coordinates(entry, path, lineno)
        exact = " ".join(surface.split())
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
        bucket.append((key, entry))


def _add_prefixes(prefixes: set[str], folded: str):
    prefix = ""
    for word in folded.split(" "):
        prefix = f"{prefix} {word}" if prefix else word
        prefixes.add(prefix)
        if prefix.endswith(","):
            # the token forms before the comma joins: "washington", "washington ,"
            prefixes.add(prefix[:-1])
            prefixes.add(prefix[:-1] + " ,")


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
    for lineno, raw in enumerate(manifest.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        filename = parts[0].strip()
        flags = {p.strip() for p in parts[1:]}
        unknown = flags - {"ci"}
        if unknown:
            raise LexiconError(manifest, lineno, f"unknown flag(s) {sorted(unknown)}")
        _add_file(lexicons, directory / filename, case_sensitive="ci" not in flags)
    return lexicons
