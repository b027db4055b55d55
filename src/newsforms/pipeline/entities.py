"""Entity identification: people, places, organizations, products, and
normalized quantities (numbers, percentages, money, durations,
temperatures, speeds, distances).

Matching is a single deterministic left-to-right scan. At each unconsumed
token the parser tries, in order: the quantity grammar, person composition
(title + given + family), longest-first lexicon window matching, the
organization-suffix rule, pronouns, date words, and finally a fallback
that treats an unknown capitalized run as a family name. A span keeps
every reading its sources supply; ambiguity is preserved for later stages
to resolve.

A start gate skips, without calling any matcher, each token that is no
NUM, is not capitalised and whose case-folded text starts no lexicon key
(``parse_entities`` says why no matcher can fire there). At a start
whose windows hold no entry, only the three matchers of capitalised
tokens run.

Lexicon access goes through one table per start token, built on first
use: the entries of each window that starts there, one probe per window.
Windows stop before punctuation other than a comma and at the lexicon's
prefix frontier, the first window whose folded surface is not in
``LexiconSet.prefixes`` because no key starts with it. A window within
the frontier that is no key is not looked up. Each window's surface and
folded key extend the previous window's by a space and one token, from
tokens folded once per sentence, in the spelling of a lexicon key
(``lexicons.spell``). The table also keeps the set of entry kinds across
its windows, so a matcher asking for kinds the start lacks returns at
once.
"""

from __future__ import annotations

from decimal import Decimal
from typing import Optional

from .. import model
from ..lexicons import UNIT_DIMENSIONS, EntryKind, LexiconEntry, LexiconSet
from .types import EntityMention, EntityReading, Pos, ReadingKind, Token

# Lexicon kinds that stand alone as mentions; the rest feed the grammars.
_STANDALONE_KINDS = {
    EntryKind.CITY, EntryKind.STATE, EntryKind.COUNTRY, EntryKind.REGION,
    EntryKind.CONTINENT, EntryKind.ORG_NAME, EntryKind.SPORTS_TEAM,
    EntryKind.PRODUCT, EntryKind.PERSON_NAME,
}

_WEEKDAYS = {"Monday", "Tuesday", "Wednesday", "Thursday", "Friday",
             "Saturday", "Sunday"}
_MONTHS = {"January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December"}

# words that head a named weather system ("Hurricane Floyd"); they stay
# free tokens so the pattern stage can match them as literals
_STORM_WORDS = {"hurricane", "cyclone", "typhoon", "tropical"}

_DIM_KIND = {dim: ReadingKind(dim.capitalize()) for dim in UNIT_DIMENSIONS}


def _window_surface(tokens: list[Token], first: int, last: int) -> str:
    return " ".join(t.text for t in tokens[first:last + 1])


def _reading_from_entry(entry: LexiconEntry) -> EntityReading:
    """The reading of an entry of one of the ``_STANDALONE_KINDS``."""
    kind = entry.kind
    if kind is EntryKind.CITY:
        value = model.Location(city=entry.normalized, country=entry.attr("country"),
                               state=entry.attr("state"), latitude=entry.attr("lat"),
                               longitude=entry.attr("lon"))
        return EntityReading(ReadingKind.LOCATION, value)
    if kind is EntryKind.STATE:
        value = model.Location(state=entry.normalized, country=entry.attr("country"))
        return EntityReading(ReadingKind.LOCATION, value)
    if kind is EntryKind.COUNTRY:
        value = model.Location(country=entry.normalized, latitude=entry.attr("lat"),
                               longitude=entry.attr("lon"))
        return EntityReading(ReadingKind.LOCATION, value)
    if kind is EntryKind.REGION:
        return EntityReading(ReadingKind.LOCATION, model.Location(region=entry.normalized))
    if kind is EntryKind.CONTINENT:
        return EntityReading(ReadingKind.LOCATION, model.Location(continent=entry.normalized))
    if kind is EntryKind.ORG_NAME:
        value = model.Organization(full_name=entry.normalized, ticker=entry.attr("ticker"),
                                   organization_type=entry.attr("type"),
                                   nickname=entry.attr("nickname"))
        return EntityReading(ReadingKind.ORGANIZATION, value)
    if kind is EntryKind.SPORTS_TEAM:
        value = model.Organization(full_name=entry.normalized, sport=entry.attr("sport"))
        return EntityReading(ReadingKind.ORGANIZATION, value)
    if kind is EntryKind.PRODUCT:
        return EntityReading(ReadingKind.PRODUCT, entry.normalized)
    given = entry.attr("given")   # PERSON_NAME, the standalone kind left
    family = entry.attr("family")
    if given is None and family is None:
        parts = entry.normalized.split()
        given = " ".join(parts[:-1]) or None
        family = parts[-1]
    value = model.Person(given=given, family=family, sex=entry.attr("sex"))
    return EntityReading(ReadingKind.PERSON, value)


def _dedupe(readings: list[EntityReading]) -> tuple[EntityReading, ...]:
    out: list[EntityReading] = []
    for reading in readings:
        if not any(r.kind == reading.kind and r.value == reading.value for r in out):
            out.append(reading)
    return tuple(out)


class _Scanner:
    def __init__(self, tokens: list[Token], lexicons: LexiconSet):
        self.tokens = tokens
        self.lexicons = lexicons
        self.n = len(tokens)
        self.folded = [tok.text.casefold() for tok in tokens]
        self._windows: list[Optional[list[list[LexiconEntry]]]] = [None] * self.n
        self._kinds: list[Optional[set[EntryKind]]] = [None] * self.n  # across a start's windows
        self._org_scan_end = 0  # a failed org-suffix scan from any start before it

    # -- lexicon access helpers ---------------------------------------

    def windows(self, i: int) -> list[list[LexiconEntry]]:
        """Entries of each window starting at i, looked up once on first use:
        item k is the window i..i+k. Windows stop before punctuation other
        than a comma and before the first one that starts no lexicon key.
        Each window extends the one before it by a token and reads as
        ``_window_surface`` reads it."""
        table = self._windows[i]
        if table is None:
            table = self._windows[i] = []
            kinds = self._kinds[i] = set()
            lexicons = self.lexicons
            prefixes, index = lexicons.prefixes, lexicons.index
            tokens, folded = self.tokens, self.folded
            surface, key = tokens[i].text, folded[i]
            for last in range(i, self.n):
                tok = tokens[last]
                if tok.pos is Pos.PUNCT and tok.text != ",":
                    break
                if last > i:
                    surface = f"{surface} {tok.text}"
                    key = f"{key} {folded[last]}"
                if key not in prefixes:
                    break
                # a prefix that is no key holds no entry: no lookup
                entries = lexicons.lookup(surface) if key in index else []
                table.append(entries)
                kinds.update(entry.kind for entry in entries)
        return table

    def single(self, i: int, kind: EntryKind) -> Optional[LexiconEntry]:
        table = self.windows(i)
        if kind not in self._kinds[i]:
            return None
        return next((e for e in table[0] if e.kind is kind), None)

    def longest(self, i: int, kinds):
        """Longest lexicon window starting at i restricted to the given kinds.
        Every kind in ``_kinds[i]`` is some window's entry's, so past the
        kinds test the loop returns."""
        table = self.windows(i)
        if self._kinds[i].isdisjoint(kinds):
            return None
        for k in range(len(table) - 1, -1, -1):
            entries = [e for e in table[k] if e.kind in kinds]
            if entries:
                return i + k, entries

    def reading(self, entry: LexiconEntry) -> EntityReading:
        """A standalone entry's reading, built once per lexicon set; the memo
        is keyed by identity, as the set holds each entry it lists."""
        readings = self.lexicons.readings
        reading = readings.get(id(entry))
        if reading is None:
            reading = readings[id(entry)] = _reading_from_entry(entry)
        return reading

    # -- quantity grammar ----------------------------------------------

    def number_at(self, i: int):
        """Parse a numeral or a number-word run; returns (value, next index)."""
        tok = self.tokens[i]
        if tok.pos is Pos.NUM and tok.text[0].isdigit() or tok.pos is Pos.NUM and tok.text[0] == ".":
            try:
                return Decimal(tok.text.replace(",", "")), i + 1
            except ArithmeticError:
                return None
        total = None
        j = i
        while j < self.n:
            entry = self.single(j, EntryKind.NUMBER_WORD)
            if entry is None or entry.attr("val") is None:
                break
            word_value = entry.attr("val")
            if total is None:
                total = word_value
                j += 1
                continue
            # only "tens + unit" composes: twenty five -> 25
            if total % 10 == 0 and 20 <= total <= 90 and 1 <= word_value <= 9:
                total += word_value
                j += 1
                continue
            break
        if total is None:
            return None
        return total, j

    def magnitudes(self, value: Decimal, j: int):
        """The value times each magnitude word from j on (five million),
        and the index after them. The product stays within the decimal
        context: the word that would overflow it (10^1000000 or beyond)
        ends the number, and the words from it on read as any others."""
        while j < self.n:
            entry = self.single(j, EntryKind.NUMBER_WORD)
            if entry is None or entry.attr("mag") is None:
                break
            try:
                value *= entry.attr("mag")
            except ArithmeticError:   # decimal.Overflow
                break
            j += 1
        return value, j

    def quant_at(self, i: int):
        parsed = self.number_at(i)
        if parsed is None:
            return None
        value, j = parsed
        return self.magnitudes(value, j)

    def match_quantity(self, i: int) -> Optional[EntityMention]:
        tok = self.tokens[i]
        # currency symbol before the figure: $2 million
        if tok.pos is Pos.SYM:
            entry = self.single(i, EntryKind.CURRENCY_UNIT)
            if entry is not None and entry.attr("sym") == "pre" and i + 1 < self.n:
                quant = self.quant_at(i + 1)
                if quant is not None:
                    value, j = quant
                    money = model.Money(value, entry.normalized)
                    return EntityMention(i, j - 1, (EntityReading(ReadingKind.MONEY, money),))
            return None
        quant = self.quant_at(i)
        if quant is None:
            return None
        value, j = quant
        # "two to three hours" takes the first bound
        if j + 1 < self.n and self.tokens[j].text.lower() == "to":
            second = self.quant_at(j + 1)
            if second is not None:
                tail = self.tail_reading(value, second[1])
                if tail is not None:
                    reading, last = tail
                    return EntityMention(i, last, (reading,))
        tail = self.tail_reading(value, j)
        if tail is not None:
            reading, last = tail
            return EntityMention(i, last, (reading,))
        return EntityMention(i, j - 1, (EntityReading(ReadingKind.NUMBER, value),))

    def tail_reading(self, value: Decimal, j: int):
        """Currency word or measure unit following a figure."""
        if j >= self.n:
            return None
        entry = self.single(j, EntryKind.CURRENCY_UNIT)
        if entry is not None and entry.attr("sym") != "pre":
            scale = entry.attr("scale")
            try:
                amount = value if scale is None else value * scale
            except ArithmeticError:   # decimal.Overflow: the figure is no amount
                return None
            return EntityReading(ReadingKind.MONEY, model.Money(amount, entry.normalized)), j
        unit = self.longest(j, {EntryKind.UNIT})
        if unit is not None:
            last, entries = unit
            entry = entries[0]
            kind = _DIM_KIND[entry.attr("dim")]
            if kind is ReadingKind.PERCENT:
                return EntityReading(ReadingKind.PERCENT, value), last
            measure = model.Measure(value, entry.normalized)
            return EntityReading(kind, measure), last
        return None

    # -- person composition ---------------------------------------------

    def match_person(self, i: int) -> Optional[EntityMention]:
        j = i
        prefix = None
        functions: list[str] = []
        sex = None
        while j < self.n:
            found = self.longest(j, {EntryKind.TITLE})
            if found is None:
                break
            last, entries = found
            entry = entries[0]
            if entry.attr("role") == "prefix":
                prefix = prefix or entry.normalized
            else:
                functions.append(entry.normalized)
            sex = sex or entry.attr("sex")
            j = last + 1
        given = None
        given_entry = self.single(j, EntryKind.GIVEN_NAME) if j < self.n else None
        if given_entry is not None and self.tokens[j].text[0].isupper():
            given = given_entry.normalized
            sex = sex or given_entry.attr("sex")
            j += 1
        has_title = prefix is not None or functions
        if not has_title and not given:
            return None  # a bare capitalized run is the fallback's job
        family_parts: list[str] = []
        while j < self.n and self.tokens[j].pos is Pos.PROPN:
            family_parts.append(self.tokens[j].text)
            j += 1
        family = " ".join(family_parts) or None
        if has_title and not given and not family:
            # attributive use ("justice system", "police car") is no mention
            if j < self.n and self.tokens[j].pos is Pos.NOUN:
                return None
        person = model.Person(
            prefix=prefix,
            function=" ".join(functions) if functions else None,
            given=given,
            family=family,
            sex=sex,
        )
        readings = [EntityReading(ReadingKind.PERSON, person)]
        table = self.windows(i)
        if j - i <= len(table):   # the window i..j-1 is within the prefix frontier
            readings += [self.reading(e) for e in table[j - i - 1]
                         if e.kind in _STANDALONE_KINDS]
        return EntityMention(i, j - 1, _dedupe(readings))

    # -- other matchers ---------------------------------------------------

    def match_lexicon(self, i: int) -> Optional[EntityMention]:
        found = self.longest(i, _STANDALONE_KINDS)
        if found is None:
            return None
        last, entries = found
        return EntityMention(i, last, _dedupe(list(map(self.reading, entries))))

    def match_org_suffix(self, i: int) -> Optional[EntityMention]:
        closed = (Pos.DET, Pos.PREP, Pos.CONJ, Pos.PRON, Pos.PUNCT, Pos.SYM,
                  Pos.NUM)

        def name_like(tok: Token) -> bool:
            return (tok.text[0].isalpha() and tok.text[0].isupper()
                    and tok.pos not in closed)

        if i < self._org_scan_end or not name_like(self.tokens[i]):
            return None
        j = i
        while j < self.n and name_like(self.tokens[j]) \
                and self.single(j, EntryKind.ORG_SUFFIX) is None:
            j += 1
        # one comma may stand between the name and its suffix (``Acme, Inc.``)
        last = j + 1 if j > i and j + 1 < self.n and self.tokens[j].text == "," else j
        if last >= self.n or j == i or self.single(last, EntryKind.ORG_SUFFIX) is None:
            # a scan from a later start before j stops at j too, and fails
            self._org_scan_end = j
            return None
        name = _window_surface(self.tokens, i, last).replace(" , ", ", ")
        org = model.Organization(full_name=name)
        return EntityMention(i, last, (EntityReading(ReadingKind.ORGANIZATION, org),))

    def match_pronoun(self, i: int) -> Optional[EntityMention]:
        if self.tokens[i].pos is not Pos.PRON:
            return None
        entry = self.single(i, EntryKind.PRONOUN)
        if entry is None:
            return None
        person = model.Person(sex=entry.attr("sex"))
        reading = EntityReading(ReadingKind.PERSON, person)
        return EntityMention(i, i, (reading,), pronoun=True)

    def match_date(self, i: int) -> Optional[EntityMention]:
        text = self.tokens[i].text
        if text in _WEEKDAYS or text in _MONTHS:
            return EntityMention(i, i, (EntityReading(ReadingKind.DATE, text),))
        return None

    def match_unknown_name(self, i: int) -> Optional[EntityMention]:
        if self.tokens[i].pos is not Pos.PROPN:
            return None
        if self.tokens[i].text.lower() in _STORM_WORDS:
            return None
        j = i
        while j < self.n and self.tokens[j].pos is Pos.PROPN:
            j += 1
        family = _window_surface(self.tokens, i, j - 1)
        person = model.Person(family=family)
        return EntityMention(i, j - 1, (EntityReading(ReadingKind.PERSON, person),))


def _merge_product_context(mentions: list[EntityMention]) -> list[EntityMention]:
    """Widen a product mention over an adjacent maker or model-year mention
    before it (``United Airlines Boeing 777``, ``1999 Boeing 777``)."""
    out: list[EntityMention] = []
    for mention in mentions:
        prev = out[-1] if out else None
        if (prev and mention.primary_kind is ReadingKind.PRODUCT
                and prev.last + 1 == mention.first
                and (prev.primary_kind is ReadingKind.ORGANIZATION or _is_model_year(prev))):
            out[-1] = EntityMention(prev.first, mention.last, mention.readings[:1])
        else:
            out.append(mention)
    return out


def _is_model_year(mention: EntityMention) -> bool:
    year = mention.readings[0].value
    return (mention.primary_kind is ReadingKind.NUMBER
            and year == year.to_integral_value() and 1900 <= int(year) <= 2099)


def parse_entities(tokens: list[Token], lexicons: LexiconSet) -> list[EntityMention]:
    """Identify entity mentions over one sentence's tagged tokens."""
    scanner = _Scanner(list(tokens), lexicons)
    prefixes, folded = lexicons.prefixes, scanner.folded
    mentions: list[EntityMention] = []
    i = 0
    while i < scanner.n:
        tok = scanner.tokens[i]
        if tok.pos is Pos.PUNCT or (tok.pos is not Pos.NUM and not tok.text[0].isupper()
                                    and folded[i] not in prefixes):
            # The start gate. A token that is no NUM, is not capitalised and
            # starts no lexicon key starts no mention: the quantity grammar
            # needs a NUM token, or a number word or currency entry; person
            # composition a title or given-name entry; the lexicon matcher
            # an entry; the org-suffix, date and unknown-name matchers a
            # capitalised token (PROPN is capitalised); the pronoun matcher
            # a Pronoun entry. Every entry's key starts with its first token.
            i += 1
            continue
        if tok.pos is Pos.NUM or any(scanner.windows(i)):
            mention = (scanner.match_quantity(i)
                       or scanner.match_person(i)
                       or scanner.match_lexicon(i)
                       or scanner.match_org_suffix(i)
                       or scanner.match_pronoun(i)
                       or scanner.match_date(i)
                       or scanner.match_unknown_name(i))
        else:   # no entry in any window from here: the capitalised-token matchers
            mention = (scanner.match_org_suffix(i)
                       or scanner.match_date(i)
                       or scanner.match_unknown_name(i))
        if mention is not None:
            mentions.append(mention)
            i = mention.last + 1
        else:
            i += 1
    return _merge_product_context(mentions)
