"""Shared datatypes for the text-analysis stages.

Tokens, readings, mentions and sentence parses are built many times per
story, so they are named tuples: immutable, compared and printed field by
field like a frozen dataclass, and cheaper to build."""

# no ``from __future__ import annotations``: ``NamedTuple`` would compile
# each field's annotation string at import
from enum import Enum
from typing import NamedTuple, Optional

from ..model import value_class


class Pos(Enum):
    DET = "DET"
    NOUN = "NOUN"
    PROPN = "PROPN"
    PRON = "PRON"
    VERB = "VERB"
    ADJ = "ADJ"
    ADV = "ADV"
    NUM = "NUM"
    PREP = "PREP"
    CONJ = "CONJ"
    PUNCT = "PUNCT"
    SYM = "SYM"
    OTHER = "OTHER"


class Token(NamedTuple):
    text: str
    start: int  # character offsets into the source text
    end: int
    pos: Pos


@value_class
class NounGroup:
    """A noun group: its token span and head token."""

    first: int  # token indices, inclusive
    last: int
    head: int   # index of the head token, within [first, last]


class ReadingKind(Enum):
    PERSON = "Person"
    LOCATION = "Location"
    ORGANIZATION = "Organization"
    PRODUCT = "Product"
    NUMBER = "Number"
    PERCENT = "Percent"
    MONEY = "Money"
    DURATION = "Duration"
    TEMPERATURE = "Temperature"
    SPEED = "Speed"
    DISTANCE = "Distance"
    DATE = "Date"


class EntityReading(NamedTuple):
    """One interpretation of a text span: a kind plus its typed payload.

    The payload is a model value (Person, Location, Organization, Money,
    Measure) or a Decimal/str scalar, depending on the kind.
    """

    kind: ReadingKind
    value: object


class EntityMention(NamedTuple):
    first: int  # token indices, inclusive
    last: int
    readings: tuple[EntityReading, ...]
    resolved_id: Optional[str] = None
    pronoun: bool = False
    ambiguous: bool = False

    @property
    def primary_kind(self) -> ReadingKind:
        return self.readings[0].kind


class SentenceParse(NamedTuple):
    start: int  # character span of the sentence in the source
    end: int
    tokens: tuple[Token, ...]
    mentions: tuple[EntityMention, ...]

    def mention_text(self, mention: EntityMention) -> str:
        return " ".join(t.text for t in self.tokens[mention.first:mention.last + 1])
