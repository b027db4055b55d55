"""Text-analysis pipeline: sentences, tags, entities, reference
resolution, and noun groups for the debug dump.

All stages are pure given immutable lexicons; identical input text and
lexicons produce identical parses.
"""

from __future__ import annotations

from ..lexicons import LexiconSet
from .chunk import chunk_noun_groups
from .coref import resolve_references
from .entities import parse_entities
from .postag import tag_pos
from .sentences import split_sentences
from .types import (
    EntityMention,
    EntityReading,
    NounGroup,
    Pos,
    ReadingKind,
    SentenceParse,
    Token,
)

__all__ = [
    "EntityMention", "EntityReading", "NounGroup", "Pos", "ReadingKind",
    "SentenceParse", "Token", "analyze", "chunk_noun_groups", "dump_parses",
    "parse_entities", "resolve_references", "split_sentences", "tag_pos",
]


def analyze(text: str, lexicons: LexiconSet) -> list[SentenceParse]:
    """Run every stage over a document and resolve references."""
    parses = []
    for span in split_sentences(text):
        tokens = tag_pos(text, span)
        mentions = parse_entities(tokens, lexicons)
        parses.append(SentenceParse(start=span[0], end=span[1],
                                    tokens=tuple(tokens), mentions=tuple(mentions)))
    return resolve_references(parses)


def dump_parses(parses: list[SentenceParse]) -> str:
    """Line-oriented debug dump: tokens, then noun groups (chunked here,
    as nothing else reads them) and mentions."""
    lines: list[str] = []
    for index, parse in enumerate(parses):
        lines.append(f"sentence\t{index}\t{parse.start}\t{parse.end}")
        for token in parse.tokens:
            lines.append(f"{token.start}\t{token.text}\t{token.pos.value}")
        for group in chunk_noun_groups(parse.tokens):
            lines.append(f"group\t[{group.first}..{group.last}]\thead={group.head}")
        for mention in parse.mentions:
            kinds = ",".join(r.kind.value for r in mention.readings)
            flags = ""
            if mention.pronoun:
                flags += "\tpronoun"
            if mention.ambiguous:
                flags += "\tambiguous"
            surface = parse.mention_text(mention)
            lines.append(
                f"mention\t[{mention.first}..{mention.last}]\t"
                f"{mention.resolved_id or '-'}\t{kinds}\t{surface}{flags}"
            )
    return "\n".join(lines) + ("\n" if lines else "")
