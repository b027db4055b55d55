"""Tokenization and rule-based part-of-speech tagging.

Tagging is deterministic, in fixed precedence: closed-class lexicon,
suffix rules, capitalized word -> PROPN, and NOUN as the fallback.
Numbers keep internal commas and decimal points as one token; currency
and percent signs are SYM tokens; a known abbreviation keeps its
trailing period (``Dr.`` is one token), which is read once, so no token
overlaps another.
"""

from __future__ import annotations

import re

from .sentences import ABBREVIATIONS
from .types import Pos, Token

_CLOSED: dict[str, Pos] = {}

def _enter(pos: Pos, words: str):
    for word in words.split():
        _CLOSED[word] = pos

_enter(Pos.DET, """
    the a an this that these those each every no all both some any another
    its his their my your our whose
""")
_enter(Pos.PRON, """
    he she it they him her them i you we us me who whom himself herself
    itself themselves someone anyone everyone nobody
""")
_enter(Pos.PREP, """
    of in on at to from by with for into over under across through after
    before between against during without within near since until toward
    towards off above below around beside beyond amid among despite per via
    upon onto behind along inside outside out up down about
""")
_enter(Pos.CONJ, """
    and or but nor so yet because although though while if than whether
    unless as
""")
_enter(Pos.VERB, """
    is are was were am be been being has have had having do does did done
    doing will would shall should can could may might must said say says
    saying struck strike strikes told tell went go goes gone came come comes
    took take takes taken get gets got gotten made make makes gave give
    gives given seen see sees saw found find finds fell fall falls felt feel
    feels rose rise rises risen kept keep keeps held hold holds became
    become becomes began begin begins begun brought bring brings bought buy
    buys sold sell sells met meet meets led lead leads left leave leaves
    lost lose loses won win wins paid pay pays sent send sends built build
    builds spent spend spends stood stand stands thought think thinks knew
    know knows ran run runs grew grow grows grown wrote write writes written
    spoke speak speaks spoken broke break breaks broken drove drive drives
    driven flew fly flies flown threw throw throws thrown
""")
_enter(Pos.ADV, """
    not very also just more most least only too then now here there when
    where why how however still already again once never always often soon
    nearly almost
""")
_enter(Pos.NUM, """
    zero one two three four five six seven eight nine ten eleven twelve
    thirteen fourteen fifteen sixteen seventeen eighteen nineteen twenty
    thirty forty fifty sixty seventy eighty ninety hundred thousand million
    billion trillion dozen
""")

_ADJ_SUFFIXES = ("ern", "ous", "ful", "ive", "able", "ible", "ic", "ish",
                 "al", "est", "ian")

_TOKEN_RE = re.compile(
    r"(?P<abbr>(?:[A-Za-z]\.){2,})"
    r"|(?P<num>\d+(?:,\d{3})*(?:\.\d+)?|\.\d+)"
    r"|(?P<word>[A-Za-z]+(?:['’-][A-Za-z]+)*)"
    r"|(?P<sym>[$€£¥%&@#])"
    r"|(?P<punct>\S)"
)


def _tag_word(word: str) -> Pos:
    lower = word.lower()
    pos = _CLOSED.get(lower)
    if pos is not None:
        return pos
    size = len(lower)
    if lower.endswith("ing") and size > 4:
        return Pos.ADJ if "-" in lower else Pos.VERB
    if lower.endswith("ed") and size > 3:
        return Pos.VERB
    if lower.endswith("ly") and size > 3:
        return Pos.ADV
    if lower.endswith(_ADJ_SUFFIXES):
        for suffix in _ADJ_SUFFIXES:
            if lower.endswith(suffix) and size > len(suffix) + 1:
                return Pos.ADJ
    if word[0].isupper():
        return Pos.PROPN
    return Pos.NOUN


def tag_pos(text: str, span: tuple[int, int]) -> list[Token]:
    """Tokenize and tag one sentence span; offsets are into the full text."""
    start, end = span
    tokens: list[Token] = []
    # each search starts where the last token ends, past an abbreviation's period
    while (match := _TOKEN_RE.search(text, start, end)) is not None:
        kind = match.lastgroup
        tok_start, tok_end = match.span()
        value = match.group()
        if kind == "word":
            # keep the period on known abbreviations (Dr., Corp., ...)
            if (tok_end < end and text[tok_end] == "."
                    and value.lower() in ABBREVIATIONS):
                tok_end += 1
                value = text[tok_start:tok_end]
                pos = Pos.PROPN if value[0].isupper() else _tag_word(value[:-1])
            else:
                pos = _tag_word(value)
        elif kind == "abbr":
            pos = Pos.PROPN if value[0].isupper() else Pos.NOUN
        elif kind == "num":
            pos = Pos.NUM
        elif kind == "sym":
            pos = Pos.SYM
        else:
            pos = Pos.OTHER if value.isalnum() else Pos.PUNCT
        tokens.append(Token(value, tok_start, tok_end, pos))
        start = tok_end
    return tokens
