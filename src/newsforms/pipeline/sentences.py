"""Sentence boundary identification.

A terminator (. ? !) ends a sentence unless it closes a known
abbreviation, a single-letter initial, or sits inside a number. The
returned character spans cover all non-whitespace input, in order,
without overlap.
"""

from __future__ import annotations

import re

# Lowercase abbreviations that take a trailing period without ending a
# sentence. Words with internal periods (U.S., e.g.) are recognized by
# shape and need not be listed.
ABBREVIATIONS = frozenset("""
    mr mrs ms dr prof gen col sen rep gov lt sgt st mt no vs etc inc corp
    ltd co jr sr jan feb mar apr jun jul aug sep sept oct nov dec
""".split())

_TERMINATORS = re.compile(r"[.?!]")
_RUN = ".?!\"')]”’"  # a terminator run: terminators, closing quotes and brackets


def _preceding_word(text: str, i: int) -> str:
    j = i
    while j > 0 and not text[j - 1].isspace():
        j -= 1
    return text[j:i]


def _is_boundary(text: str, i: int, j: int) -> bool:
    """Is the terminator run text[i:j] a sentence end?

    The run is judged once, not once per terminator: it ends a sentence
    when a sentence can start after it and it holds a ``?`` or ``!``, or
    its first period ends the word before it (a later period follows one
    in its own word). The next text is checked first, so the walk back
    over the word runs at most once per word; a decimal point (``3.5``)
    fails that check.
    """
    if j < len(text):
        if not text[j].isspace():
            return False
        k = j
        while k < len(text) and text[k].isspace():
            k += 1
        if k < len(text) and not (text[k].isupper() or text[k].isdigit()
                                  or text[k] in "\"'“‘(["):
            return False
    run = text[i:j]
    if "?" in run or "!" in run:
        return True
    word = _preceding_word(text, i)
    if "." in word:
        return False  # internal-period abbreviation: U.S., e.g.
    if word.lower() in ABBREVIATIONS:
        return False
    return not (len(word) == 1 and word.isalpha() and word.isupper())  # initial: "E."


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Split text into sentence character spans (start, end)."""
    spans: list[tuple[int, int]] = []
    n = len(text)
    start = 0
    while start < n and text[start].isspace():
        start += 1
    i = start
    while (terminator := _TERMINATORS.search(text, i)) is not None:
        i = j = terminator.start()
        while j < n and text[j] in _RUN:
            j += 1
        if _is_boundary(text, i, j):
            spans.append((start, j))
            start = j
            while start < n and text[start].isspace():
                start += 1
        i = j
    if start < n:
        end = n
        while end > start and text[end - 1].isspace():
            end -= 1
        if end > start:
            spans.append((start, end))
    return spans
