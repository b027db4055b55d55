"""Locating the data files shipped with the package.

The resource root holds ``*.txt`` code tables, ``sentiment.tsv``, and the
``lexicons/``, ``rules/``, and ``kb/`` directories. The packaged copy is the
default; the ``NEWSFORM_DATA`` environment variable or explicit paths
override it. The lexicon files, their manifest, the kb and the sentiment
table are tab-separated tables read through ``rows``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator


def packaged_data_root() -> Path:
    return Path(__file__).parent / "data"


def default_data_root() -> Path:
    override = os.environ.get("NEWSFORM_DATA")
    if override:
        return Path(override)
    return packaged_data_root()


def read_code_table(path: Path) -> frozenset[str]:
    """Read a one-code-per-line table, ignoring blanks and # comments."""
    codes = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            codes.add(line)
    return frozenset(codes)


def rows(text: str) -> Iterator[tuple[int, list[str]]]:
    """Each row of a tab-separated table: its line number, from 1, and its
    tab-split columns, unstripped. A blank line, or one whose first
    non-blank character is ``#``, is no row."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and stripped[0] != "#":
            yield lineno, line.split("\t")
