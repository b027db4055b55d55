"""Correctness checks for extract output.

Every document must re-parse with ``parse_newsform`` and validate with no
errors, and every event the story generator planted must be present,
matched by event type and key field.
"""

from __future__ import annotations

from decimal import Decimal

from newsforms import model
from newsforms.xmlcodec import parse_newsform

from stories import Story
from tokens import leaf_text, norm_number

DOC_END = "</NewsForm>\n"


def split_documents(stdout: str) -> list[str]:
    """Split a concatenated extract stream into its documents."""
    parts = stdout.split(DOC_END)
    if parts[-1]:
        raise ValueError("output does not end with a complete document")
    return [part + DOC_END for part in parts[:-1]]


def _token(value) -> str:
    """leaf_text, with numbers normalized as the planted tokens are."""
    if isinstance(value, (int, Decimal)):
        return norm_number(value)
    return leaf_text(value)


def _value_at(record, dotted: str):
    value = record
    for element in dotted.split("."):
        spec = model.spec_by_element(type(value), element)
        if spec is None:
            return None
        value = getattr(value, spec.attr)
        if value is None:
            return None
    return value


def check_story_output(story: Story, xml: str) -> list[str]:
    """Problems found in one story's document; empty when it is correct."""
    try:
        doc = parse_newsform(xml)
    except ValueError as exc:
        return [f"{story.name}: output does not parse: {exc}"]
    problems = [f"{story.name}: {f.path}: {f.message}"
                for f in model.validate(doc).errors]
    for planted in story.planted:
        cls = model.EVENT_TYPES[planted.variant]
        found = [_value_at(event, planted.path) for event in doc.events
                 if isinstance(event, cls)]
        if not any(value is not None and _token(value) == planted.token
                   for value in found):
            problems.append(f"{story.name}: planted {planted.variant}."
                            f"{planted.path}={planted.token} missing")
    return problems


def check_batch_output(batch: list[Story], stdout: str) -> list[str]:
    try:
        docs = split_documents(stdout)
    except ValueError as exc:
        return [str(exc)]
    if len(docs) != len(batch):
        return [f"expected {len(batch)} documents, got {len(docs)}"]
    problems = []
    for story, xml in zip(batch, docs):
        problems.extend(check_story_output(story, xml))
    return problems
