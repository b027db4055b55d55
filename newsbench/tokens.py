"""Canonical text of leaf values, shared by the extraction check, the
story generator and the query oracle."""

from __future__ import annotations

from datetime import datetime
from decimal import Decimal
from enum import Enum

from newsforms import model


def norm_number(value) -> str:
    return format(Decimal(value).normalize(), "f")


def leaf_text(value) -> str:
    """The document token of a leaf, as `contains` and equality see it."""
    if isinstance(value, model.Money):
        return f"{value.currency}:{norm_number(value.amount)}"
    if isinstance(value, model.Measure):
        return f"{norm_number(value.value)} {value.unit}"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Decimal):
        return format(value, "f")
    if isinstance(value, datetime):
        return value.strftime(model.TIMESTAMP_FORMAT)
    return str(value)
