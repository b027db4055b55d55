"""Reference resolution: one identifier per unique entity.

Mentions are visited in document order. Each is linked to a prior entity
by, in order: exact full-name match, family-name match to a prior person,
title match, and for pronouns the most recent prior person agreeing in
sex (unknown sex matches either). Anything else gets a fresh identifier;
an unresolvable pronoun is additionally flagged ambiguous. Identifiers
look like PERSON3, ORG1, LOC4 and never mix entity kinds. A resolved
pronoun reads as the person record of its entity's latest named mention,
with the pronoun's sex where that record has none, so a pattern slot it
fills carries the antecedent's name.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal
from typing import Optional

from .. import model
from ..model import value_class
from ..vocab import Sex
from .types import EntityMention, EntityReading, ReadingKind, SentenceParse

_PREFIX = {
    ReadingKind.PERSON: "PERSON",
    ReadingKind.LOCATION: "LOC",
    ReadingKind.ORGANIZATION: "ORG",
    ReadingKind.PRODUCT: "PROD",
    ReadingKind.NUMBER: "NUM",
    ReadingKind.PERCENT: "PCT",
    ReadingKind.MONEY: "MONEY",
    ReadingKind.DURATION: "DUR",
    ReadingKind.TEMPERATURE: "TEMP",
    ReadingKind.SPEED: "SPEED",
    ReadingKind.DISTANCE: "DIST",
    ReadingKind.DATE: "DATE",
}


@value_class(frozen=False)
class _Entity:
    """An entity that references resolve to: id, kind, creation order, sex
    and latest person record."""

    eid: str
    kind: ReadingKind
    order: int  # creation index: later entities win lookups
    sex: Optional[Sex] = None
    person: Optional[model.Person] = None  # the record of its latest named mention


def _value_key(reading: EntityReading) -> Optional[str]:
    value = reading.value
    if isinstance(value, model.Location):
        parts = (value.city, value.state, value.country, value.region,
                 str(value.continent) if value.continent else None)
        return "|".join((p or "").lower() for p in parts)
    if isinstance(value, model.Organization):
        return (value.full_name or value.nickname or "").lower()
    if isinstance(value, (model.Money, model.Measure, Decimal)):
        return model.leaf_token(None, value)
    if isinstance(value, str):
        return value.lower()
    return None


def _person_keys(person: model.Person):
    full = None
    if person.given and person.family:
        full = f"{person.given} {person.family}".lower()
    family = person.family.lower() if person.family else None
    function = person.function.lower() if person.function else None
    return full, family, function


def _sex_compatible(a: Optional[Sex], b: Optional[Sex]) -> bool:
    return a is None or b is None or a == b


class _Resolver:
    """Each lookup returns the latest-created entity carrying the key, so
    keys map straight to that entity instead of scanning back."""

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.created = 0
        self.full_names: dict[str, _Entity] = {}
        self.families: dict[str, _Entity] = {}
        self.functions: dict[str, _Entity] = {}
        self.values: dict[tuple[ReadingKind, str], _Entity] = {}
        self.last_person: Optional[_Entity] = None
        # per sex (None: no sex yet), persons in creation order that may
        # still agree with it; an entity's sex is set at most once, so one
        # that stops agreeing never agrees again and is dropped on reaching
        # the top
        self.agreeing: dict[Optional[Sex], list[_Entity]] = {
            sex: [] for sex in (*Sex, None)}

    def fresh(self, kind: ReadingKind) -> _Entity:
        prefix = _PREFIX[kind]
        self.counters[prefix] = self.counters.get(prefix, 0) + 1
        self.created += 1
        entity = _Entity(eid=f"{prefix}{self.counters[prefix]}", kind=kind,
                         order=self.created)
        if kind is ReadingKind.PERSON:
            self.last_person = entity
            for stack in self.agreeing.values():
                stack.append(entity)
        return entity

    def resolve_person(self, person: model.Person, pronoun: bool) -> Optional[_Entity]:
        full, family, function = _person_keys(person)
        if pronoun:
            if person.sex is None:
                return self.last_person
            # a sex outside the vocabulary agrees with persons of no sex only
            stack = self.agreeing.get(person.sex, self.agreeing[None])
            while stack and not _sex_compatible(stack[-1].sex, person.sex):
                stack.pop()
            return stack[-1] if stack else None
        if full and full in self.full_names:
            return self.full_names[full]
        if family and family in self.families:
            return self.families[family]
        if function and not family and not person.given:
            return self.functions.get(function)
        return None

    def resolve_value(self, reading: EntityReading) -> Optional[_Entity]:
        return self.values.get((reading.kind, _value_key(reading)))

    @staticmethod
    def _carry(index: dict, key, entity: _Entity):
        held = index.get(key)
        if held is None or held.order < entity.order:
            index[key] = entity

    def record(self, entity: _Entity, reading: EntityReading):
        if reading.kind is ReadingKind.PERSON:
            person = reading.value
            full, family, function = _person_keys(person)
            if full:
                self._carry(self.full_names, full, entity)
            if family:
                self._carry(self.families, family, entity)
            if function:
                self._carry(self.functions, function, entity)
            if entity.sex is None and isinstance(person.sex, Sex):
                entity.sex = person.sex
            entity.person = person
        else:
            key = _value_key(reading)
            if key:
                self._carry(self.values, (entity.kind, key), entity)


def resolve_references(parses: list[SentenceParse]) -> list[SentenceParse]:
    """Assign an identifier to every mention; coreferent mentions share one."""
    resolver = _Resolver()
    resolved: list[SentenceParse] = []
    for parse in parses:
        new_mentions = []
        for mention in parse.mentions:
            readings = mention.readings
            primary = readings[0]
            ambiguous = mention.ambiguous
            if primary.kind is ReadingKind.PERSON:
                entity = resolver.resolve_person(primary.value, mention.pronoun)
                if entity is None:
                    entity = resolver.fresh(ReadingKind.PERSON)
                    if mention.pronoun:
                        ambiguous = True
                elif mention.pronoun and entity.person is not None:
                    person = entity.person   # with the pronoun's sex where it has none
                    if person.sex is None:
                        person = replace(person, sex=primary.value.sex)
                    readings = (EntityReading(ReadingKind.PERSON, person),)
            else:
                entity = resolver.resolve_value(primary)
                if entity is None:
                    entity = resolver.fresh(primary.kind)
            if not mention.pronoun:
                resolver.record(entity, primary)
            new_mentions.append(EntityMention(mention.first, mention.last, readings,
                                              entity.eid, mention.pronoun, ambiguous))
        resolved.append(SentenceParse(parse.start, parse.end, parse.tokens,
                                      tuple(new_mentions)))
    return resolved
