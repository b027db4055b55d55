"""Pattern rules: from resolved sentence parses to event records.

A rule file holds ``pattern => template`` rules, one per line-group
(blank lines separate groups, ``#`` starts a comment line). Pattern atoms:

* a bare word            literal token, matched case-insensitively
* ``?Kind`` / ``?Kind:v``  slot binding a mention that carries a reading
                           of that kind; other readings are discarded
* ``[ ... ]``            optional atom group
* ``*n``                 skip up to n items

A rule is tried only on sentences that contain all of its non-optional
literals (those outside ``[...]``) as free tokens.

The template is an event-element XML fragment whose leaves are either
constant tokens or ``?var`` placeholders. A record element of one class
(a person, a location, an organization, money) holding a placeholder is
a nested record template; the event is the root record, and both
compile and instantiate through one ``Template`` walk. Constants are
checked as the validator checks document fields. Rules with more
literals match first; file order breaks ties. Fragments of one event
type merge into a single record per document, earliest sentence winning
conflicts. A commonsense knowledge base then vets the merged events; its
rows spell their conditions in the language ``model.read_conditions``
reads, which the sentiment table shares.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import field, replace
from pathlib import Path
from typing import Optional, Sequence

from . import model, xmlcodec
from .lexicons import LexiconSet
from .model import FieldKind, FieldSpec, NewsForm, value_class
from .pipeline import ReadingKind, SentenceParse, analyze
from .pipeline.types import EntityMention
from .resources import rows


class RuleError(ValueError):
    """Rule or knowledge-base source that does not compile."""

    def __init__(self, rule_id: str, message: str):
        super().__init__(f"{rule_id}: {message}")
        self.rule_id = rule_id


@value_class
class Diagnostic:
    """One ``--review`` line: the stage, the rule, the action and a detail."""

    stage: str
    rule_id: Optional[str]
    action: str
    detail: str

    def line(self) -> str:
        return f"{self.stage}\t{self.rule_id or '-'}\t{self.action}\t{self.detail}"


# ---------------------------------------------------------------------------
# Pattern atoms

@value_class
class Slot:
    """A pattern atom binding a mention with a reading of ``kind`` to ``var``."""

    kind: ReadingKind
    var: str


# ---------------------------------------------------------------------------
# Templates

@value_class
class VarRef:
    """A template leaf filled from the mention bound to ``var``."""

    var: str


@value_class
class Template:
    """A record to build: the event at the root, a nested record below."""
    cls: type
    parts: tuple  # of (FieldSpec, VarRef | Template | constant value)


@value_class
class ExtractionRule:
    """A compiled pattern rule: its atoms, template, priority and mandatory literals."""

    rule_id: str
    # a literal's lower-cased word (str), a Slot, an optional group's tuple
    # of atoms or a skip's item limit (int)
    atoms: tuple
    template: Template
    priority: int
    order: int
    slots: dict  # slot variable -> ReadingKind
    literals: frozenset  # lower-cased literals outside [...]: all must occur


_SLOT_RE = re.compile(r"^\?([A-Za-z]+)(?::([A-Za-z][A-Za-z0-9_]*))?$")
_SKIP_RE = re.compile(r"^\*(\d+)$")

# slot kinds a non-record field can absorb; a record field absorbs the kinds
# named after its record classes; TEXT/TOKEN/ENUM checked at instantiation
_FIELD_SLOT_KINDS = {
    FieldKind.INT: {ReadingKind.NUMBER},
    FieldKind.DECIMAL: {ReadingKind.NUMBER, ReadingKind.PERCENT},
    FieldKind.MEASURE: {ReadingKind.DURATION, ReadingKind.TEMPERATURE,
                        ReadingKind.SPEED, ReadingKind.DISTANCE},
    FieldKind.COUNTRY: {ReadingKind.LOCATION},
    FieldKind.STATE: {ReadingKind.LOCATION},
    FieldKind.CURRENCY: {ReadingKind.MONEY},
    FieldKind.TICKER: {ReadingKind.ORGANIZATION},
}


def _parse_pattern(rule_id: str, source: str) -> tuple:
    """Atoms, slots (variable -> ReadingKind), priority (the literal count,
    optional ones included) and the mandatory literals of a pattern."""
    tokens = re.findall(r"\[|\]|[^\s\[\]]+", source)
    atoms: list = []
    stack: Optional[list] = None
    slots: dict = {}
    literals: set = set()
    priority = 0
    for token in tokens:
        if token == "[":
            if stack is not None:
                raise RuleError(rule_id, "optional groups do not nest")
            stack = []
            continue
        if token == "]":
            if stack is None:
                raise RuleError(rule_id, "unbalanced ']'")
            if not stack:
                raise RuleError(rule_id, "empty optional group")
            atoms.append(tuple(stack))
            stack = None
            continue
        target = stack if stack is not None else atoms
        if token.startswith("?"):
            match = _SLOT_RE.match(token)
            if not match:
                raise RuleError(rule_id, f"bad slot syntax {token!r}")
            kind_name, var = match.group(1), match.group(2)
            try:
                kind = ReadingKind(kind_name)
            except ValueError:
                raise RuleError(rule_id, f"unknown slot kind {kind_name!r}") from None
            var = var or kind_name
            if var in slots:
                raise RuleError(rule_id, f"duplicate slot variable ?{var}")
            slots[var] = kind
            target.append(Slot(kind, var))
        elif token.startswith("*"):
            match = _SKIP_RE.match(token)
            if not match:
                raise RuleError(rule_id, f"bad skip syntax {token!r}")
            target.append(int(match.group(1)))
        else:
            priority += 1
            if stack is None:
                literals.add(token.lower())
            target.append(token.lower())
    if stack is not None:
        raise RuleError(rule_id, "unbalanced '['")
    if not atoms:
        raise RuleError(rule_id, "empty pattern")
    return tuple(atoms), slots, priority, frozenset(literals)


def _compile_value(rule_id, spec: FieldSpec, elem: ET.Element, slots):
    children = list(elem)
    text = (elem.text or "").strip()
    if not children and text.startswith("?"):
        var = text[1:]
        if var not in slots:
            raise RuleError(rule_id, f"unbound template variable ?{var}")
        allowed = ({ReadingKind(cls.__name__) for cls in spec.records} if spec.records
                   else _FIELD_SLOT_KINDS.get(spec.kind))
        if allowed is not None and slots[var] not in allowed:
            raise RuleError(
                rule_id,
                f"slot ?{var} has kind {slots[var].value}, incompatible with "
                f"element <{spec.element}>",
            )
        return VarRef(var)
    if not spec.records and children:
        raise RuleError(rule_id, f"<{spec.element}> must hold a value, not elements")
    # a record of one class may mix constant and variable leaves;
    # person-or-organization fields accept a wrapped constant only
    if len(spec.records) == 1 and \
            any((child.text or "").strip().startswith("?") for child in children):
        return _compile_record(rule_id, spec.records[0], elem, slots)
    findings: list = []
    try:
        value = xmlcodec.read_field(elem, spec, findings)
    except ValueError as exc:
        raise RuleError(rule_id, f"bad constant for <{spec.element}>: {exc}") from None
    if findings:
        raise RuleError(rule_id, f"bad constant for <{findings[0].path}>: {findings[0].message}")
    return value


def _compile_record(rule_id: str, cls: type, elem: ET.Element, slots) -> Template:
    parts = []
    for child in elem:
        spec = model.spec_by_element(cls, child.tag)
        if spec is None:
            raise RuleError(rule_id, f"<{child.tag}> is not a schema element of <{elem.tag}>")
        if not spec.is_list and any(seen is spec for seen, _ in parts):
            raise RuleError(rule_id, f"<{child.tag}> may appear at most once")
        parts.append((spec, _compile_value(rule_id, spec, child, slots)))
    for spec in model.specs_for(cls):
        if spec.required and not any(seen is spec for seen, _ in parts):
            raise RuleError(rule_id, f"<{elem.tag}> needs <{spec.element}>, "
                                     "a constant or a slot")
    return Template(cls, tuple(parts))


def _compile_template(rule_id: str, source: str, slots) -> Template:
    try:
        root = ET.fromstring(source)
    except ET.ParseError as exc:
        raise RuleError(rule_id, f"template is not well-formed XML: {exc.msg}") from None
    if root.tag not in model.EVENT_TYPES:
        raise RuleError(rule_id, f"<{root.tag}> is not an event element")
    template = _compile_record(rule_id, model.EVENT_TYPES[root.tag], root, slots)
    if not template.parts:
        raise RuleError(rule_id, "template sets no fields")
    return template


def compile_rules(source: str) -> list[ExtractionRule]:
    """Compile a rule file; raises RuleError naming the offending rule."""
    groups: list[list[str]] = [[]]
    for raw in source.splitlines():
        line = raw.rstrip()
        if line.lstrip().startswith("#"):
            continue
        if not line.strip():
            if groups[-1]:
                groups.append([])
            continue
        groups[-1].append(line.strip())
    rules = []
    order = 0
    for group in groups:
        if not group:
            continue
        order += 1
        rule_id = f"r{order:03d}"
        joined = " ".join(group)
        if "=>" not in joined:
            raise RuleError(rule_id, "missing '=>' between pattern and template")
        pattern_src, template_src = joined.split("=>", 1)
        atoms, slots, priority, literals = _parse_pattern(rule_id, pattern_src.strip())
        template = _compile_template(rule_id, template_src.strip(), slots)
        rules.append(ExtractionRule(rule_id, atoms, template, priority=priority,
                                    order=order, slots=slots, literals=literals))
    return rules


def load_rules(directory) -> list[ExtractionRule]:
    """Compile every ``*.rules`` file in the directory, in name order."""
    directory = Path(directory)
    source = []
    for path in sorted(directory.glob("*.rules")):
        source.append(path.read_text(encoding="utf-8"))
    return compile_rules("\n\n".join(source))


# ---------------------------------------------------------------------------
# Pattern matching over resolved parses

@value_class
class Fragment:
    """The event one rule match built, with the ids and alternative readings it bound."""

    event: object
    bindings: dict
    sentence_index: int
    rule_id: str
    alternatives: dict  # attr -> tuple of alternate typed values


def _items_for(parse: SentenceParse) -> list:
    """The sentence as pattern items: each mention, and the lower-cased
    text of each token no mention covers."""
    covered = {mention.first: mention for mention in parse.mentions}
    tokens = parse.tokens
    items: list = []
    i = 0
    while i < len(tokens):
        mention = covered.get(i)
        if mention is None:
            items.append(tokens[i].text.lower())
            i += 1
        else:
            items.append(mention)
            i = mention.last + 1
    return items


def _match_at(atoms, items, pos: int) -> Optional[tuple[int, dict]]:
    """Match atoms against items starting at pos; returns (end, bindings)."""
    if not atoms:
        return pos, {}
    head, rest = atoms[0], atoms[1:]
    cls = head.__class__
    if cls is str:
        if pos < len(items) and items[pos] == head:   # a mention equals no text
            return _match_at(rest, items, pos + 1)
        return None
    if cls is Slot:
        if pos < len(items) and not isinstance(items[pos], str):
            mention = items[pos]
            if any(r.kind is head.kind for r in mention.readings):
                result = _match_at(rest, items, pos + 1)
                if result is not None:
                    end, bindings = result
                    return end, {head.var: mention, **bindings}
        return None
    if cls is tuple:
        with_group = _match_at(head + rest, items, pos)
        if with_group is not None:
            return with_group
        return _match_at(rest, items, pos)
    for skipped in range(0, head + 1):   # a skip, the one atom left
        if pos + skipped > len(items):
            break
        result = _match_at(rest, items, pos + skipped)
        if result is not None:
            return result
    return None


class _BindError(Exception):
    pass


def _convert(spec: FieldSpec, kind: ReadingKind, mention: EntityMention,
             parse: SentenceParse):
    # _match_at binds a slot only to a mention holding a reading of its kind
    value = next(r.value for r in mention.readings if r.kind is kind)
    fk = spec.kind
    if spec.records or fk in (FieldKind.DECIMAL, FieldKind.MEASURE):
        return value
    if fk is FieldKind.INT:
        if value != value.to_integral_value():
            raise _BindError(f"{value} is not an integer count")
        return int(value)
    if fk is FieldKind.COUNTRY:
        if value.country:   # a LOCATION reading holds a model.Location
            return value.country
        raise _BindError("location has no country code")
    if fk is FieldKind.STATE:
        if value.state:
            return value.state
        raise _BindError("location has no state code")
    if fk is FieldKind.CURRENCY:
        return value.currency
    if fk is FieldKind.TICKER:
        if value.ticker:   # an ORGANIZATION reading holds a model.Organization
            return value.ticker
        raise _BindError("organization has no ticker")
    if fk is FieldKind.ENUM:
        token = value if isinstance(value, str) else parse.mention_text(mention)
        try:
            return spec.enum(token)
        except ValueError:
            raise _BindError(f"{token!r} is not a {spec.enum.__name__} value") from None
    # TEXT / TOKEN: prefer a normalized title over raw surface
    if isinstance(value, model.Person) and value.function and not value.family \
            and not value.given:
        return value.function
    if isinstance(value, str):
        return value
    return parse.mention_text(mention)


def _alternate_values(spec: FieldSpec, kind: ReadingKind, mention: EntityMention):
    """Other person/organization readings a slot could have taken."""
    if len(spec.records) < 2:
        return ()
    other = (ReadingKind.ORGANIZATION if kind is ReadingKind.PERSON
             else ReadingKind.PERSON)
    return tuple(r.value for r in mention.readings if r.kind is other)


def _instantiate(rule: ExtractionRule, bindings: dict, parse: SentenceParse,
                 sentence_index: int, diagnostics: list) -> Optional[Fragment]:
    """The fragment a match builds, or None when it binds nothing or a slot
    does not bind; ``diagnostics`` gets a ``bind-failed`` line saying why."""
    slots = rule.slots
    alternatives = {}
    id_bindings = {}

    def resolve(spec: FieldSpec, part):
        if isinstance(part, VarRef):
            if part.var not in bindings:
                return None  # optional slot not matched
            mention = bindings[part.var]
            converted = _convert(spec, slots[part.var], mention, parse)
            alts = _alternate_values(spec, slots[part.var], mention)
            if alts:
                alternatives[spec.attr] = alts
            if mention.resolved_id:
                id_bindings[part.var] = mention.resolved_id
            return converted
        if isinstance(part, Template):
            values = {}
            for child_spec, child_part in part.parts:
                value = resolve(child_spec, child_part)
                if value is not None:
                    if child_spec.is_list:   # items accumulate in template order
                        value = values.get(child_spec.attr, ()) + (value,)
                    values[child_spec.attr] = value
            # a record left empty, or short of a field its class requires, is left out
            if not values or any(spec.required and spec.attr not in values
                                 for spec in model.specs_for(part.cls)):
                return None
            return part.cls(**values)
        return part

    try:
        event = resolve(None, rule.template)
    except _BindError as exc:
        diagnostics.append(Diagnostic("patterns", rule.rule_id, "bind-failed",
                                      f"sentence={sentence_index}: {exc}"))
        return None
    if event is None:
        return None
    return Fragment(event=event, bindings=id_bindings,
                    sentence_index=sentence_index, rule_id=rule.rule_id,
                    alternatives=alternatives)


def apply_patterns(parses: Sequence[SentenceParse], rules: Sequence[ExtractionRule],
                   diagnostics: list) -> list[Fragment]:
    """Match every rule against every sentence, highest priority first; a
    match whose slots do not bind adds a ``bind-failed`` line to
    ``diagnostics``.

    A rule is tried only on sentences whose free tokens hold all of its
    mandatory literals; ``_match_at`` compares literals the same way, so
    the skipped rules are exactly those that could not match. Rules whose
    literals the whole document lacks are set aside before any sentence."""
    itemized = [_items_for(parse) for parse in parses]
    words = [{item for item in items if isinstance(item, str)} for items in itemized]
    present = set().union(*words)
    ordered = sorted((rule for rule in rules if rule.literals <= present),
                     key=lambda r: (-r.priority, r.order))
    fragments: list[Fragment] = []
    for sentence_index, parse in enumerate(parses):
        items = itemized[sentence_index]
        sentence_frags: list[tuple[int, Fragment]] = []
        for rule in ordered:
            if not rule.literals <= words[sentence_index]:
                continue
            pos = 0
            while pos < len(items):
                result = _match_at(rule.atoms, items, pos)
                if result is None:
                    pos += 1
                    continue
                end, bindings = result
                fragment = _instantiate(rule, bindings, parse, sentence_index, diagnostics)
                if fragment is not None:
                    sentence_frags.append((pos, fragment))
                pos = max(end, pos + 1)
        sentence_frags.sort(key=lambda pair: pair[0])
        fragments.extend(frag for _, frag in sentence_frags)
    return fragments


# ---------------------------------------------------------------------------
# Fragment merging

@value_class(frozen=False)
class EventDraft:
    """A merged event and the alternative readings of its fields."""

    event: object
    alternatives: dict = field(default_factory=dict)


def merge_fragments(fragments: Sequence[Fragment]) -> tuple[list[EventDraft], list[Diagnostic]]:
    """Merge same-type fragments into one event per type per document;
    returns the drafts, in type order, and the conflicts it warned of.

    Disjoint fields union; on conflict the earliest sentence's value is
    kept and a warning is recorded. A list field gathers the new items of
    every fragment, and the alternatives of each fragment that adds items.
    Distinct event types never merge.
    """
    drafts: dict[type, EventDraft] = {}
    order: list[type] = []
    warnings: list[Diagnostic] = []
    for fragment in fragments:
        cls = type(fragment.event)
        if cls not in drafts:
            drafts[cls] = EventDraft(event=fragment.event,
                                     alternatives=dict(fragment.alternatives))
            order.append(cls)
            continue
        draft = drafts[cls]
        merged = {}
        for spec in model.specs_for(cls):
            mine = getattr(draft.event, spec.attr)
            theirs = getattr(fragment.event, spec.attr)
            if spec.is_list:
                combined = list(mine)
                for item in theirs:
                    if item not in combined:
                        combined.append(item)
                merged[spec.attr] = tuple(combined)
                alts = fragment.alternatives.get(spec.attr)
                if alts and len(combined) > len(mine):   # with its items, their alternatives
                    draft.alternatives[spec.attr] = draft.alternatives.get(spec.attr, ()) + alts
                continue
            if theirs is None:
                merged[spec.attr] = mine
            elif mine is None:
                merged[spec.attr] = theirs
                if spec.attr in fragment.alternatives:
                    draft.alternatives[spec.attr] = fragment.alternatives[spec.attr]
            else:
                merged[spec.attr] = mine
                if mine != theirs:
                    warnings.append(Diagnostic(
                        "merge", fragment.rule_id, "conflict",
                        f"{model.ELEMENT_OF_EVENT[cls]}/{spec.element}: kept "
                        f"{model.leaf_token(spec, mine)} from an earlier sentence, "
                        f"ignored {model.leaf_token(spec, theirs)}",
                    ))
        draft.event = cls(**merged)
    return [drafts[cls] for cls in order], warnings


# ---------------------------------------------------------------------------
# Commonsense knowledge base

@value_class
class CommonsenseRule:
    """A compiled knowledge-base row: the conditions, the action and its target."""

    rule_id: str
    variant: str
    conditions: tuple[model.Condition, ...]
    action: str      # RejectFragment | DropField | PreferReading
    target: Optional[FieldSpec] = None   # the field DropField/PreferReading acts on
    prefer: Optional[type] = None        # the record class PreferReading wants


_ACTIONS = {"RejectFragment", "DropField", "PreferReading"}
_PREFERABLE = {"Person": model.Person, "Organization": model.Organization}


def compile_kb(source: str) -> list[CommonsenseRule]:
    rules = []
    for lineno, columns in rows(source):
        if len(columns) != 5:
            raise RuleError(f"kb:{lineno}", f"expected 5 columns, got {len(columns)}")
        rule_id, variant, when, action, target = (c.strip() for c in columns)
        if variant not in model.EVENT_TYPES:
            raise RuleError(rule_id, f"unknown event type {variant!r}")
        if action not in _ACTIONS:
            raise RuleError(rule_id, f"unknown action {action!r}")
        cls = model.EVENT_TYPES[variant]
        try:
            conditions = model.read_conditions(cls, when)
        except ValueError as exc:
            raise RuleError(rule_id, str(exc)) from None
        target_spec = prefer = None
        if action == "DropField":
            target_spec = model.spec_by_element(cls, target)
            if target_spec is None:
                raise RuleError(rule_id, f"DropField target {target!r} is not a field")
        if action == "PreferReading":
            if ":" not in target:
                raise RuleError(rule_id, "PreferReading target must be Field:Kind")
            field_name, kind_name = target.split(":", 1)
            target_spec = model.spec_by_element(cls, field_name)
            if target_spec is None:
                raise RuleError(rule_id, f"unknown field {field_name!r}")
            if target_spec.is_list or len(target_spec.records) < 2:
                raise RuleError(rule_id, f"PreferReading target {field_name!r} is not "
                                         f"a single person-or-organization field")
            prefer = _PREFERABLE.get(kind_name)
            if prefer is None:
                raise RuleError(rule_id, "PreferReading kind must be Person or Organization")
        rules.append(CommonsenseRule(rule_id, variant, conditions, action, target_spec, prefer))
    return rules


def load_kb(directory) -> list[CommonsenseRule]:
    directory = Path(directory)
    rules = []
    for path in sorted(directory.glob("*.tsv")):
        rules.extend(compile_kb(path.read_text(encoding="utf-8")))
    return rules


def apply_commonsense(events: Sequence, kb: Sequence[CommonsenseRule]):
    """Vet merged events against the knowledge base.

    Accepts plain events or EventDrafts (drafts carry the alternative
    readings PreferReading needs). Returns the surviving events and the
    diagnostics of every fired rule. Applying twice equals applying once.
    """
    drafts = [e if isinstance(e, EventDraft) else EventDraft(event=e)
              for e in events]
    diagnostics: list[Diagnostic] = []
    survivors: list[EventDraft] = []
    for index, draft in enumerate(drafts):
        cls = type(draft.event)
        name = model.ELEMENT_OF_EVENT.get(cls)
        rejected = False
        for rule in kb:
            if rule.variant != name:
                continue
            if not all(c.holds(draft.event, draft.alternatives) for c in rule.conditions):
                continue
            if rule.action == "RejectFragment":
                diagnostics.append(Diagnostic(
                    "commonsense", rule.rule_id, "RejectFragment",
                    f"{name}[{index + 1}] removed"))
                rejected = True
                break
            spec = rule.target
            if rule.action == "DropField":
                cleared = () if spec.is_list else None
                draft.event = replace(draft.event, **{spec.attr: cleared})
                draft.alternatives.pop(spec.attr, None)
                diagnostics.append(Diagnostic(
                    "commonsense", rule.rule_id, "DropField",
                    f"{name}[{index + 1}]/{spec.element} cleared"))
            elif rule.action == "PreferReading":
                alts = draft.alternatives.get(spec.attr, ())
                chosen = next((v for v in alts if isinstance(v, rule.prefer)), None)
                if chosen is not None:
                    draft.event = replace(draft.event, **{spec.attr: chosen})
                    diagnostics.append(Diagnostic(
                        "commonsense", rule.rule_id, "PreferReading",
                        f"{name}[{index + 1}]/{spec.element} rebound to "
                        f"{rule.prefer.__name__}"))
                draft.alternatives.pop(spec.attr, None)
        if not rejected:
            survivors.append(draft)
    return [d.event for d in survivors], diagnostics


# ---------------------------------------------------------------------------
# End-to-end extraction

@value_class(frozen=False)
class ExtractionResult:
    """What ``extract`` gives for one story: the document, diagnostics,
    parses and fragments."""

    document: NewsForm
    diagnostics: list[Diagnostic]
    parses: list[SentenceParse]
    fragments: list[Fragment]


def extract(text: str, lexicons: LexiconSet, rules: Sequence[ExtractionRule],
            kb: Sequence[CommonsenseRule]) -> ExtractionResult:
    """Convert one story into a document: split, tag, parse entities,
    resolve references, match patterns, merge, vet, validate. Noun groups
    are chunked only for the ``--debug`` dump (``pipeline.dump_parses``)."""
    parses = analyze(text, lexicons)
    bind_failures: list[Diagnostic] = []
    fragments = apply_patterns(parses, rules, bind_failures)
    drafts, warnings = merge_fragments(fragments)
    events, diagnostics = apply_commonsense(drafts, kb)
    diagnostics = bind_failures + warnings + diagnostics
    kept = []
    for event in events:
        report = model.validate(NewsForm(events=(event,)))
        if report.ok:
            kept.append(event)
        else:
            first = report.errors[0]
            diagnostics.append(Diagnostic(
                "validate", None, "dropped",
                f"{first.path}: {first.message}"))
    document = NewsForm(events=tuple(kept))
    return ExtractionResult(document=document, diagnostics=diagnostics,
                            parses=parses, fragments=fragments)
