"""Every value class of the package gets its methods from
``model.value_class``, and they behave as the ones ``dataclass`` generates:
the repr of the field list, the hash and equality of the compared fields'
tuple, the frozen guards and dataclass's own helpers."""

import dataclasses
import importlib
import pickle
import pkgutil
import re
from collections import defaultdict
from dataclasses import FrozenInstanceError
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

import newsforms
from newsforms import corpus, lexicons, model, rules
from newsforms.lexicons import EntryKind, LexiconEntry, LexiconSet
from newsforms.model import Head, Measure, Money, NewsForm
from newsforms.pipeline import coref, types
from newsforms.pipeline.chunk import chunk_noun_groups
from newsforms.vocab import Sex

from conftest import INTRO_TEXT, JOSPIN_TEXT, STORY_TEXTS, DocGenerator, fixture_documents

# every module of the package, so that a dataclass added to any of them is
# checked
_MODULES = [importlib.import_module(info.name) for info in
            pkgutil.walk_packages(newsforms.__path__, f"{newsforms.__name__}.")]

VALUE_CLASSES = sorted(
    (value for module in _MODULES for value in vars(module).values()
     if isinstance(value, type) and dataclasses.is_dataclass(value)
     and value.__module__ == module.__name__),
    key=lambda cls: (cls.__module__, cls.__qualname__))

# the record classes DocGenerator builds; instances of the others come from
# running the program
_GENERATED = (*model.CHILD_SPECS, NewsForm, Measure)

# classes whose instances hold functions (a FieldSpec's checks), which pickle
# does not take
_UNPICKLED = {model.FieldSpec, model.Condition, rules.Template, rules.ExtractionRule,
              rules.CommonsenseRule, corpus.Predicate, corpus.QueryExpr}


def _pools(lexicon_set, extraction_rules, kb) -> dict[type, list]:
    """Instances of every class DocGenerator does not build."""
    pools = defaultdict(list)

    def add(*values):
        for value in values:
            pools[type(value)].append(value)

    add(*(spec for specs in model.CHILD_SPECS.values() for spec in specs))
    invalid = NewsForm(events=(model.Trip(visitor_count=-1), model.Succession()))
    report = model.validate(invalid)
    add(report, model.validate(NewsForm()), *report.errors)
    add(*model.read_conditions(model.InjuryFatality,
                               "KilledCount > 10 & Cause = Earthquake & Source ambiguous"))
    add(*(condition for rule in kb for condition in rule.conditions), *kb)

    def atoms(values):   # the Slots; the other atoms are str, tuple and int
        for atom in values:
            if isinstance(atom, tuple):
                atoms(atom)
            elif isinstance(atom, rules.Slot):
                add(atom)

    def templates(template):
        add(template)
        for _, part in template.parts:
            if isinstance(part, rules.Template):
                templates(part)
            elif isinstance(part, rules.VarRef):
                add(part)

    for rule in extraction_rules:
        add(rule)
        atoms(rule.atoms)
        templates(rule.template)
    for text in (INTRO_TEXT, JOSPIN_TEXT, *STORY_TEXTS):
        result = rules.extract(text, lexicon_set, extraction_rules, kb)
        drafts, _ = rules.merge_fragments(result.fragments)
        add(result, *result.diagnostics, *result.fragments, *drafts)
        add(*(group for parse in result.parses for group in chunk_noun_groups(parse.tokens)))
    add(rules.Diagnostic("patterns", None, "x", "detail"))

    entry = LexiconEntry("Acme", EntryKind.ORG_NAME, "Acme Corp")
    add(LexiconSet(), LexiconSet(index={"acme": [("Acme", entry)]}, prefixes={"acme"}),
        LexiconSet(index={"acme": [(None, entry)]}, prefixes={"acme"}, readings={1: 2}))
    add(coref._Entity("e1", types.ReadingKind.PERSON, 0),
        coref._Entity("e2", types.ReadingKind.PERSON, 1, Sex.FEMALE, model.Person(given="Ann")))

    docs = [corpus.IndexedDoc(f"d{n}", f"{name}.xml", doc)
            for n, (name, doc) in enumerate(fixture_documents().items())]
    index = corpus.CorpusIndex(docs, ["skipped\tx.xml\tbroken"])
    add(*docs, index, corpus.CorpusIndex())
    for text in ("InjuryFatality", "Deal sort Deal.DealValue desc",
                 "InjuryFatality.KilledCount > 100 since 19990101T000000Z",
                 "NewProduct.Item contains Walkman", "Deal sort Deal.Stake"):
        query = corpus.parse_query(text)
        add(query, *query.predicates, *corpus.evaluate_query(index, query),
            corpus.geo_distribution(index, query))
    for bucket in corpus.Bucket:
        add(corpus.stats(index, "InjuryFatality", bucket), corpus.stats(index, "Trip", bucket))
    return pools


@pytest.fixture(scope="module")
def pools(lexicons, rules, kb):
    return _pools(lexicons, rules, kb)


def _instance(draw, cls, pools):
    if cls in _GENERATED:
        generator = DocGenerator(draw(st.integers(0, 2 ** 32 - 1)))
        if cls is NewsForm:
            return generator.document()
        if cls is Measure:
            return generator.measure()
        if cls is Money:
            return generator.money()
        return generator.record(cls, draw(st.sampled_from((0.0, 0.3, 0.7, 1.0))))
    return draw(st.sampled_from(pools[cls]))


def _compared(instance) -> tuple:
    return tuple(getattr(instance, f.name) for f in dataclasses.fields(instance) if f.compare)


def _reference_repr(instance) -> str:
    shown = ", ".join(f"{f.name}={getattr(instance, f.name)!r}"
                      for f in dataclasses.fields(instance) if f.repr)
    return f"{type(instance).__qualname__}({shown})"


def _init_values(instance) -> dict:
    return {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance) if f.init}


def test_every_value_class_gets_its_methods_from_the_one_helper(pools):
    assert len(VALUE_CLASSES) == 47
    assert set(VALUE_CLASSES) == set(_GENERATED) | set(pools)
    for cls in VALUE_CLASSES:
        params = cls.__dataclass_params__
        assert (params.init, params.repr, params.eq, params.frozen) == (False,) * 4, cls
        for name in ("__init__", "__repr__", "__eq__"):
            assert cls.__dict__[name].__qualname__ == f"{cls.__qualname__}.{name}"
        for name in ("__init__", "__eq__"):   # __repr__ is wrapped by reprlib
            assert cls.__dict__[name].__code__.co_filename == model.__file__, (cls, name)


def test_no_value_class_has_the_docstring_dataclass_makes_up():
    """``dataclass`` gives a class without a docstring ``Name(...)``, made
    from ``inspect.signature`` of the class at every import."""
    for cls in VALUE_CLASSES:
        assert not re.fullmatch(rf"{cls.__name__}(\(.*\))?", cls.__doc__ or cls.__name__,
                                re.DOTALL), cls


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__qualname__)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_value_class_methods_match_the_field_list_reference(cls, data, pools):
    one = _instance(data.draw, cls, pools)
    other = _instance(data.draw, cls, pools)
    assert type(one) is cls
    assert repr(one) == _reference_repr(one)
    # equality is exactly the same class with equal compared fields
    assert (one == other) is (_compared(one) == _compared(other))
    assert one.__eq__(object()) is NotImplemented
    assert one.__eq__(next(p for c, p in pools.items() if c is not cls)[0]) is NotImplemented
    rebuilt = cls(**_init_values(one))
    assert rebuilt == one and one == rebuilt and repr(rebuilt) == repr(one)
    assert rebuilt.__dict__.keys() >= {f.name for f in dataclasses.fields(cls) if f.init}
    frozen = "__setattr__" in cls.__dict__
    if frozen:
        try:
            expected = hash(_compared(one))
        except TypeError:   # a dict field: a rule's slots, a fragment's bindings
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(one)
        else:
            assert hash(one) == expected == hash(rebuilt)
        for name in (dataclasses.fields(cls)[0].name, "not_a_field"):
            with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
                setattr(one, name, None)
            with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
                delattr(one, name)
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(one)
        setattr(rebuilt, dataclasses.fields(cls)[0].name, None)
    # dataclass's helpers read the field list the decorator gathered
    assert dataclasses.replace(one) == one
    assert [f.name for f in dataclasses.fields(one)] == list(cls.__annotations__)
    plain = dataclasses.asdict(one)
    assert list(plain) == [f.name for f in dataclasses.fields(one)]
    if cls not in _UNPICKLED:
        thawed = pickle.loads(pickle.dumps(one, pickle.HIGHEST_PROTOCOL))
        assert thawed == one and repr(thawed) == repr(one)
    if cls in model.CHILD_SPECS:   # a record the codec builds without __init__
        read = model.build_record(cls, {f.name: getattr(one, f.name)
                                        for f in dataclasses.fields(cls)
                                        if getattr(one, f.name) != f.default})
        assert read == one and one == read
        assert hash(read) == hash(one) and repr(read) == repr(one)


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda cls: cls.__qualname__)
def test_value_class_init_rejects_what_the_generated_one_rejects(cls, pools):
    generator = DocGenerator(5)
    one = generator.record(cls, 1.0) if cls in model.CHILD_SPECS else \
        generator.document() if cls is NewsForm else \
        generator.measure() if cls is Measure else pools[cls][-1]
    values = _init_values(one)
    names = list(values)
    with pytest.raises(TypeError, match="unexpected keyword argument 'not_a_field'"):
        cls(**values, not_a_field=1)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values.values(), None)
    if names:
        with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
            cls(values[names[0]], **values)
    assert cls(*values.values()) == one
    required = [f.name for f in dataclasses.fields(cls) if f.init
                and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    for name in required:
        with pytest.raises(TypeError, match=f"missing required arguments: '{name}'"):
            cls(**{key: value for key, value in values.items() if key != name})
    if not required:
        empty = cls()
        assert all(getattr(empty, f.name) == (f.default if f.default_factory is dataclasses.MISSING
                                              else f.default_factory())
                   for f in dataclasses.fields(cls) if f.init)


def test_positional_money_and_measure():
    assert Money(Decimal("2.50"), "USD") == Money(amount=Decimal("2.50"), currency="USD")
    assert Money(5, "USD").amount == Decimal(5)
    measure = Measure(Decimal("75"), "mph")
    assert (measure.value, measure.unit) == (Decimal("75"), "mph")
    assert model.Finding("a", "b", "c") == model.Finding(path="a", code="b", message="c")


def test_field_options_are_honoured():
    # default_factory: a fresh value per instance
    assert NewsForm().head == Head() and NewsForm().head is not NewsForm().head
    first, second = LexiconSet(), LexiconSet()
    assert first.index is not second.index and first.prefixes is not second.prefixes
    # an instance holds the fields it was given; a plain default stays on
    # the class, as in a record the codec builds
    person = model.Person(given="Ann")
    assert vars(person) == {"given": "Ann"} and person.family is None
    assert vars(NewsForm()) == {"head": Head()}
    # init=False: no argument, computed by __post_init__
    spec = model.specs_for(model.InjuryFatality)[5]
    with pytest.raises(TypeError, match="unexpected keyword argument 'is_list'"):
        model.FieldSpec(element="X", attr="x", kind=model.FieldKind.TEXT, is_list=False)
    assert spec.is_list and spec.type_check is None and spec.value_check is None
    # repr=False and compare=False
    assert "type_check" not in repr(spec) and "readings" not in repr(first)
    first.readings["key"] = "memo"
    assert first == second
    assert dataclasses.replace(spec) == spec


def test_post_init_normalizes_as_before():
    event = model.InjuryFatality(cause="Earthquake", killed=[model.Person(given="Ann")])
    assert event.cause is model.Cause.EARTHQUAKE and isinstance(event.killed, tuple)
    assert NewsForm(events=[event]).events == (event,)
    with pytest.raises(TypeError, match="float"):
        Money(1.5, "USD")
