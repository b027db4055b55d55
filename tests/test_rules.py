"""Rule compilation, pattern application, merging, and commonsense checks."""

import itertools
from decimal import Decimal
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from newsforms import model
from newsforms.model import (
    Competition,
    Deal,
    Earnings,
    EconomicRelease,
    InjuryFatality,
    LegalEvent,
    Location,
    Money,
    Organization,
    Person,
    Weather,
)
from newsforms.pipeline import analyze
from newsforms.pipeline.types import (
    EntityMention,
    EntityReading,
    Pos,
    ReadingKind,
    SentenceParse,
    Token,
)
from newsforms.rules import (
    EventDraft,
    Fragment,
    RuleError,
    _instantiate,
    _items_for,
    _match_at,
    _parse_pattern,
    apply_commonsense,
    apply_patterns,
    compile_kb,
    compile_rules,
    extract,
    merge_fragments,
)
from newsforms.vocab import Cause, FedAction, InterestRateName, Judgment
from newsforms.xmlcodec import parse_newsform, serialize_newsform

from conftest import INTRO_TEXT, schema_paths

INJURED_RULE = ("?Person was injured => "
              "<InjuryFatality><Injured>?Person</Injured></InjuryFatality>")


# ---- compilation -------------------------------------------------------------

def test_injured_rule_compiles():
    rules = compile_rules(INJURED_RULE)
    assert len(rules) == 1
    rule = rules[0]
    assert rule.priority == 2  # "was", "injured"
    assert rule.slots == {"Person": ReadingKind.PERSON}
    assert rule.literals == {"was", "injured"}
    assert rule.template.cls is InjuryFatality


def test_empty_source_compiles_to_no_rules():
    assert compile_rules("") == []
    assert compile_rules("# only a comment\n\n") == []


def test_unknown_template_element_is_a_compile_error():
    bad = ("?Person was hurt => "
           "<InjuryFatality><Harmed>?Person</Harmed></InjuryFatality>")
    with pytest.raises(RuleError) as info:
        compile_rules(bad)
    assert "Harmed" in str(info.value)
    assert info.value.rule_id == "r001"
    nested = ("?Location:l hit => <Weather><AtLocation><Country>?l</Country>"
              "<Planet>Mars</Planet></AtLocation></Weather>")
    with pytest.raises(RuleError) as info:
        compile_rules(nested)
    assert str(info.value) == "r001: <Planet> is not a schema element of <AtLocation>"


def test_unbound_template_variable_is_a_compile_error():
    bad = "nothing here => <InjuryFatality><Injured>?ghost</Injured></InjuryFatality>"
    with pytest.raises(RuleError) as info:
        compile_rules(bad)
    assert "?ghost" in str(info.value)


def test_unknown_slot_kind_is_a_compile_error():
    bad = "?Martian landed => <InjuryFatality><CauseEvent>?Martian</CauseEvent></InjuryFatality>"
    with pytest.raises(RuleError) as info:
        compile_rules(bad)
    assert "Martian" in str(info.value)


def test_kind_incompatible_with_element_is_a_compile_error():
    bad = "?Person fell => <InjuryFatality><KilledCount>?Person</KilledCount></InjuryFatality>"
    with pytest.raises(RuleError):
        compile_rules(bad)


def test_record_field_takes_the_slot_kinds_of_its_record_classes():
    rule = "?{0} fell => <{1}><{2}>?{0}</{2}></{1}>"
    for slot, event, element in (("Person", "Succession", "Employer"),
                                 ("Organization", "Succession", "Employer"),
                                 ("Person", "InjuryFatality", "Killed"),
                                 ("Location", "Weather", "AtLocation"),
                                 ("Money", "Deal", "DealValue")):
        compile_rules(rule.format(slot, event, element))
    for slot, event, element in (("Money", "Succession", "Employer"),
                                 ("Location", "InjuryFatality", "Killed"),
                                 ("Person", "Weather", "AtLocation"),
                                 ("Organization", "Deal", "DealValue")):
        with pytest.raises(RuleError):
            compile_rules(rule.format(slot, event, element))


def test_bad_constant_is_a_compile_error():
    bad = "boom => <InjuryFatality><Cause>Sharknado</Cause></InjuryFatality>"
    with pytest.raises(RuleError):
        compile_rules(bad)
    # constant records are checked like document fields
    for template, path in (
            ("<InjuryFatality><AtLocation><Country>ZZZ</Country></AtLocation></InjuryFatality>",
             "AtLocation/Country"),
            ("<Deal><DealValue><Amount>5</Amount><Currency>XXQ</Currency></DealValue></Deal>",
             "DealValue/Currency")):
        with pytest.raises(RuleError) as info:
            compile_rules(f"boom => {template}")
        assert str(info.value).startswith(f"r001: bad constant for <{path}>: not a known")
    compile_rules("boom => <Deal><DealValue><Amount>5</Amount>"
                  "<Currency>USD</Currency></DealValue></Deal>")


_KILLED = "<InjuryFatality><KilledCount>1</KilledCount></InjuryFatality>"


@pytest.mark.parametrize("rule, message", [
    (f"a [ b [ c ] ] => {_KILLED}", "optional groups do not nest"),
    (f"a ] => {_KILLED}", "unbalanced ']'"),
    (f"a [ ] => {_KILLED}", "empty optional group"),
    (f"[ was injured => {_KILLED}", "unbalanced '['"),
    (f"?Person:9x died => {_KILLED}", "bad slot syntax '?Person:9x'"),
    (f"?Person ?Person died => {_KILLED}", "duplicate slot variable ?Person"),
    (f"a *x b => {_KILLED}", "bad skip syntax '*x'"),
    (f"=> {_KILLED}", "empty pattern"),
    ("quake", "missing '=>' between pattern and template"),
    ("quake => <InjuryFatality><KilledCount><Amount>1</Amount></KilledCount></InjuryFatality>",
     "<KilledCount> must hold a value, not elements"),
    ("quake => <InjuryFatality><KilledCount>many</KilledCount></InjuryFatality>",
     "bad constant for <KilledCount>: KilledCount: not an integer: 'many'"),
    ("quake => <InjuryFatality><KilledCount>1</InjuryFatality>",
     "template is not well-formed XML: mismatched tag: line 1, column 32"),
    ("quake => <Head><DatelineTime>19990125T181917Z</DatelineTime></Head>",
     "<Head> is not an event element"),
    ("quake => <InjuryFatality> </InjuryFatality>", "template sets no fields"),
    ("deal worth ?Number:n closed => <Deal><DealValue><Amount>?n</Amount></DealValue></Deal>",
     "<DealValue> needs <Currency>, a constant or a slot"),
    ("deal in ?Money:m closed => <Deal><DealValue><Currency>?m</Currency></DealValue></Deal>",
     "<DealValue> needs <Amount>, a constant or a slot"),
])
def test_rule_compile_errors_name_the_rule(rule, message):
    # a good rule first: the error names the second
    with pytest.raises(RuleError) as info:
        compile_rules(f"{INJURED_RULE}\n\n{rule}\n")
    assert (info.value.rule_id, str(info.value)) == ("r002", f"r002: {message}")


@pytest.mark.parametrize("row, message", [
    ("k\tLegalEvent\t*\tDropField\tVerdict", "DropField target 'Verdict' is not a field"),
    ("k\tWeather\t*\tPreferReading\tIssuer", "PreferReading target must be Field:Kind"),
    ("k\tWeather\t*\tPreferReading\tBoss:Person", "unknown field 'Boss'"),
    ("k\tWeather\t*\tPreferReading\tIssuer:Location",
     "PreferReading kind must be Person or Organization"),
])
def test_kb_target_errors_name_the_row(row, message):
    with pytest.raises(RuleError) as info:
        compile_kb(f"ok\tLegalEvent\t*\tRejectFragment\t-\n{row}\n")
    assert (info.value.rule_id, str(info.value)) == ("k", f"k: {message}")


def test_priority_counts_literals_file_order_breaks_ties():
    source = (
        "alpha beta ?Number:n => <Vote><InFavor>?n</InFavor></Vote>\n\n"
        "gamma ?Number:n => <Vote><Against>?n</Against></Vote>\n\n"
        "delta echo ?Number:n => <Vote><InFavor>?n</InFavor></Vote>\n"
    )
    rules = compile_rules(source)
    assert [r.priority for r in rules] == [2, 1, 2]
    ordered = sorted(rules, key=lambda r: (-r.priority, r.order))
    assert [r.rule_id for r in ordered] == ["r001", "r003", "r002"]


def test_rules_may_span_lines_within_a_group():
    source = ("?Person was injured =>\n"
              "  <InjuryFatality><Injured>?Person</Injured></InjuryFatality>\n")
    assert len(compile_rules(source)) == 1


# ---- application ---------------------------------------------------------------

def test_injured_rule_disambiguates_al_khartum(lexicons):
    rules = compile_rules(INJURED_RULE)
    parses = analyze("Al Khartum was injured.", lexicons)
    fragments = apply_patterns(parses, rules, [])
    assert len(fragments) == 1
    event = fragments[0].event
    assert isinstance(event, InjuryFatality)
    assert event.injured == (Person(given="Al", family="Khartum", sex="Male"),)
    # the location reading was discarded by slot-kind filtering
    assert event.at_location is None


def test_no_match_yields_no_fragments(lexicons):
    rules = compile_rules(INJURED_RULE)
    parses = analyze("The sky is blue.", lexicons)
    assert apply_patterns(parses, rules, []) == []


def test_intro_paragraph_produces_expected_fragments(lexicons, rules):
    parses = analyze(INTRO_TEXT, lexicons)
    fragments = apply_patterns(parses, rules, [])
    (event,), _ = merge(fragments)
    assert event.cause is Cause.EARTHQUAKE
    assert event.killed_count == 143
    assert event.injured_count == 900
    assert event.at_location.country == "COL"
    assert event.source == Person(function="Civil Defense Official")


def test_optional_atoms_and_skips(lexicons):
    rules = compile_rules(
        "killing [at least] ?Number:n people => "
        "<InjuryFatality><KilledCount>?n</KilledCount></InjuryFatality>")
    with_opt = analyze("Floods came, killing at least 40 people.", lexicons)
    without = analyze("Floods came, killing 40 people.", lexicons)
    assert apply_patterns(with_opt, rules, [])[0].event.killed_count == 40
    assert apply_patterns(without, rules, [])[0].event.killed_count == 40


# ---- the matcher against a reference ----------------------------------------
#
# A pattern is drawn as ("lit", word), ("slot", kind), ("skip", n) and
# ("opt", inner atoms) tuples, written out as rule source for the parser; the
# reference reads the drawn tuples, never the parser's atoms.

_MATCH_KINDS = (ReadingKind.NUMBER, ReadingKind.PERSON)
_INNER_ATOM = st.one_of(st.tuples(st.just("lit"), st.sampled_from(("a", "B", "c"))),
                        st.tuples(st.just("slot"), st.sampled_from(_MATCH_KINDS)),
                        st.tuples(st.just("skip"), st.integers(0, 2)))
_PATTERN = st.lists(st.one_of(_INNER_ATOM, st.tuples(st.just("opt"),
                                                     st.lists(_INNER_ATOM, min_size=1, max_size=2))),
                    min_size=1, max_size=4)
_ITEM = st.one_of(st.sampled_from(("a", "b", "c")),
                  st.lists(st.sampled_from(_MATCH_KINDS), max_size=2))


def _source(pattern, slots=None):
    """The rule source of a drawn pattern; slot variables numbered in order."""
    slots = itertools.count() if slots is None else slots
    words = []
    for atom in pattern:
        if atom[0] == "lit":
            words.append(atom[1])
        elif atom[0] == "slot":
            words.append(f"?{atom[1].value}:v{next(slots)}")
        elif atom[0] == "skip":
            words.append(f"*{atom[1]}")
        else:
            words.append(f"[ {_source(atom[1], slots)} ]")
    return " ".join(words)


def _reference_match(pattern, items, pos):
    """The first expansion of ``pattern`` that matches ``items`` from
    ``pos``, as (end, bindings): each optional group taken, then not taken,
    and each ``*n`` as 0 to n wildcards, in ``itertools.product`` order."""
    slots = itertools.count()

    def expansions(atom):
        if atom[0] == "opt":
            taken = itertools.product(*map(expansions, atom[1]))
            return [sum(parts, ()) for parts in taken] + [()]
        if atom[0] == "skip":
            return [(("any",),) * n for n in range(atom[1] + 1)]
        if atom[0] == "slot":
            return [(("slot", atom[1], f"v{next(slots)}"),)]
        return [(("lit", atom[1].lower()),)]

    for expansion in itertools.product(*map(expansions, pattern)):
        end, bindings = pos, {}
        for atom in (atom for part in expansion for atom in part):
            if end >= len(items):
                break
            item = items[end]
            if atom[0] == "lit" and item != atom[1]:
                break
            if atom[0] == "slot":
                if isinstance(item, str) or all(r.kind is not atom[1] for r in item.readings):
                    break
                bindings[atom[2]] = item
            end += 1
        else:
            return end, bindings
    return None


@settings(max_examples=500, deadline=None)
@given(_PATTERN, st.lists(_ITEM, max_size=8), st.data())
def test_the_matcher_takes_the_first_expansion_that_matches(pattern, drawn, data):
    atoms, _, _, _ = _parse_pattern("r001", _source(pattern))
    # a mention per list of kinds, each told apart by its position
    items = [item if isinstance(item, str) else
             EntityMention(i, i, tuple(EntityReading(kind, None) for kind in item))
             for i, item in enumerate(drawn)]
    pos = data.draw(st.integers(0, len(items)))
    assert _match_at(atoms, items, pos) == _reference_match(pattern, items, pos)


# ---- literal front filter ----------------------------------------------------

def oracle_apply_patterns(parses, rules):
    """apply_patterns without the literal filter: every rule at every item."""
    ordered = sorted(rules, key=lambda r: (-r.priority, r.order))
    fragments = []
    for sentence_index, parse in enumerate(parses):
        items = _items_for(parse)
        sentence_frags = []
        for rule in ordered:
            pos = 0
            while pos < len(items):
                result = _match_at(rule.atoms, items, pos)
                if result is None:
                    pos += 1
                    continue
                end, bindings = result
                fragment = _instantiate(rule, bindings, parse, sentence_index, [])
                if fragment is not None:
                    sentence_frags.append((pos, fragment))
                pos = max(end, pos + 1)
        sentence_frags.sort(key=lambda pair: pair[0])
        fragments.extend(frag for _, frag in sentence_frags)
    return fragments


def test_literals_only_inside_optional_groups_do_not_gate_a_rule(lexicons):
    (rule,) = compile_rules(
        "[at least] ?Number:n [people] => "
        "<InjuryFatality><KilledCount>?n</KilledCount></InjuryFatality>")
    assert rule.literals == frozenset()
    parses = analyze("They counted 40.", lexicons)
    (fragment,) = apply_patterns(parses, [rule], [])
    assert fragment.event.killed_count == 40


@pytest.mark.parametrize("text, fires", [
    ("An earthquake STRUCK western Colombia on Monday.", True),
    # the capitalised-word fallback takes EARTHQUAKE as a name, so the
    # literal is no free token here, with or without the filter
    ("EARTHQUAKE Struck western Colombia.", False),
])
def test_upper_case_text_against_lower_case_literals(lexicons, rules, text, fires):
    parses = analyze(text, lexicons)
    fragments = apply_patterns(parses, rules, [])
    assert fragments == oracle_apply_patterns(parses, rules)
    assert any(f.event.cause is Cause.EARTHQUAKE for f in fragments) is fires


def test_literal_covered_by_a_mention_never_matches(lexicons):
    rules = compile_rules(
        "York ?Number:n => <InjuryFatality><KilledCount>?n</KilledCount></InjuryFatality>")
    parses = analyze("Officials in New York 12 said so.", lexicons)
    # "York" lies inside a mention; the number that would bind follows it
    assert [parses[0].mention_text(m) for m in parses[0].mentions][-2:] == ["New York", "12"]
    assert apply_patterns(parses, rules, []) == oracle_apply_patterns(parses, rules) == []


def _literal_words(atoms):
    for atom in atoms:
        if isinstance(atom, str):
            yield atom
        elif isinstance(atom, tuple):
            yield from _literal_words(atom)


@lru_cache(maxsize=1)
def _lexicon_surfaces(lexicon_dir):
    return sorted({line.split("\t")[0]
                   for path in lexicon_dir.glob("*.tsv")
                   for line in path.read_text(encoding="utf-8").splitlines()
                   if line and not line.startswith("#")})


_FILLER = ["the", "a", "and", "of", "in", "on", "12", "143", "$5 million", "40 percent",
           "Monday", "Mr.", "she", "he", ",", "said", "at least", "more than"]
_CASES = [str, str.lower, str.upper, str.title]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_filtered_patterns_equal_the_unfiltered_oracle(data_root, lexicons, rules, data):
    literals = sorted({word for rule in rules for word in _literal_words(rule.atoms)})
    word = st.one_of(st.sampled_from(literals),
                     st.sampled_from(_lexicon_surfaces(data_root / "lexicons")),
                     st.sampled_from(_FILLER))
    words = data.draw(st.lists(st.tuples(word, st.sampled_from(_CASES)), max_size=40))
    ends = data.draw(st.sampled_from([".", "", ". The", "! Later"]))
    text = " ".join(case(w) for w, case in words) + ends
    parses = analyze(text, lexicons)
    assert apply_patterns(parses, rules, []) == oracle_apply_patterns(parses, rules)


def _events(rule, text, lexicons):
    return [f.event for f in apply_patterns(analyze(text, lexicons), compile_rules(rule), [])]


NESTED_LOCATION = ("storm hit ?Location:l => <Weather><AtLocation><Country>?l</Country>"
                   "<Region>Coast</Region></AtLocation></Weather>")


def test_nested_location_template_mixes_a_slot_and_a_constant(lexicons):
    assert _events(NESTED_LOCATION, "A storm hit Chicago.", lexicons) == [
        Weather(at_location=Location(country="USA", region="Coast"))]


def test_nested_location_without_a_country_drops_the_fragment(lexicons):
    # Scotland reads as a region: "location has no country code"
    assert _events(NESTED_LOCATION, "A storm hit Scotland.", lexicons) == []


def test_nested_organization_template_takes_the_ticker(lexicons):
    rule = ("?Organization:o reported earnings => "
            "<Earnings><Company><Ticker>?o</Ticker></Company></Earnings>")
    assert _events(rule, "Bell Atlantic reported earnings.", lexicons) == [
        Earnings(company=Organization(ticker="BEL"))]


def test_nested_money_template_takes_a_number_amount(lexicons):
    rule = ("deal worth ?Number:n closed => <Deal><DealValue><Amount>?n</Amount>"
            "<Currency>EUR</Currency></DealValue></Deal>")
    assert _events(rule, "The deal worth 52.50 closed.", lexicons) == [
        Deal(deal_value=Money(Decimal("52.50"), "EUR"))]


def test_nested_state_and_currency_leaves_take_their_codes(lexicons):
    state = "storm hit ?Location:l => <Weather><AtLocation><State>?l</State></AtLocation></Weather>"
    assert _events(state, "A storm hit Chicago.", lexicons) == [
        Weather(at_location=Location(state="IL"))]
    currency = ("earned ?Money:m => <Earnings><EPS><Amount>0.25</Amount>"
                "<Currency>?m</Currency></EPS></Earnings>")
    assert _events(currency, "Sony earned 52 dollars.", lexicons) == [
        Earnings(eps=Money(Decimal("0.25"), "USD"))]


def test_unmatched_optional_slot_inside_a_record(lexicons):
    with_constant = ("storm hit [ in ?Location:l ] today => <Weather><AtLocation>"
                     "<Country>?l</Country><Region>Coast</Region></AtLocation></Weather>")
    assert _events(with_constant, "A storm hit today.", lexicons) == [
        Weather(at_location=Location(region="Coast"))]
    slot_only = ("storm hit [ in ?Location:l ] today => <Weather><Meteor>Hurricane</Meteor>"
                 "<AtLocation><Country>?l</Country></AtLocation></Weather>")
    assert _events(slot_only, "A storm hit today.", lexicons) == [Weather(meteor="Hurricane")]


def _fill(rule, text, reading):
    """The event ``rule`` builds when its one slot binds a mention of the
    one-token sentence ``text`` that carries ``reading``; None if none."""
    rule, = compile_rules(rule)
    mention = EntityMention(0, 0, (reading,))
    parse = SentenceParse(0, len(text), (Token(text, 0, len(text), Pos.PROPN),), (mention,))
    fragment = _instantiate(rule, {var: mention for var in rule.slots}, parse, 0, [])
    return None if fragment is None else fragment.event


_CAUSE = "?{0} struck => <InjuryFatality><Cause>?{0}</Cause></InjuryFatality>"
_STATE = "?Location hit => <Weather><AtLocation><State>?Location</State></AtLocation></Weather>"
_TICKER = "?Organization sold => <Earnings><Company><Ticker>?Organization</Ticker></Company></Earnings>"


@pytest.mark.parametrize("rule, text, reading, event", [
    # an enum slot reads a string reading, else the mention's text
    (_CAUSE.format("Product"), "Quake", (ReadingKind.PRODUCT, "Earthquake"),
     InjuryFatality(cause=Cause.EARTHQUAKE)),
    (_CAUSE.format("Person"), "Earthquake",
     (ReadingKind.PERSON, Person(family="Earthquake")), InjuryFatality(cause=Cause.EARTHQUAKE)),
    (_CAUSE.format("Product"), "Earthquake", (ReadingKind.PRODUCT, "Sharknado"), None),
    (_CAUSE.format("Person"), "Sharknado",
     (ReadingKind.PERSON, Person(family="Sharknado")), None),
    # a code field binds only a record that has the code
    (_STATE, "Colombia", (ReadingKind.LOCATION, Location(country="COL")), None),
    (_TICKER, "Acme", (ReadingKind.ORGANIZATION, Organization(full_name="Acme")), None),
    # a text field takes a string reading as it is
    ("?Product landed => <InjuryFatality><LandedPlane>?Product</LandedPlane></InjuryFatality>",
     "jumbo", (ReadingKind.PRODUCT, "Boeing 747"), InjuryFatality(landed_plane="Boeing 747")),
])
def test_slot_conversions(rule, text, reading, event):
    assert _fill(rule, text, EntityReading(*reading)) == event


@pytest.mark.parametrize("rule, reading, reason", [
    ("?Number:n died => <InjuryFatality><KilledCount>?n</KilledCount></InjuryFatality>",
     (ReadingKind.NUMBER, Decimal("2.5")), "2.5 is not an integer count"),
    ("?Location visited => <Trip><ToLocation><Country>?Location</Country></ToLocation></Trip>",
     (ReadingKind.LOCATION, Location(city="Springfield")), "location has no country code"),
    (_STATE, (ReadingKind.LOCATION, Location(country="COL")), "location has no state code"),
    (_TICKER, (ReadingKind.ORGANIZATION, Organization(full_name="Acme")),
     "organization has no ticker"),
    (_CAUSE.format("Product"), (ReadingKind.PRODUCT, "Sharknado"),
     "'Sharknado' is not a Cause value"),
])
def test_a_slot_that_does_not_bind_leaves_a_bind_failed_diagnostic(rule, reading, reason):
    rule, = compile_rules(rule)
    mention = EntityMention(0, 0, (EntityReading(*reading),))
    parse = SentenceParse(0, 5, (Token("Thing", 0, 5, Pos.PROPN),), (mention,))
    diagnostics = []
    assert _instantiate(rule, {var: mention for var in rule.slots}, parse, 3, diagnostics) is None
    assert [d.line() for d in diagnostics] == [f"patterns\tr001\tbind-failed\tsentence=3: {reason}"]


def test_extract_reports_each_match_that_does_not_bind_before_the_other_diagnostics(
        lexicons, rules, kb):
    result = extract("An earthquake struck Colombia, killing 2.5 people. Officials said 4 "
                     "people died. Later officials said 5 people died.", lexicons, rules, kb)
    lines = [d.line() for d in result.diagnostics]
    assert lines[:2] == ["patterns\tr011\tbind-failed\tsentence=0: 2.5 is not an integer count",
                         "patterns\tr012\tbind-failed\tsentence=0: 2.5 is not an integer count"]
    assert lines[2].startswith("merge\t") and len(lines) == 3
    assert result.document.events[0].killed_count == 4


def test_a_non_integral_count_binds_nothing(lexicons):
    rule = "?Number:n people died => <InjuryFatality><KilledCount>?n</KilledCount></InjuryFatality>"
    assert _events(rule, "Officials said 2.5 people died.", lexicons) == []
    assert _events(rule, "Officials said 2 people died.", lexicons) == [
        InjuryFatality(killed_count=2)]


def test_a_template_whose_slots_all_go_unmatched_gives_no_fragment(lexicons):
    rule = ("storm hit [ in ?Location:l ] today => <Weather><AtLocation>"
            "<Country>?l</Country></AtLocation></Weather>")
    assert _events(rule, "A storm hit today.", lexicons) == []


def test_a_skip_that_runs_past_the_end_fails_the_match(lexicons):
    rule = "storm *3 ?Location:l => <Weather><AtLocation><Country>?l</Country></AtLocation></Weather>"
    assert _match_at(compile_rules(rule)[0].atoms, ["storm", "hit", "."], 0) is None
    assert _events(rule, "A storm hit.", lexicons) == []
    assert _events(rule, "A storm hit Colombia.", lexicons) == [
        Weather(at_location=Location(country="COL"))]


def test_repeated_list_child_keeps_every_item_in_template_order(lexicons):
    rule = ("?Organization:a and ?Organization:b began talks => "
            "<Negotiation><Party>?a</Party><Party>?b</Party></Negotiation>")
    event, = _events(rule, "Boeing and Airbus began talks on Monday.", lexicons)
    assert [party.full_name for party in event.parties] == ["Boeing", "Airbus"]


def test_repeated_single_valued_child_is_a_compile_error():
    with pytest.raises(RuleError) as info:
        compile_rules("quake => <InjuryFatality><Cause>Earthquake</Cause>"
                      "<Cause>Alert</Cause></InjuryFatality>")
    assert str(info.value) == "r001: <Cause> may appear at most once"


def test_same_rule_can_fire_twice_per_sentence(lexicons):
    rules = compile_rules(INJURED_RULE)
    parses = analyze("Lionel Jospin was injured and Jacques Chirac was injured.",
                     lexicons)
    fragments = apply_patterns(parses, rules, [])
    assert len(fragments) == 2


def test_slot_binding_records_resolved_ids(lexicons):
    rules = compile_rules(INJURED_RULE)
    parses = analyze("Al Khartum was injured.", lexicons)
    fragment = apply_patterns(parses, rules, [])[0]
    assert fragment.bindings["Person"].startswith("PERSON")
    assert fragment.sentence_index == 0


def test_rule_order_determinism_among_equal_priority(lexicons):
    # two equal-priority rules writing the same field: file order decides
    first = ("?Number:n people died => <InjuryFatality><KilledCount>?n</KilledCount></InjuryFatality>\n\n"
             "?Number:n people died => <InjuryFatality><InjuredCount>?n</InjuredCount></InjuryFatality>\n")
    swapped = ("?Number:n people died => <InjuryFatality><InjuredCount>?n</InjuredCount></InjuryFatality>\n\n"
               "?Number:n people died => <InjuryFatality><KilledCount>?n</KilledCount></InjuryFatality>\n")
    parses = analyze("Four people died.", lexicons)
    events_a, _ = merge(apply_patterns(parses, compile_rules(first), []))
    events_b, _ = merge(apply_patterns(parses, compile_rules(swapped), []))
    # both rules fire either way; merge keeps both fields; outputs equal
    assert events_a == events_b
    # a higher-priority rule beats both orders identically
    prioritized = first + "\nexactly four people died => <InjuryFatality><KilledCount>4</KilledCount></InjuryFatality>\n"
    events_c, _ = merge(apply_patterns(parses, compile_rules(prioritized), []))
    assert events_c[0].killed_count == 4


# ---- merging -------------------------------------------------------------------

def merge(fragments):
    """The events ``merge_fragments`` builds, and its warnings."""
    drafts, warnings = merge_fragments(fragments)
    return [draft.event for draft in drafts], warnings


def frag(event, sentence=0, rule_id="rT"):
    return Fragment(event=event, bindings={}, sentence_index=sentence,
                    rule_id=rule_id, alternatives={})


def test_disjoint_fields_union():
    events, warnings = merge([
        frag(InjuryFatality(cause="Earthquake"), 0),
        frag(InjuryFatality(killed_count=143), 1),
    ])
    assert events == [InjuryFatality(cause="Earthquake", killed_count=143)]
    assert warnings == []


def test_conflicting_values_keep_earliest_and_warn():
    events, warnings = merge([
        frag(InjuryFatality(killed_count=143), 0),
        frag(InjuryFatality(killed_count=150), 1),
    ])
    assert events == [InjuryFatality(killed_count=143)]
    assert len(warnings) == 1
    assert "143" in warnings[0].detail


def test_merge_conflicts_print_measures_and_money_as_document_tokens():
    _, warnings = merge([
        frag(Weather(wind_speed=model.Measure(Decimal("140"), "mph")), 0),
        frag(Weather(wind_speed=model.Measure(Decimal("150"), "mph")), 1),
        frag(Deal(deal_value=Money(Decimal("2.50"), "USD")), 0),
        frag(Deal(deal_value=Money(Decimal("3"), "USD")), 1),
    ])
    assert [w.detail for w in warnings] == [
        "Weather/WindSpeed: kept 140 mph from an earlier sentence, ignored 150 mph",
        "Deal/DealValue: kept USD:2.50 from an earlier sentence, ignored USD:3",
    ]


def test_a_later_fragment_filling_an_empty_field_brings_its_alternatives():
    sony = Organization(full_name="Sony")
    (draft,), _ = merge_fragments([
        frag(Weather(meteor="Hurricane"), 0),
        Fragment(event=Weather(issuer=sony), bindings={}, sentence_index=1, rule_id="rT",
                 alternatives={"issuer": (Person(family="Sony"),)}),
    ])
    assert draft.event == Weather(meteor="Hurricane", issuer=sony)
    assert draft.alternatives == {"issuer": (Person(family="Sony"),)}


def test_distinct_variants_never_merge():
    events, _ = merge([
        frag(InjuryFatality(cause="Fire")),
        frag(Weather(meteor="Hurricane")),
    ])
    assert len(events) == 2


def test_list_fields_append_unique():
    ann = Person(given="Ann")
    bo = Person(given="Bo")
    (event,), _ = merge([
        frag(InjuryFatality(injured=(ann,))),
        frag(InjuryFatality(injured=(bo,))),
        frag(InjuryFatality(injured=(ann,))),
    ])
    assert event.injured == (ann, bo)


# ---- commonsense ------------------------------------------------------------------

def test_innocent_defendant_loses_sentence(kb):
    event = LegalEvent(judgment="Innocent", sentence_type="Jail")
    events, diagnostics = apply_commonsense([event], kb)
    assert events == [LegalEvent(judgment=Judgment.INNOCENT)]
    assert len(diagnostics) == 1
    assert diagnostics[0].action == "DropField"


def test_wrong_sport_competition_is_rejected(kb):
    event = Competition(sport="Baseball",
                        team=Organization(full_name="Packers", sport="Football"))
    events, diagnostics = apply_commonsense([event], kb)
    assert events == []
    assert diagnostics[0].action == "RejectFragment"


def test_matching_sport_competition_survives(kb):
    event = Competition(sport="Baseball",
                        team=Organization(full_name="Yankees", sport="Baseball"))
    events, diagnostics = apply_commonsense([event], kb)
    assert events == [event]
    assert diagnostics == []


def test_valid_injury_event_passes_untouched(kb):
    event = InjuryFatality(cause="Earthquake", killed_count=143)
    events, diagnostics = apply_commonsense([event], kb)
    assert events == [event]
    assert diagnostics == []


def test_source_only_injury_report_is_rejected(kb):
    event = InjuryFatality(source=Person(function="Official"))
    events, diagnostics = apply_commonsense([event], kb)
    assert events == []


def test_contradictory_release_direction_is_dropped(kb):
    event = EconomicRelease(direction="Up", rate=Decimal("4.0"),
                            previous_rate=Decimal("4.5"))
    events, diagnostics = apply_commonsense([event], kb)
    assert events[0].direction is None
    consistent = EconomicRelease(direction="Up", rate=Decimal("4.5"),
                                 previous_rate=Decimal("4.0"))
    events, _ = apply_commonsense([consistent], kb)
    assert events[0].direction is not None


def test_kb_condition_compares_a_measure_by_its_document_token():
    kb = compile_kb("calm\tWeather\tWindSpeed=140 mph\tDropField\tWindSpeed\n")
    event = Weather(wind_speed=model.Measure(Decimal("140"), "mph"))
    events, diagnostics = apply_commonsense([event], kb)
    assert events == [Weather()]
    assert [d.action for d in diagnostics] == ["DropField"]
    other = Weather(wind_speed=model.Measure(Decimal("140"), "kph"))
    assert apply_commonsense([other], kb) == ([other], [])


def test_prefer_reading_rebinds_ambiguous_issuer(kb):
    org = Organization(full_name="National Weather Service")
    person = Person(family="Weathers")
    draft = EventDraft(event=Weather(meteor="Hurricane", issuer=person),
                       alternatives={"issuer": (org,)})
    events, diagnostics = apply_commonsense([draft], kb)
    assert events[0].issuer == org
    assert diagnostics[0].action == "PreferReading"


def test_commonsense_is_idempotent(kb):
    first, _ = apply_commonsense(
        [LegalEvent(judgment="Innocent", sentence_type="Jail"),
         InjuryFatality(cause="Fire")], kb)
    second, diagnostics = apply_commonsense(first, kb)
    assert first == second
    assert diagnostics == []


def test_kb_compile_errors():
    with pytest.raises(RuleError):
        compile_kb("x\tNotAnEvent\tJudgment=Innocent\tRejectFragment\t-\n")
    with pytest.raises(RuleError):
        compile_kb("x\tLegalEvent\tNoSuchField set\tRejectFragment\t-\n")
    with pytest.raises(RuleError):
        compile_kb("x\tLegalEvent\tJudgment=Innocent\tExplode\t-\n")


def _kb_accepts(variant, path):
    try:
        compile_kb(f"x\t{variant}\t{path} set\tRejectFragment\t-\n")
    except RuleError:
        return False
    return True


def test_kb_paths_end_at_but_do_not_pass_through_lists_or_either_fields():
    accepted = [(variant, path) for variant, cls in model.EVENT_TYPES.items()
                for path in schema_paths(cls) if _kb_accepts(variant, path)]
    assert len(accepted) == 379
    assert _kb_accepts("Competition", "Team.Sport")
    assert _kb_accepts("InjuryFatality", "Killed")
    assert _kb_accepts("InjuryFatality", "Source")
    assert not _kb_accepts("InjuryFatality", "Source.Family")
    assert not _kb_accepts("InjuryFatality", "Killed.Family")
    assert not _kb_accepts("InjuryFatality", "Nope")


def test_kb_right_hand_side_names_a_field_only_on_the_kb_path_language():
    by_path, = compile_kb("x\tCompetition\tSport!=Team.Sport\tRejectFragment\t-\n")
    assert by_path.conditions[0].value_specs is not None
    by_token, = compile_kb("x\tInjuryFatality\tCauseEvent=Source.Family"
                           "\tRejectFragment\t-\n")
    assert by_token.conditions[0].value == "Source.Family"
    events, _ = apply_commonsense([InjuryFatality(cause_event="Source.Family")],
                                  [by_token])
    assert events == []


@pytest.mark.parametrize("when, message", [
    ("Rate<=PreviousRate", "condition 'Rate<=PreviousRate' needs one operator between two sides"),
    ("Direction==Up", "condition 'Direction==Up' needs one operator between two sides"),
    ("Direction=", "condition 'Direction=' needs one operator between two sides"),
    ("=Up", "condition '=Up' needs one operator between two sides"),
    ("Rate<high", "'Rate<high' compares with 'high', neither a field nor a number"),
    ("Rate<1_0", "'Rate<1_0' compares with '1_0', neither a field nor a number"),
    ("Direction>0", "'Direction>0' orders a field that is not a number"),
    ("Rate<Direction", "'Rate<Direction' orders a field that is not a number"),
    ("Direction set empty", "bad condition 'Direction set empty'"),
    ("Direction ambiguous",
     "'Direction ambiguous': only a person-or-organization field of the event is ambiguous"),
])
def test_kb_rows_that_spell_no_condition_are_rule_errors(when, message):
    with pytest.raises(RuleError) as info:
        compile_kb(f"bad-row\tEconomicRelease\t{when}\tDropField\tDirection\n")
    assert str(info.value) == f"bad-row: {message}"


_NOT_A_SINGLE_EITHER = "is not a single person-or-organization field"
_NEVER_AMBIGUOUS = "only a person-or-organization field of the event is ambiguous"


@pytest.mark.parametrize("row, message", [
    # a list field's alternatives belong to one of its items, not to the list
    ("p\tNegotiation\tParty ambiguous\tPreferReading\tParty:Person",
     f"p: PreferReading target 'Party' {_NOT_A_SINGLE_EITHER}"),
    ("p\tWeather\t*\tPreferReading\tMeteor:Organization",
     f"p: PreferReading target 'Meteor' {_NOT_A_SINGLE_EITHER}"),
    ("p\tCompetition\tTeam ambiguous\tDropField\tTeam",
     f"p: 'Team ambiguous': {_NEVER_AMBIGUOUS}"),
    ("p\tInjuryFatality\tAtLocation.Country ambiguous\tRejectFragment\t-",
     f"p: 'AtLocation.Country ambiguous': {_NEVER_AMBIGUOUS}"),
])
def test_kb_rows_that_can_never_act_are_rule_errors(row, message):
    with pytest.raises(RuleError) as info:
        compile_kb(row + "\n")
    assert str(info.value) == message


def test_ambiguous_reads_any_person_or_organization_field():
    weather, = compile_kb("p\tWeather\tIssuer ambiguous\tPreferReading\tIssuer:Organization\n")
    assert weather.prefer is Organization
    negotiation, = compile_kb("p\tNegotiation\tParty ambiguous\tDropField\tParty\n")
    assert negotiation.conditions[0].op == "ambiguous"


def test_kb_rows_skip_blank_and_comment_lines_and_read_crlf():
    good = "x\tLegalEvent\tJudgment=Innocent\tRejectFragment\t-"
    source = f"# comment\r\n\r\n \t \r\n  # indented\r\n\t# tabbed\r\n{good}\r\n"
    rule, = compile_kb(source)
    assert (rule.rule_id, rule.target) == ("x", None)
    with pytest.raises(RuleError) as info:
        compile_kb(source + "y\tLegalEvent\tJudgment=Innocent\r\n")
    assert str(info.value) == "kb:7: expected 5 columns, got 3"
    with pytest.raises(RuleError) as info:
        compile_kb(source + good + "\t\r\n")   # a trailing tab opens a sixth column
    assert str(info.value) == "kb:7: expected 5 columns, got 6"


def test_kb_operands_are_read_when_the_table_loads():
    by_number, = compile_kb("x\tEconomicRelease\tRate>5E0 & Rate<.75E1\tDropField\tRate\n")
    assert [c.value for c in by_number.conditions] == [Decimal(5), Decimal("7.5")]
    always, = compile_kb("x\tEconomicRelease\t*\tDropField\tRate\n")
    assert always.conditions == ()
    event = EconomicRelease(rate=Decimal("6"))
    assert apply_commonsense([event], [by_number])[0] == [EconomicRelease()]
    assert apply_commonsense([EconomicRelease(rate=Decimal("5"))], [by_number])[1] == []
    assert apply_commonsense([event], [always])[0] == [EconomicRelease()]


def test_a_pronoun_slot_fills_from_its_antecedent(lexicons, rules, kb):
    text = "Lionel Jospin arrived in Paris on Monday. He was injured in a crash."
    event, = extract(text, lexicons, rules, kb).document.events
    assert event.injured == (Person(family="Jospin", given="Lionel", sex="Male"),)


@settings(max_examples=40, deadline=None)
@given(title=st.sampled_from(["", "Mr. ", "Mrs. ", "President "]),
       given_name=st.sampled_from(["", "Lionel ", "Mary "]),
       family=st.sampled_from(["Jospin", "Quonk"]),
       pronoun=st.sampled_from(["He", "She"]))
def test_a_resolved_person_slot_carries_its_antecedents_record(
        lexicons, rules, kb, title, given_name, family, pronoun):
    named = f"{title}{given_name}{family} arrived in Paris on Monday."
    result = extract(f"{named} {pronoun} was injured in a crash.", lexicons, rules, kb)
    antecedent = result.parses[0].mentions[0]
    slot = next(m for m in result.parses[1].mentions if m.pronoun)
    if slot.resolved_id != antecedent.resolved_id:
        return   # the pronoun disagrees in sex and resolves to no one
    record = analyze(named, lexicons)[0].mentions[0].readings[0].value
    event, = result.document.events
    person, = event.injured
    for spec in model.specs_for(Person):
        if getattr(record, spec.attr) is not None:
            assert getattr(person, spec.attr) == getattr(record, spec.attr)
    if record.sex is None:
        assert person.sex.value == ("Male" if pronoun == "He" else "Female")


# ---- end-to-end -----------------------------------------------------------------

def test_extract_intro_matches_worked_example(lexicons, rules, kb):
    result = extract(INTRO_TEXT, lexicons, rules, kb)
    assert len(result.document.events) == 1
    event = result.document.events[0]
    assert event.cause is Cause.EARTHQUAKE
    assert event.killed_count == 143
    assert event.injured_count == 900
    assert event.at_location.country == "COL"
    assert model.validate(result.document).ok


def test_extract_reads_an_abbreviation_with_its_period_once(lexicons, rules, kb):
    # "St." and "Dr." are one token each, so the city key "St. Louis" is
    # reached and the title stays with the name after it
    text = ("An earthquake struck St. Louis on Monday, killing 4 people. "
            "Dr. John Smith was injured.")
    result = extract(text, lexicons, rules, kb)
    assert serialize_newsform(result.document) == (
        "<NewsForm>\n"
        "  <Head/>\n"
        "  <InjuryFatality>\n"
        "    <Cause>Earthquake</Cause>\n"
        "    <Injured><Family>Smith</Family><Given>John</Given><Prefix>Dr.</Prefix>"
        "<Sex>Male</Sex></Injured>\n"
        "    <KilledCount>4</KilledCount>\n"
        "    <AtLocation>\n"
        "      <City>St. Louis</City>\n"
        "      <Country>USA</Country>\n"
        "      <Latitude>38.6</Latitude>\n"
        "      <Longitude>-90.2</Longitude>\n"
        "      <State>MO</State>\n"
        "    </AtLocation>\n"
        "  </InjuryFatality>\n"
        "</NewsForm>\n")


def test_extract_empty_text(lexicons, rules, kb):
    result = extract("", lexicons, rules, kb)
    assert result.document == model.NewsForm()


def test_extract_fed_watch_mock(lexicons, rules, kb):
    text = "The Federal Reserve raised its federal funds target to 5.25 percent."
    result = extract(text, lexicons, rules, kb)
    assert result.document.events == (model.FedWatch(
        fed_action=FedAction.RAISE,
        interest_rate=InterestRateName.FEDERAL_FUNDS_TARGET,
        rate=Decimal("5.25")),)


def test_extract_output_always_validates(lexicons, rules, kb):
    texts = [
        INTRO_TEXT,
        "The Federal Reserve raised its federal funds target to 5.25 percent.",
        "GTE agreed to acquire Bell Atlantic for $52 billion.",
        "Microsoft reported earnings of $2 billion. Analysts cheered.",
        "Hurricane Floyd struck North Carolina with winds of 140 mph.",
        "The Senate passed the bill by a vote of 57 to 43.",
        "Nothing eventful happened today.",
    ]
    for text in texts:
        result = extract(text, lexicons, rules, kb)
        assert model.validate(result.document).ok, text


def test_extract_at_least_maps_to_minimum(lexicons, rules, kb):
    result = extract("A fire swept the city, killing at least 12 people.",
                     lexicons, rules, kb)
    event = result.document.events[0]
    assert event.killed_count == 12


def test_extract_is_total_over_word_salad(lexicons, rules, kb):
    import random
    rng = random.Random(3)
    words = ["the", "Fed", "raised", "rates", "$", "5", "million", "Dr.",
             "Smith", "said", "in", "New", "York", "on", "Monday", "killing",
             "7", "people", "percent", "to", "a", "storm", "!", "?", ",",
             "U.S.", "bill", "vote", "of", "hurricane", "Floyd"]
    for _ in range(40):
        text = " ".join(rng.choice(words) for _ in range(rng.randrange(0, 40)))
        result = extract(text, lexicons, rules, kb)
        assert model.validate(result.document).ok, text


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=300))
def test_extract_on_any_text_serialises(lexicons, rules, kb, text):
    document = extract(text, lexicons, rules, kb).document
    assert parse_newsform(serialize_newsform(document)) == document


def test_overlapping_rules_both_fire(lexicons):
    source = (
        "killing ?Number:n people => <InjuryFatality><KilledCount>?n</KilledCount></InjuryFatality>\n\n"
        "killing ?Number:n => <InjuryFatality><CauseEvent>violence</CauseEvent></InjuryFatality>\n")
    parses = analyze("Floods swept the valley, killing 12 people.", lexicons)
    fragments = apply_patterns(parses, compile_rules(source), [])
    assert len(fragments) == 2
    (event,), _ = merge(fragments)
    assert event.killed_count == 12
    assert event.cause_event == "violence"


def test_weather_story_end_to_end(lexicons, rules, kb):
    text = ("Hurricane Floyd struck North Carolina with winds of 140 mph. "
            "Officials ordered an evacuation.")
    result = extract(text, lexicons, rules, kb)
    (event,) = result.document.events
    assert isinstance(event, Weather)
    assert str(event.meteor) == "Hurricane"
    assert event.given == "Floyd"
    assert event.at_location.state == "NC"
    assert event.wind_speed == model.Measure(Decimal("140"), "mph")
    assert str(event.declared_state) == "Evacuation"


def test_extraction_is_pure_across_threads(lexicons, rules, kb):
    from concurrent.futures import ThreadPoolExecutor
    texts = [INTRO_TEXT,
             "The Federal Reserve raised its federal funds target to 5.25 percent.",
             "GTE agreed to acquire Bell Atlantic for $52 billion.",
             "Hurricane Floyd struck North Carolina with winds of 140 mph."] * 4
    sequential = [extract(t, lexicons, rules, kb).document for t in texts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(
            lambda t: extract(t, lexicons, rules, kb).document, texts))
    assert threaded == sequential


def test_long_document_extracts_quickly(lexicons, rules, kb):
    import time
    text = " ".join(
        ["An earthquake struck western Colombia on Monday, killing at least "
         "143 people and injuring more than 900, civil defense officials "
         "said."] * 100)
    started = time.perf_counter()
    result = extract(text, lexicons, rules, kb)
    elapsed = time.perf_counter() - started
    assert result.document.events
    assert elapsed < 5.0, f"{elapsed:.2f}s for 100 sentences"
