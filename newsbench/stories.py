"""Seeded wire stories for the extract-wire workload.

Each story is built from a template bank whose sentences trigger the
packaged extraction rules (injury/fatality, earnings, central-bank rates,
deals, weather, votes, successions). Slots are filled from pools taken
from the packaged lexicons: organisations and org-suffix names, persons
with titles, cities and countries, money, number words and units. About
30% of the sentences are filler that no rule matches, and about one story
in eight opens with a title-case headline, a run of proper nouns.

Every story records the events it planted as (event type, key field
path, canonical token), so the checker can find them in the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal

from tokens import norm_number

# (surface, normalized full name), from orgs.tsv; names that start with a
# title word ("General Electric") are left out, the person grammar takes them
ORGS = (
    ("Bell Atlantic", "Bell Atlantic"), ("AirTouch Communications", "AirTouch Communications"),
    ("Vodafone", "Vodafone"), ("GTE", "GTE"), ("MCI WorldCom", "MCI WorldCom"),
    ("United Airlines", "United Airlines"), ("Delta Air Lines", "Delta Air Lines"),
    ("Healtheon", "Healtheon"), ("Microsoft", "Microsoft"),
    ("IBM", "International Business Machines"), ("Intel", "Intel"),
    ("Apple Computer", "Apple Computer"), ("Compaq", "Compaq"), ("Boeing", "Boeing"),
    ("Exxon", "Exxon"), ("Mobil", "Mobil"), ("America Online", "America Online"),
    ("Yahoo", "Yahoo"), ("Netscape", "Netscape"), ("Merck", "Merck"), ("Pfizer", "Pfizer"),
    ("Citigroup", "Citigroup"), ("Goldman Sachs", "Goldman Sachs"), ("Sony", "Sony"),
    ("Nokia", "Nokia"),
)
# capitalised words that are in no lexicon, joined with an org_suffixes.tsv
# word; suffixes that take a period (Inc.) would end no sentence
ORG_STEMS = ("Granite", "Harbor", "Keystone", "Meridian", "Silverline", "Bluewater",
             "Ridgeway", "Cobalt", "Lakeshore", "Pinnacle")
ORG_SUFFIXES = ("Holdings", "Industries", "Group", "Systems", "Technologies",
                "Partners", "Networks")
CENTRAL_BANKS = ("The Federal Reserve", "The European Central Bank", "The Bank of England",
                 "The Bank of Japan")
LEGISLATURES = ("The Senate", "The House", "Parliament", "Congress")
TITLES = ("President", "Chief Executive", "Finance Minister", "Senator", "Governor",
          "Chairman", "Spokesman", "Mayor")
OFFICE_TITLES = ("chief executive", "chief financial officer", "chairman", "president",
                 "managing director", "general manager")
GIVEN = ("John", "Mary", "Robert", "Linda", "David", "Susan", "Carlos", "Helen",
         "Peter", "Karen", "Thomas", "Julia")
FAMILY = ("Okafor", "Lindqvist", "Harrow", "Petrakis", "Vance", "Moreau", "Kessler",
          "Tanaka", "Brennan", "Alvarez", "Whitcombe", "Dunmore")
STORM_NAMES = ("Floyd", "Mitch", "Andrew", "Gloria", "Hugo", "Irene", "Bonnie", "Felipe")
COUNTRIES = ("Colombia", "Turkey", "Japan", "Mexico", "India", "Chile", "Peru", "Greece",
             "Italy", "Indonesia", "Iran", "Pakistan", "Philippines", "Egypt", "Taiwan")
CITIES = ("Chicago", "Houston", "Los Angeles", "Miami", "Boston", "Seattle", "Denver",
          "London", "Paris", "Madrid", "Frankfurt", "Atlanta", "New Orleans", "Detroit")
STATES = ("North Carolina", "Florida", "Texas", "Louisiana", "South Carolina", "Georgia")
WEEKDAYS = ("Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday")
HEADLINE_WORDS = ("Markets", "Coastal", "Towns", "Brace", "Record", "Quarter", "Shares",
                  "Surge", "Talks", "Stall", "Officials", "Weigh", "Rules", "Storm",
                  "Deal", "Rally", "Tumble", "Rescue", "Crews", "Search", "Rubble",
                  "Lawmakers", "Rate", "Fears", "Grip", "Investors", "Rival", "Bid")

# (currency phrase after the figure or None for "$", ISO code, magnitude word, factor)
_MONEY_FORMS = (
    (None, "USD", "million", 10 ** 6), (None, "USD", "billion", 10 ** 9),
    ("euros", "EUR", "million", 10 ** 6), ("yen", "JPY", "billion", 10 ** 9),
    ("pounds", "GBP", "million", 10 ** 6),
)
_ONES = ("", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
         "ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
         "seventeen", "eighteen", "nineteen")
_TENS = ("", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety")

FILLERS = (
    "The company did not comment on the report.",
    "Analysts had expected a weaker result for the period.",
    "Trading in the shares was heavy throughout the session.",
    "It was not immediately clear how the decision would affect prices.",
    "In a statement, the agency described the situation as fluid.",
    "The figures were broadly in line with forecasts.",
    "A full report is expected later this month.",
    "The announcement came after the close of regular trading.",
)


@dataclass(frozen=True)
class Planted:
    variant: str
    path: str     # dotted element path inside the event, e.g. Target.FullName
    token: str    # canonical token: numbers normalized, money as CUR:amount


@dataclass(frozen=True)
class Story:
    name: str
    text: str
    planted: tuple[Planted, ...]


def _count_text(rng: random.Random, n: int) -> str:
    """A count as digits or, for n < 100, sometimes as number words."""
    if n >= 100 or rng.random() < 0.7:
        return str(n)
    if n < 20:
        return _ONES[n]
    return _TENS[n // 10] + (" " + _ONES[n % 10] if n % 10 else "")


def _money(rng: random.Random):
    word, code, magnitude, factor = rng.choice(_MONEY_FORMS)
    figure = Decimal(rng.randrange(11, 9000)) / 10
    text = f"{figure} {magnitude}"
    text = f"${text}" if word is None else f"{text} {word}"
    return text, f"{code}:{norm_number(figure * factor)}"


def _org(rng: random.Random):
    if rng.random() < 0.25:
        name = f"{rng.choice(ORG_STEMS)} {rng.choice(ORG_SUFFIXES)}"
        return name, name
    return rng.choice(ORGS)


def _person(rng: random.Random):
    return rng.choice(GIVEN), rng.choice(FAMILY)


def _cap(sentence: str) -> str:
    return sentence[0].upper() + sentence[1:]


# Each kind returns (planted key, primary sentence, secondary sentences).
# Secondaries set fields other than the key, so merging never conflicts.

def _injury(rng):
    killed = rng.randrange(2, 400)
    count = _count_text(rng, killed)
    day = rng.choice(WEEKDAYS)
    primary = rng.choice((
        f"An earthquake struck {rng.choice(COUNTRIES)} on {day}, killing at least {count} people.",
        f"A fire swept through {rng.choice(CITIES)} on {day}, killing {count} people.",
        f"A bomb exploded in {rng.choice(CITIES)} on {day}, killing {count} people.",
        _cap(f"{count} people were killed when a plane crashed near {rng.choice(CITIES)}."),
    ))
    given, family = _person(rng)
    secondaries = [
        f"More than {rng.randrange(killed + 1, 3 * killed + 50)} people were injured.",
        f"{rng.choice(TITLES)} {given} {family} said rescue teams were still searching.",
    ]
    return Planted("InjuryFatality", "KilledCount", str(killed)), primary, secondaries


def _earnings(rng):
    surface, _ = _org(rng)
    money, token = _money(rng)
    if rng.random() < 0.7:
        primary = f"{surface} reported earnings of {money} for the quarter."
        key, mood = "EarningsAmount", "better"
    else:
        primary = f"{surface} posted a loss of {money} for the quarter."
        key, mood = "Loss", "worse"
    secondaries = [f"{surface} reported {mood} than expected earnings."]
    return Planted("Earnings", key, token), primary, secondaries


def _deal(rng):
    acquirer, _ = _org(rng)
    target, target_name = _org(rng)
    while target_name == acquirer:
        target, target_name = _org(rng)
    money, _ = _money(rng)
    primary = rng.choice((
        f"{acquirer} agreed to acquire {target} for {money}.",
        f"{acquirer} agreed to buy {target}.",
        f"{acquirer} is in talks to acquire {target}.",
    ))
    return Planted("Deal", "Target.FullName", target_name), primary, []


def _fed(rng):
    rate = Decimal(rng.randrange(100, 800)) / 100
    bank = rng.choice(CENTRAL_BANKS)
    primary = rng.choice((
        f"{bank} raised its federal funds target to {rate} percent.",
        f"{bank} lowered its discount rate to {rate} percent.",
        f"{bank} raised its discount rate to {rate} percent.",
    ))
    return Planted("FedWatch", "Rate", norm_number(rate)), primary, []


def _weather(rng):
    name = rng.choice(STORM_NAMES)
    place = rng.choice(STATES + CITIES)
    primary = f"Hurricane {name} struck {place} on {rng.choice(WEEKDAYS)}."
    secondaries = [
        f"The storm brought winds of up to {rng.randrange(60, 180)} mph.",
        rng.choice(("Officials ordered an evacuation.",
                    "The governor declared a disaster.")),
    ]
    return Planted("Weather", "Given", name), primary, secondaries


def _vote(rng):
    favor = rng.randrange(40, 400)
    against = rng.randrange(1, 300)
    verb = rng.choice(("passed", "rejected"))
    primary = f"{rng.choice(LEGISLATURES)} {verb} the bill by a vote of {favor} to {against}."
    return Planted("Vote", "InFavor", str(favor)), primary, []


def _succession(rng):
    org, _ = _org(rng)
    given, family = _person(rng)
    office = rng.choice(OFFICE_TITLES)
    primary = rng.choice((
        f"{org} named {given} {family} as {office}.",
        f"{given} {family} was named {office} of {org}.",
    ))
    out_given, out_family = _person(rng)
    while out_family == family:
        out_given, out_family = _person(rng)
    secondaries = [f"{out_given} {out_family} resigned."]
    return Planted("Succession", "In.Family", family), primary, secondaries


KINDS = (_injury, _earnings, _deal, _fed, _weather, _vote, _succession)


def _headline(rng: random.Random) -> str:
    return " ".join(rng.sample(HEADLINE_WORDS, rng.randrange(6, 13)))


def make_story(rng: random.Random, name: str, n_sentences: int) -> Story:
    n_filler = round(0.3 * n_sentences)
    n_rule = n_sentences - n_filler
    planted: list[Planted] = []
    rule_sentences: list[str] = []
    for kind in rng.sample(KINDS, len(KINDS)):
        if len(rule_sentences) >= n_rule:
            break
        key, primary, secondaries = kind(rng)
        planted.append(key)
        rule_sentences.append(primary)
        for sentence in secondaries:
            if len(rule_sentences) < n_rule:
                rule_sentences.append(sentence)
    body = rule_sentences + [rng.choice(FILLERS) for _ in range(n_filler)]
    rng.shuffle(body)
    text = " ".join(body)
    if rng.random() < 1 / 8:
        # The headline has no terminator, so it joins the first sentence;
        # a filler (which starts with a closed-class word) goes between them
        # so the headline's capitalised run cannot absorb a planted name.
        text = f"{_headline(rng)}\n{rng.choice(FILLERS)} {text}"
    return Story(name, text + "\n", tuple(planted))


SENTENCE_COUNTS = range(4, 13)


def make_stories(seed: int, count: int) -> list[Story]:
    """Stories whose sentence counts run through a shuffled 4..12 in each
    aligned group of nine, so that batches made of whole groups carry the
    same number of sentences and cost about the same."""
    rng = random.Random(seed)
    stories: list[Story] = []
    lengths: list[int] = []
    for n in range(count):
        if not lengths:
            lengths = rng.sample(SENTENCE_COUNTS, len(SENTENCE_COUNTS))
        stories.append(make_story(rng, f"story-{n:04d}.txt", lengths.pop()))
    return stories
