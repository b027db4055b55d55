"""Lexicon loading and ambiguity-preserving lookup."""

import hashlib
from decimal import Decimal

import pytest

from newsforms import model
from newsforms.model import Money
from newsforms.pipeline import analyze, tag_pos
from newsforms.pipeline.types import Pos
from newsforms.lexicons import (
    EntryKind,
    LexiconError,
    load_lexicon,
    load_lexicon_set,
    spell,
)


def test_new_york_has_city_state_and_team_readings(lexicons):
    entries = lexicons.lookup("New York")
    kinds = [e.kind for e in entries]
    assert len(entries) >= 3
    assert kinds[0] is EntryKind.CITY
    assert EntryKind.STATE in kinds
    assert EntryKind.SPORTS_TEAM in kinds


def test_unknown_surface_is_empty(lexicons):
    assert lexicons.lookup("zzyzx-unknown") == []


def test_al_khartum_is_city_in_sudan_and_person_name(lexicons):
    entries = lexicons.lookup("Al Khartum")
    assert [e.kind for e in entries] == [EntryKind.CITY, EntryKind.PERSON_NAME]
    assert entries[0].attr("country") == "SDN"


def test_colombia_normalizes_to_col_with_centroid(lexicons):
    entries = [e for e in lexicons.lookup("Colombia")
               if e.kind is EntryKind.COUNTRY]
    assert len(entries) == 1
    entry = entries[0]
    assert entry.normalized == "COL"
    assert (entry.attr("lat"), entry.attr("lon")) == (Decimal("4.57"), Decimal("-74.3"))


def test_single_line_file(tmp_path):
    path = tmp_path / "demo.tsv"
    path.write_text("New York\tCity\tNew York\tstate=NY;country=USA\n")
    lexicon = load_lexicon(path)
    assert len(lexicon) == 1
    entry = lexicon.lookup("New York")[0]
    assert entry.kind is EntryKind.CITY
    assert entry.attr("state") == "NY"
    assert entry.attr("country") == "USA"


def test_empty_file_loads_zero_entries(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# nothing here\n\n")
    assert len(load_lexicon(path)) == 0


def test_wrong_column_count_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("London\tCity\n")
    with pytest.raises(LexiconError) as info:
        load_lexicon(path)
    assert info.value.lineno == 1


def test_bad_attribute_syntax_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("ok\tCity\tOk\tcountry=GBR\nLondon\tCity\tLondon\tnokey\n")
    with pytest.raises(LexiconError) as info:
        load_lexicon(path)
    assert info.value.lineno == 2


def test_duplicate_attribute_key_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("London\tCity\tLondon\tlat=1;lat=2\n")
    with pytest.raises(LexiconError):
        load_lexicon(path)


def test_out_of_range_coordinates_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("Nowhere\tCity\tNowhere\tlat=91;lon=0\n")
    with pytest.raises(LexiconError):
        load_lexicon(path)


def test_unknown_kind_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("thing\tGadget\tthing\n")
    with pytest.raises(LexiconError):
        load_lexicon(path)


@pytest.mark.parametrize("line, message", [
    ("\tCity\tNowhere", "empty surface"),
    ("  \tCity\tNowhere", "empty surface"),
    ("Nowhere\tCity\t ", "empty normalized value"),
    ("Nowhere\tCity\tNowhere\tlat=north;lon=0", "lat is not a decimal: 'north'"),
    ("Nowhere\tCountry\tNWH\tlon=1e", "lon is not a decimal: '1e'"),
    ("thing\tGadget\tthing", "unknown entry kind 'Gadget'"),
    ("thing\tcity\tthing", "unknown entry kind 'city'"),
    ("Nowhere\tGadget\t", "unknown entry kind 'Gadget'"),
    ("Nowhere\tCity\tNowhere\tlat=NaN", "lat is not a decimal: 'NaN'"),
    ("Nowhere\tCity\tNowhere\tlat=1_0", "lat is not a decimal: '1_0'"),
    ("zork\tNumberWord\tzork\tval=abc", "val is not a decimal: 'abc'"),
    ("zork\tNumberWord\tzork\tmag=1e", "mag is not a decimal: '1e'"),
    ("zork\tCurrencyUnit\tUSD\tscale=٤", "scale is not a decimal: '٤'"),
    ("zork\tNumberWord\tzork\tval=1e30", "val out of range: 1e30"),
    ("zork\tNumberWord\tzork\tval=1e999999999", "val out of range: 1e999999999"),
    ("zork\tNumberWord\tzork\tmag=-10000000000000000000000000001",
     "mag out of range: -10000000000000000000000000001"),
    ("zork\tCurrencyUnit\tUSD\tscale=1.1e28", "scale out of range: 1.1e28"),
    ("blarg\tUnit\tblarg\tdim=volume",
     "dim must be one of percent, distance, duration, speed, temperature, got 'volume'"),
    ("blarg\tUnit\tblarg",
     "dim must be one of percent, distance, duration, speed, temperature, got None"),
    ("Nowhere\tCity\tNowhere\tcountry= ", "bad attribute (empty key or value): 'country='"),
    ("Nowhere\tCity\tNowhere\t=GBR", "bad attribute (empty key or value): '=GBR'"),
])
def test_malformed_line_reports_its_message_and_line_number(tmp_path, line, message):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# comment\n\nLondon\tCity\tLondon\tcountry=GBR\n{line}\n")
    with pytest.raises(LexiconError) as info:
        load_lexicon(path)
    assert (info.value.lineno, str(info.value)) == (4, f"{path}:4: {message}")


def test_duplicate_triples_are_deduplicated(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("Paris\tCity\tParis\tcountry=FRA\n"
                    "Paris\tCity\tParis\tcountry=FRA;lat=48.9\n"
                    "Paris\tCity\tParis TX\tcountry=USA\n")
    lexicon = load_lexicon(path)
    entries = lexicon.lookup("Paris")
    assert len(entries) == 2  # second line folded into the first
    assert entries[0].attr("lat") is None


def test_case_insensitive_lexicons_fold_keys(tmp_path):
    path = tmp_path / "units.tsv"
    path.write_text("Miles\tUnit\tmiles\tdim=distance\n")
    lexicon = load_lexicon(path, case_sensitive=False)
    assert lexicon.lookup("MILES")[0].normalized == "miles"
    strict = load_lexicon(path, case_sensitive=True)
    assert strict.lookup("MILES") == []


def test_prefixes_hold_every_word_prefix_and_the_comma_token_forms(tmp_path):
    path = tmp_path / "cities.tsv"
    path.write_text("Washington, D.C.\tCity\tWashington\tcountry=USA\n"
                    "New York\tCity\tNew York\tcountry=USA\n")
    # a key is spelled as a token window, so its comma is a word of its own
    assert load_lexicon(path).prefixes == {
        "washington", "washington ,", "washington , d.c.", "new", "new york"}


@pytest.mark.parametrize("surface", ["Washington , D.C.", "Washington, D.C.",
                                     "Washington,D.C.", " Washington ,  D.C. "])
def test_lookup_spells_its_surface_as_a_key(lexicons, surface):
    entry, = lexicons.lookup(surface)
    assert (entry.kind, entry.normalized, entry.attr("state")) == (EntryKind.CITY, "Washington", "DC")


def test_loading_is_idempotent(tmp_path):
    path = tmp_path / "demo.tsv"
    path.write_text("Lima\tCity\tLima\tcountry=PER\nAnn\tGivenName\tAnn\tsex=Female\n")
    first = load_lexicon(path)
    second = load_lexicon(path)
    assert first == second


def test_lookup_preserves_every_loaded_reading(lexicons, data_root):
    # lookup(s) is the concatenation, in manifest order, of lookup(s) on
    # each lexicon file loaded on its own
    directory = data_root / "lexicons"
    files = [line.split("\t") for line in (directory / "manifest").read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    singles = [load_lexicon(directory / name, case_sensitive=flags != ["ci"])
               for name, *flags in files]
    for surface in ("New York", "Washington", "Armenia", "Georgia"):
        entries = lexicons.lookup(surface)
        assert entries == [e for single in singles for e in single.lookup(surface)]
        assert len(entries) >= 2, surface


def test_set_lookup_applies_each_files_case_mode(tmp_path):
    (tmp_path / "places.tsv").write_text("Miles\tCity\tMiles\tcountry=USA\n"
                                         "Miles\tCity\tMiles\tcountry=USA\n")
    (tmp_path / "units.tsv").write_text("miles\tUnit\tmiles\tdim=distance\n"
                                        "Miles\tCity\tMiles\tcountry=USA\n")
    (tmp_path / "manifest").write_text("places.tsv\nunits.tsv\tci\n")
    lexicons = load_lexicon_set(tmp_path)
    assert len(lexicons) == 3   # a triple repeated within a file is kept once
    assert [e.kind for e in lexicons.lookup("Miles")] == [
        EntryKind.CITY, EntryKind.UNIT, EntryKind.CITY]
    assert [e.kind for e in lexicons.lookup(" MILES ")] == [EntryKind.UNIT, EntryKind.CITY]
    assert lexicons == load_lexicon_set(tmp_path)


def test_set_lookup_order_is_load_then_file_order(data_root):
    lexicons = load_lexicon_set(data_root / "lexicons")
    kinds = [e.kind for e in lexicons.lookup("Georgia")]
    # cities.tsv loads before us_states.tsv before countries.tsv
    assert kinds == sorted(kinds, key=[EntryKind.CITY, EntryKind.STATE,
                                       EntryKind.COUNTRY].index)


_SKIPPED = b"# comment\r\n\r\n \t \r\n  # indented\r\n\t# tabbed\r\n"


def test_lexicon_rows_skip_blank_and_comment_lines_and_read_crlf(tmp_path):
    path = tmp_path / "crlf.tsv"
    path.write_bytes(_SKIPPED + b"London\tCity\tLondon\tcountry=GBR;lat=51.5\r\n")
    entry, = load_lexicon(path).lookup("London")
    assert entry.attributes == (("country", "GBR"), ("lat", Decimal("51.5")))
    path.write_bytes(path.read_bytes() + b"Paris\tCity\r\n")
    with pytest.raises(LexiconError) as info:
        load_lexicon(path)
    assert str(info.value) == f"{path}:7: expected 3 or 4 tab-separated columns, got 2"


def test_manifest_rows_skip_blank_and_comment_lines_and_read_crlf(tmp_path):
    (tmp_path / "a.tsv").write_text("x\tCity\tX\tcountry=USA\n")
    (tmp_path / "manifest").write_bytes(_SKIPPED + b"a.tsv\r\n")
    assert len(load_lexicon_set(tmp_path)) == 1
    (tmp_path / "manifest").write_bytes(_SKIPPED + b"a.tsv\r\na.tsv\tci\tloud\r\n")
    with pytest.raises(LexiconError) as info:
        load_lexicon_set(tmp_path)
    assert str(info.value) == f"{tmp_path / 'manifest'}:7: unknown flag(s) ['loud']"


@pytest.mark.parametrize("line", ["a.tsv\t", "a.tsv\tci\t", "\ta.tsv", " a.tsv \t ci "])
def test_manifest_line_with_a_tab_before_or_after_its_names_loads(tmp_path, line):
    (tmp_path / "a.tsv").write_text("x\tCity\tX\tcountry=USA\n")
    (tmp_path / "manifest").write_text(line + "\n")
    assert len(load_lexicon_set(tmp_path)) == 1


def test_manifest_empty_flag_between_names_is_unknown(tmp_path):
    (tmp_path / "a.tsv").write_text("x\tCity\tX\tcountry=USA\n")
    (tmp_path / "manifest").write_text("a.tsv\t\tci\n")
    with pytest.raises(LexiconError) as info:
        load_lexicon_set(tmp_path)
    assert str(info.value).endswith(":1: unknown flag(s) ['']")


def test_number_attributes_are_decimals_and_scale_zero_still_scales(tmp_path):
    path = tmp_path / "money.tsv"
    path.write_text("five\tNumberWord\t5\tval=5\n"
                    "nothing\tCurrencyUnit\tUSD\tscale=0\n"
                    "Rome\tState\tRM\tlat=north\n")
    lexicons = load_lexicon(path, case_sensitive=False)
    assert lexicons.lookup("five")[0].attr("val") == Decimal(5)
    assert lexicons.lookup("Rome")[0].attr("lat") == "north"   # a State's lat is unread
    mention, = (m for parse in analyze("It cost five nothing.", lexicons)
                for m in parse.mentions)
    assert mention.readings[0].value == Money(Decimal(0), "USD")


def test_manifest_rejects_unknown_flags(tmp_path):
    (tmp_path / "a.tsv").write_text("x\tCity\tX\tcountry=USA\n")
    (tmp_path / "manifest").write_text("a.tsv\tloud\n")
    with pytest.raises(LexiconError):
        load_lexicon_set(tmp_path)


# sha256 of every packaged lexicon bucket as loaded: the folded key, each
# entry's exact key (both in ``lexicons.spell``'s spelling), surface, kind,
# normalized value and attributes, number attributes spelled with
# ``model.format_decimal``
_PACKAGED_BUCKETS_DIGEST = "2c34754d98be2a9bdf896832f696cb4f0107f30164c22301091cd30b8e5610ae"
_NUMBER_KEYS = {"lat", "lon", "val", "mag", "scale"}


def test_packaged_lexicon_buckets_are_pinned(lexicons):
    digest = hashlib.sha256()
    for folded, bucket in lexicons.index.items():
        for key, entry in bucket:
            attrs = ";".join(f"{k}={model.format_decimal(Decimal(v)) if k in _NUMBER_KEYS else v}"
                             for k, v in entry.attributes)
            digest.update(f"{folded}\t{key}\t{entry.surface}\t{entry.kind.value}\t"
                          f"{entry.normalized}\t{attrs}\n".encode())
    assert len(lexicons) == 1221
    assert digest.hexdigest() == _PACKAGED_BUCKETS_DIGEST


def test_every_packaged_key_tokenizes_to_its_own_spelling(lexicons):
    """A window is a run of tokens, so a key the tagger splits otherwise than
    ``spell`` does, or at punctuation other than a comma, can never match."""
    for bucket in lexicons.index.values():
        for _, entry in bucket:
            tokens = tag_pos(entry.surface, (0, len(entry.surface)))
            assert " ".join(token.text for token in tokens) == spell(entry.surface), entry
            assert all(token.pos is not Pos.PUNCT or token.text == "," for token in tokens), entry
