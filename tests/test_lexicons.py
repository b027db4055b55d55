"""Lexicon loading and ambiguity-preserving lookup."""

import pytest

from newsforms.lexicons import (
    EntryKind,
    LexiconError,
    load_lexicon,
    load_lexicon_set,
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
    assert entry.attr("lat") == "4.57"
    assert entry.attr("lon") == "-74.30" or entry.attr("lon") == "-74.3"


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
    assert load_lexicon(path).prefixes == {
        "washington,", "washington, d.c.", "new", "new york",
        # the windows "Washington" and "Washington ," before the comma joins
        "washington", "washington ,"}


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


def test_manifest_rejects_unknown_flags(tmp_path):
    (tmp_path / "a.tsv").write_text("x\tCity\tX\tcountry=USA\n")
    (tmp_path / "manifest").write_text("a.tsv\tloud\n")
    with pytest.raises(LexiconError):
        load_lexicon_set(tmp_path)
