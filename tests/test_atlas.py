import pytest

from a1unicity import atlas
from a1unicity.atlas import group, known_labels, list_unique, verdict
from a1unicity.errors import BadPrimeError, UnknownLabelError, VerdictKind


def test_stated_verdicts():
    assert verdict(group("E7"), 7, "A6").kind is VerdictKind.NON_UNIQUE
    assert verdict(group("E8"), 11, "A7").kind is VerdictKind.UNIQUE
    assert verdict(group("G2"), 5, "Ã1").kind is VerdictKind.UNIQUE
    assert verdict(group("E6"), 5, "A2").kind is VerdictKind.NON_UNIQUE
    assert verdict(group("E8"), 5, "A1").kind is VerdictKind.BAD_PRIME


def test_label_normalization():
    assert verdict(group("G2"), 5, "~A1").kind is VerdictKind.UNIQUE
    assert verdict(group("E7"), 7, "A5'").kind is VerdictKind.UNIQUE
    assert verdict(group("E7"), 7, "(A5)''").kind is VerdictKind.UNIQUE
    assert verdict(group("E7"), 7, " A 6 ").kind is VerdictKind.NON_UNIQUE


def test_unknown_labels_never_guess():
    assert verdict(group("G2"), 5, "A3").kind is VerdictKind.UNKNOWN_LABEL
    assert verdict(group("F4"), 5, "D4").kind is VerdictKind.UNKNOWN_LABEL
    assert verdict(group("E8"), 7, "E9(a1)").kind is VerdictKind.UNKNOWN_LABEL
    with pytest.raises(UnknownLabelError):
        group("E9")


def test_bad_primes():
    for name, bad in (("G2", 3), ("F4", 2), ("E6", 3), ("E7", 2), ("E8", 5)):
        assert verdict(group(name), bad, "A1").kind is VerdictKind.BAD_PRIME
    with pytest.raises(BadPrimeError):
        list_unique(group("E8"), 5)
    # non-prime characteristics are rejected the same way
    assert verdict(group("E6"), 9, "A1").kind is VerdictKind.BAD_PRIME


def test_list_unique_stated_sets():
    assert list_unique(group("E6"), 7) == {
        "A1", "A3", "D4", "A5", "D5", "E6(a1)", "E6",
    }
    assert list_unique(group("E7"), 5) == {"A1", "A3", "D4", "E7"}
    assert list_unique(group("F4"), 13) == {
        "A1", "Ã2", "B2", "B3", "C3", "F4(a1)", "F4",
    }


def test_regular_class_order_note():
    v = verdict(group("E7"), 5, "E7")
    assert v.kind is VerdictKind.UNIQUE
    assert "18" in v.note and "fails" in v.note
    v = verdict(group("G2"), 7, "G2")
    assert v.kind is VerdictKind.UNIQUE
    assert "fails" not in v.note


def test_order_p_hypothesis_note_on_ordinary_classes():
    v = verdict(group("E8"), 11, "D7")
    assert "order exactly p" in v.note


def test_label_inventory_sizes():
    sizes = {"G2": 4, "F4": 15, "E6": 20, "E7": 44, "E8": 69}
    for name, size in sizes.items():
        assert len(known_labels(group(name))) == size, name


def test_nesting_across_good_primes():
    for name in ("G2", "F4", "E6", "E7", "E8"):
        g = group(name)
        goods = [p for p in (5, 7, 11, 13, 17, 19) if g.is_good(p)]
        for small, large in zip(goods, goods[1:]):
            assert list_unique(g, small) <= list_unique(g, large)



_READ_DATA = atlas._read_data


@pytest.mark.parametrize("old, new, at_load, error", [
    ("G2|good|A1|unique", "G2|<5|A1|unique", False, "bad p_condition '<5'"),
    ("G2|good|A1|unique", "G2|good|A9|unique", True,
     "rule row uses unknown label 'A9' for G2"),
    ("G2|good|A1|unique", "G2|good|A1|maybe", True, "bad verdict 'maybe'"),
    ("G2|good|A1|unique", "G2|good|A1|unique\nG2|=7|A1|nonunique", True,
     "contradictory rows for G2 A1 at p = 7"),
], ids=["p_condition", "label", "verdict", "contradiction"])
def test_corrupted_rules_file_is_refused(monkeypatch, old, new, at_load, error):
    """Each data-file error, on a copy of the rules with one row changed,
    raises ValueError with its message: when the tables load, or, for a
    unique row's bad p_condition, when a verdict reads the row."""

    def corrupted(name):
        text = _READ_DATA(name)
        if name == "atlas_rules.txt":
            assert text.count(old + "\n") == 1
            text = text.replace(old + "\n", new + "\n")
        return text

    monkeypatch.setattr(atlas, "_read_data", corrupted)
    atlas._tables.cache_clear()
    try:
        with pytest.raises(ValueError) as err:
            atlas._tables()
            assert not at_load
            verdict(group("G2"), 5, "A1")
        assert type(err.value) is ValueError and str(err.value) == error
    finally:
        atlas._tables.cache_clear()
