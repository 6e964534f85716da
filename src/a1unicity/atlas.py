"""Unicity lookup for unipotent classes of the exceptional groups.

Pure data plus lookup: the verdict table lives in data/atlas_rules.txt
and the complete class-label lists (used only to reject typos, never to
guess) in data/atlas_labels.txt.  Everything is loaded once and checked
for internal consistency.

Verdicts are stated for classes containing elements of order exactly p.
That hypothesis is only machine-checkable here for the regular class,
whose elements have order p precisely when p is at least the Coxeter
number; for all other classes the note field records that the caller
owns the hypothesis.
"""

from __future__ import annotations

import os
from enum import Enum
from functools import lru_cache

from .errors import BadPrimeError, Frozen, UnknownLabelError, VerdictKind
from .ffmatrix import is_prime


class ExceptionalType(str, Enum):
    G2 = "G2"
    F4 = "F4"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"


_COXETER = {
    ExceptionalType.G2: 6,
    ExceptionalType.F4: 12,
    ExceptionalType.E6: 12,
    ExceptionalType.E7: 18,
    ExceptionalType.E8: 30,
}

_BAD_PRIMES = {
    ExceptionalType.G2: frozenset({2, 3}),
    ExceptionalType.F4: frozenset({2, 3}),
    ExceptionalType.E6: frozenset({2, 3}),
    ExceptionalType.E7: frozenset({2, 3}),
    ExceptionalType.E8: frozenset({2, 3, 5}),
}


class ExceptionalGroup(Frozen):
    type: ExceptionalType

    def __init__(self, type: ExceptionalType):
        object.__setattr__(self, "type", type)

    @property
    def coxeter_number(self) -> int:
        return _COXETER[self.type]

    @property
    def bad_primes(self) -> frozenset[int]:
        return _BAD_PRIMES[self.type]

    @property
    def regular_label(self) -> str:
        return self.type.value

    def is_good(self, p: int) -> bool:
        return is_prime(p) and p not in self.bad_primes

    def __str__(self) -> str:
        return self.type.value


def group(name: str) -> ExceptionalGroup:
    try:
        return ExceptionalGroup(ExceptionalType(name.strip()))
    except ValueError:
        raise UnknownLabelError(f"unknown exceptional group {name!r}") from None


class AtlasVerdict(Frozen):
    kind: VerdictKind
    note: str | None

    def __init__(self, kind: VerdictKind, note: str | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "note", note)


def normalize_label(label: str) -> str:
    """Canonical spelling: no spaces, unicode tilde, parenthesised primes."""
    text = "".join(label.split())
    text = text.replace("~A", "Ã")
    if text.startswith("A") and text.endswith(("'", "''")) and "(" not in text:
        base = text.rstrip("'")
        text = f"({base})" + "'" * (len(text) - len(base))
    return text


def _match_condition(condition: str, p: int) -> bool:
    if condition == "good":
        return True
    if condition.startswith(">="):
        return p >= int(condition[2:])
    if condition.startswith("="):
        return p == int(condition[1:])
    raise ValueError(f"bad p_condition {condition!r}")


def _read_data(name: str) -> str:
    """A file of the package's data directory, read with plain open, so
    a query loads no importlib.resources or pathlib."""
    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as f:
        return f.read()


@lru_cache(maxsize=1)
def _tables():
    """(labels per group, unique rows, recorded nonunique rows)."""
    labels: dict[ExceptionalType, set[str]] = {t: set() for t in ExceptionalType}
    text = _read_data("atlas_labels.txt")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        g, label = line.split("|")
        labels[ExceptionalType(g)].add(label)

    unique_rows: list[tuple[ExceptionalType, str, str]] = []
    nonunique_rows: list[tuple[ExceptionalType, str, str]] = []
    text = _read_data("atlas_rules.txt")
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        g, condition, label, verdict = line.split("|")
        gt = ExceptionalType(g)
        if label not in labels[gt]:
            raise ValueError(f"rule row uses unknown label {label!r} for {g}")
        row = (gt, condition, label)
        if verdict == "unique":
            unique_rows.append(row)
        elif verdict == "nonunique":
            nonunique_rows.append(row)
        else:
            raise ValueError(f"bad verdict {verdict!r}")
    # a recorded counterexample must never collide with a unique rule
    for gt, condition, label in nonunique_rows:
        for p in range(2, 50):
            if not is_prime(p) or p in _BAD_PRIMES[gt]:
                continue
            if not _match_condition(condition, p):
                continue
            for gt2, cond2, label2 in unique_rows:
                if gt2 is gt and label2 == label and _match_condition(cond2, p):
                    raise ValueError(
                        f"contradictory rows for {gt.value} {label} at p = {p}"
                    )
    return labels, tuple(unique_rows), tuple(nonunique_rows)


def known_labels(g: ExceptionalGroup) -> frozenset[str]:
    labels, _, _ = _tables()
    return frozenset(labels[g.type])


def recorded_nonunique(g: ExceptionalGroup, p: int) -> frozenset[str]:
    """Counterexample classes recorded for this group and prime."""
    _, _, rows = _tables()
    return frozenset(
        label for gt, cond, label in rows if gt is g.type and _match_condition(cond, p)
    )


def verdict(g: ExceptionalGroup, p: int, label: str) -> AtlasVerdict:
    """Unicity verdict for the class with the given label, assuming the
    class has elements of order exactly p."""
    labels, unique_rows, _ = _tables()
    if not g.is_good(p):
        return AtlasVerdict(
            VerdictKind.BAD_PRIME,
            note=f"p = {p} is not a good prime for {g}",
        )
    name = normalize_label(label)
    if name not in labels[g.type]:
        return AtlasVerdict(
            VerdictKind.UNKNOWN_LABEL,
            note=f"{label!r} is not a class label of {g}",
        )
    hit = any(
        gt is g.type and label_ == name and _match_condition(cond, p)
        for gt, cond, label_ in unique_rows
    )
    if name == g.regular_label:
        h = g.coxeter_number
        note = (
            f"regular class: elements have order p iff p >= {h}"
            + ("" if p >= h else f"; p = {p} < {h}, so the order-p hypothesis fails")
        )
    else:
        note = "assumes the class has elements of order exactly p (not verified here)"
    return AtlasVerdict(VerdictKind.UNIQUE if hit else VerdictKind.NON_UNIQUE, note=note)


def list_unique(g: ExceptionalGroup, p: int) -> frozenset[str]:
    """All labels receiving Unique at this prime."""
    if not g.is_good(p):
        raise BadPrimeError(f"p = {p} is not a good prime for {g}")
    return frozenset(
        label
        for label in known_labels(g)
        if verdict(g, p, label).kind is VerdictKind.UNIQUE
    )
