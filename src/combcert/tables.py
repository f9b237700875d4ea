"""Golden reproduction of the two bundled counterexample tables.

Table 1 is a comb on eight vertices whose inequality evaluates to 15/2
against a right-hand side of 7 at the bundled point, which nevertheless
satisfies every degree, bound, and subtour row: the comb row is not
implied there.  Table 2 does the same on nine vertices (unequal class
sizes), left side 17/2 against 8.

The published weight list for Table 2 does not actually reach the stated
hand value of 7/2 (it gives 5/2); adding the missing edge b-e at weight 1
reproduces every published number and stays feasible, which the runner
re-verifies each time with `check_point`, whose cut search lists every
violated subtour row.  Both variants ship: "corrected" (the default) and
"printed" (kept as documentation of the discrepancy).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .combs import classify, comb_inequality, comb_value
from .constraints import check_point
from .graph import set_weight
from .jsonio import load_comb, load_instance
from .rational import format_rational

VARIANTS = ("corrected", "printed")


def _data(name: str) -> dict:
    with resources.files("combcert.data").joinpath(name).open() as handle:
        return json.load(handle)


def load_table(table: int, variant: str = "corrected"):
    """(instance, point, comb) for table 1 or 2; table 1 has one variant."""
    if table == 1:
        instance, point = load_instance(_data("table1_instance.json"))
        comb = load_comb(_data("table1_comb.json"), instance)
    elif table == 2:
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        instance, point = load_instance(_data(f"table2_instance_{variant}.json"))
        comb = load_comb(_data("table2_comb.json"), instance)
    else:
        raise ValueError("table must be 1 or 2")
    return instance, point, comb


@dataclass(frozen=True)
class TableCheck:
    name: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def line(self) -> str:
        status = "ok" if self.ok else "MISMATCH"
        return f"{status:8s} {self.name}: expected {self.expected}, got {self.actual}"


@dataclass(frozen=True)
class TableReport:
    checks: tuple[TableCheck, ...]
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "expected": c.expected, "actual": c.actual, "ok": c.ok}
                for c in self.checks
            ],
            "notes": list(self.notes),
        }


def _check(checks, name, expected, actual) -> None:
    checks.append(TableCheck(name, str(expected), str(actual)))


def reproduce_tables(variant: str = "corrected") -> TableReport:
    """Re-verify both tables: exact feasibility by `check_point`, the comb
    row's two sides, the violation margin, and the hypothesis classification."""
    checks: list[TableCheck] = []
    notes: list[str] = []

    instance1, point1, comb1 = load_table(1)
    report1 = check_point(instance1, point1)
    _check(checks, "table1 point feasible", True, report1.feasible)
    row1 = comb_inequality(instance1, comb1)
    lhs1 = comb_value(point1, comb1)
    _check(checks, "table1 comb lhs", "15/2", format_rational(lhs1))
    _check(checks, "table1 comb rhs", "7", format_rational(row1.rhs))
    _check(checks, "table1 violation", "1/2", format_rational(lhs1 - row1.rhs))
    flags1 = classify(instance1, comb1)
    _check(checks, "table1 no hypothesis class applies", (), flags1.builder_names())

    instance2, point2, comb2 = load_table(2, variant)
    row2 = comb_inequality(instance2, comb2)
    lhs2 = comb_value(point2, comb2)
    if variant == "corrected":
        notes.append(
            "table 2 uses the corrected weight list (edge b-e added at weight 1); "
            "the printed list gives hand value 5/2 instead of the published 7/2"
        )
        report2 = check_point(instance2, point2)
        _check(checks, "table2 point feasible", True, report2.feasible)
        _check(checks, "table2 hand value", "7/2", format_rational(set_weight(point2, comb2.hand)))
        _check(checks, "table2 comb lhs", "17/2", format_rational(lhs2))
        _check(checks, "table2 comb rhs", "8", format_rational(row2.rhs))
        _check(checks, "table2 violation", "1/2", format_rational(lhs2 - row2.rhs))
    else:
        # The printed list is documented, not asserted against the published
        # numbers it fails to reproduce.
        report2 = check_point(instance2, point2)
        _check(checks, "table2(printed) point feasible", True, report2.feasible)
        _check(checks, "table2(printed) hand value", "5/2", format_rational(set_weight(point2, comb2.hand)))
        _check(checks, "table2(printed) comb lhs", "15/2", format_rational(lhs2))
        _check(checks, "table2(printed) comb rhs", "8", format_rational(row2.rhs))
        notes.append("printed variant does not violate the comb row (15/2 <= 8)")
    flags2 = classify(instance2, comb2)
    _check(
        checks,
        "table2 toothless condition fails both orientations",
        (False, False),
        tuple(pat.condition_holds() for pat in flags2.patterns),
    )
    _check(checks, "table2 no hypothesis class applies", (), flags2.builder_names())
    return TableReport(tuple(checks), tuple(notes))
