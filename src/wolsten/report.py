"""Structured verdicts of congruence checks and their serialization.

One CongruenceReport is produced per checked claim instance;
congruence_report builds every one that has exact values.  JSON is the
canonical format (one object per check, fixed key order, deterministic
bytes); CSV is a lossy projection with params flattened to "k=v;k=v".
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .padic import PrimePower, Rational, format_rational, padic_congruent, reduce_mod

PASS = "pass"
FAIL = "fail"


@dataclass(frozen=True)
class CongruenceReport:
    """Verdict of one congruence check.

    ``lhs_exact``/``rhs_exact`` are exact rationals when the check ran an
    exact route, or None when only a modular route was feasible; the
    residues are always present.  ``diff_valuation`` is the true p-adic
    valuation of lhs - rhs (INFINITE when they are equal), so a report can
    show e.g. "passes mod p^3 but fails mod p^5" in one number.
    """

    claim_id: str
    p: int
    precision: int
    lhs_residue: int
    rhs_residue: int
    diff_valuation: int | float
    verdict: str
    lhs_exact: Fraction | None = None
    rhs_exact: Fraction | None = None
    params: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_obj(self) -> dict:
        """JSON-ready dict with the fixed schema and key order.

        An exact value is null also when its decimal form passes Python's
        int-to-string limit, sys.get_int_max_str_digits().
        """
        dv = self.diff_valuation
        return {
            "claim_id": self.claim_id,
            "p": self.p,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "precision": self.precision,
            "lhs": {"exact": _exact_text(self.lhs_exact), "residue": str(self.lhs_residue)},
            "rhs": {"exact": _exact_text(self.rhs_exact), "residue": str(self.rhs_residue)},
            "diff_valuation": "inf" if dv == math.inf else int(dv),
            "verdict": self.verdict,
        }


def _exact_text(x: Fraction | None) -> str | None:
    # None when a numerator or denominator has more decimal digits than
    # sys.get_int_max_str_digits() allows, where str() raises ValueError;
    # raising the limit would write megabytes per report line.
    if x is None:
        return None
    try:
        return format_rational(x)
    except ValueError:
        return None


def verdict_of(passed: bool) -> str:
    return PASS if passed else FAIL


def congruence_report(
    claim_id: str,
    p: int,
    precision: int,
    lhs: Rational,
    rhs: Rational,
    params: dict,
    holds: bool = True,
) -> CongruenceReport:
    """Report for lhs == rhs mod p^precision between exact rationals.

    The verdict passes when v_p(lhs - rhs) >= precision and ``holds``, a
    claim's extra condition (e.g. the other link of a chain), is true.
    """
    ok, v = padic_congruent(lhs, rhs, p, precision)
    mod = PrimePower(p, precision)
    return CongruenceReport(
        claim_id=claim_id,
        p=p,
        precision=precision,
        lhs_residue=reduce_mod(lhs, mod).value,
        rhs_residue=reduce_mod(rhs, mod).value,
        diff_valuation=v,
        verdict=verdict_of(ok and holds),
        lhs_exact=Fraction(lhs),
        rhs_exact=Fraction(rhs),
        params=params,
    )


def reports_to_jsonl(reports: list[CongruenceReport]) -> str:
    return "".join(
        json.dumps(r.to_obj(), separators=(",", ":")) + "\n" for r in reports
    )


CSV_COLUMNS = (
    "claim_id",
    "p",
    "params",
    "precision",
    "lhs_exact",
    "lhs_residue",
    "rhs_exact",
    "rhs_residue",
    "diff_valuation",
    "verdict",
)


def reports_to_csv(reports: list[CongruenceReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in reports:
        obj = r.to_obj()
        w.writerow(
            [
                obj["claim_id"],
                obj["p"],
                ";".join(f"{k}={v}" for k, v in obj["params"].items()),
                obj["precision"],
                obj["lhs"]["exact"] or "",
                obj["lhs"]["residue"],
                obj["rhs"]["exact"] or "",
                obj["rhs"]["residue"],
                obj["diff_valuation"],
                obj["verdict"],
            ]
        )
    return buf.getvalue()


def table_row(o: dict) -> tuple[str, ...]:
    """A `report` table row; KeyError, TypeError or AttributeError if o lacks a field."""
    cells = (
        o["claim_id"],
        o["p"],
        ";".join(f"{k}={v}" for k, v in o.get("params", {}).items()),
        o["precision"],
        o["lhs"]["residue"],
        o["rhs"]["residue"],
        o["diff_valuation"],
        o["verdict"],
    )
    return tuple(str(cell) for cell in cells)


def render_table(rows: list[tuple[str, ...]]) -> str:
    """Human-readable table of table_row rows for the `report` subcommand."""
    rows = [("claim", "p", "params", "prec", "lhs", "rhs", "v(diff)", "verdict"), *rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
