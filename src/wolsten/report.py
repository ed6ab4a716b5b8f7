"""Structured verdicts of congruence checks, and the one line encoder.

One CongruenceReport is produced per checked claim instance;
congruence_report builds every one that has exact values.  JSON is the
canonical format (one object per check, fixed key order, deterministic
bytes); CSV is a lossy projection with params flattened to "k=v;k=v".
encode_report writes the line of every record type, a report, a scan
record or a search hit, and join_lines turns lines into a file.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from .errors import PreconditionError
from .padic import INFINITE, PrimePower, Rational, _int_valuation, padic_congruent, reduce_mod

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

    CSV_COLUMNS = (  # a class attribute, not a field
        "claim_id", "p", "params", "precision", "lhs_exact", "lhs_residue",
        "rhs_exact", "rhs_residue", "diff_valuation", "verdict",
    )

    @property
    def ok(self) -> bool:
        return self.verdict == PASS

    def to_obj(self) -> dict:
        """JSON-ready dict with the fixed schema and key order.

        An exact value is null also when its numerator or denominator has
        more than EXACT_DIGITS (4300) decimal digits.
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

    def csv_row(self) -> list:
        """The cells under CSV_COLUMNS; a missing exact value is ""."""
        o = self.to_obj()
        lhs, rhs = o["lhs"], o["rhs"]
        params = ";".join(f"{k}={v}" for k, v in o["params"].items())
        return [o["claim_id"], o["p"], params, o["precision"], lhs["exact"] or "", lhs["residue"],
                rhs["exact"] or "", rhs["residue"], o["diff_valuation"], o["verdict"]]


# An exact value is written only while its numerator and denominator have
# at most this many decimal digits, CPython's default int-to-string limit;
# past it a report line would run to megabytes.  The bound is fixed, so
# report bytes do not depend on PYTHONINTMAXSTRDIGITS.
EXACT_DIGITS = 4300
_EXACT_BOUND = 10**EXACT_DIGITS


def _exact_text(x: Fraction | None) -> str | None:
    if x is None or x.denominator >= _EXACT_BOUND or not -_EXACT_BOUND < x.numerator < _EXACT_BOUND:
        return None
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        # This interpreter's limit is below EXACT_DIGITS; Decimal's
        # conversion is not subject to it.
        from decimal import Decimal

        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


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
    p is taken to be prime, as every checker has made sure.  Two ints
    take residues by % and the valuation of their integer difference,
    the same values the Fraction route gives.
    """
    if isinstance(lhs, int) and isinstance(rhs, int):
        if precision < 1:
            raise PreconditionError(f"precision must be >= 1, got {precision}")
        q = p**precision
        d = lhs - rhs
        v = _int_valuation(d, p) if d else INFINITE
        lhs_res, rhs_res = lhs % q, rhs % q
    else:
        ok, v = padic_congruent(lhs, rhs, p, precision)
        mod = PrimePower(p, precision)
        lhs_res, rhs_res = reduce_mod(lhs, mod).value, reduce_mod(rhs, mod).value
    return CongruenceReport(
        claim_id=claim_id,
        p=p,
        precision=precision,
        lhs_residue=lhs_res,
        rhs_residue=rhs_res,
        diff_valuation=v,
        verdict=verdict_of(v >= precision and holds),
        lhs_exact=Fraction(lhs),
        rhs_exact=Fraction(rhs),
        params=params,
    )


# json.dumps builds a new encoder on every call that passes separators.
_JSON = json.JSONEncoder(separators=(",", ":"))


# writerow returns what its file's write returns: here, the row's text.
_CSV = csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\n")


def encode_report(r, fmt: str = "json") -> str:
    """One record's line, newline included: r.to_obj() as JSON, or r.csv_row() ("csv").

    r is a CongruenceReport, a bernoulli.IrregularRecord or a suite.QuadrupleHit;
    the last has no CSV form.
    """
    if fmt == "json":
        return _JSON.encode(r.to_obj()) + "\n"
    if fmt != "csv":
        raise PreconditionError(f"unknown report format {fmt!r}; use 'json' or 'csv'")
    if not hasattr(r, "csv_row"):
        raise PreconditionError(f"{type(r).__name__} records have no CSV form; use 'json'")
    return _CSV.writerow(r.csv_row())


def join_lines(
    lines: Iterable[str], fmt: str = "json", kind: type = CongruenceReport, new_file: bool = True
) -> str:
    """A file from encode_report lines of kind's records, or the tail to append to one.

    Only a new CSV file (new_file true) starts with the header row kind.CSV_COLUMNS.
    """
    header = _CSV.writerow(kind.CSV_COLUMNS) if fmt == "csv" and new_file else ""
    return header + "".join(lines)


def reports_to_jsonl(reports: list[CongruenceReport]) -> str:
    return join_lines(encode_report(r) for r in reports)


def reports_to_csv(reports: list[CongruenceReport]) -> str:
    return join_lines((encode_report(r, "csv") for r in reports), "csv")


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
