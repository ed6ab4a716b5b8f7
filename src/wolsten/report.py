"""Structured verdicts of congruence checks, and the one line encoder.

One CongruenceReport is produced per checked claim instance, and
congruence_report builds every one, from exact values, from residues or
from a side known only modulo each p^k.  JSON is the canonical format
(one object per check, fixed key order, deterministic bytes); CSV is a
lossy projection with params flattened to "k=v;k=v".
encode_report writes the line of every record type, a report, a scan
record or a search hit, and join_lines turns lines into a file.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable, Iterable
from fractions import Fraction
from types import SimpleNamespace
from typing import NamedTuple

from .errors import BudgetExceededError, PreconditionError
from .padic import INFINITE, Rational, Residue, _int_valuation, _reduce, valuation

PASS = "pass"
FAIL = "fail"


class CongruenceReport(NamedTuple):
    """Verdict of one congruence check.

    ``lhs_exact``/``rhs_exact`` are exact rationals when the check ran an
    exact route, or None when only a modular route was feasible; the
    residues are always present.  ``diff_valuation`` is the true p-adic
    valuation of lhs - rhs (INFINITE when they are equal), so a report can
    show e.g. "passes mod p^3 but fails mod p^5" in one number; a check
    decided on residues mod p^j alone reports j when they agree.
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
    params: dict = {}  # one shared default: no code changes a report's params

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
        lhs, rhs, dv = self._texts()
        return {
            "claim_id": self.claim_id,
            "p": self.p,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "precision": self.precision,
            "lhs": {"exact": lhs, "residue": str(self.lhs_residue)},
            "rhs": {"exact": rhs, "residue": str(self.rhs_residue)},
            "diff_valuation": dv,
            "verdict": self.verdict,
        }

    def _texts(self) -> tuple[str | None, str | None, int | str]:
        # The exact texts and the valuation, as every encoding writes them.
        dv = self.diff_valuation
        return _exact_text(self.lhs_exact), _exact_text(self.rhs_exact), "inf" if dv == math.inf else int(dv)

    def csv_row(self) -> list:
        """The cells under CSV_COLUMNS; a missing exact value or param is ""."""
        lhs, rhs, dv = self._texts()
        params = ";".join(f"{k}={'' if v is None else v}" for k, v in sorted(self.params.items()))
        return [self.claim_id, self.p, params, self.precision, lhs or "", self.lhs_residue,
                rhs or "", self.rhs_residue, dv, self.verdict]


# An exact value is written only while its numerator and denominator have
# at most this many decimal digits, CPython's default int-to-string limit;
# past it a report line would run to megabytes.  The bound is fixed, so
# report bytes do not depend on PYTHONINTMAXSTRDIGITS.
EXACT_DIGITS = 4300
_EXACT_BOUND = 10**EXACT_DIGITS


def _exact_text(x: Fraction | None) -> str | None:
    if x is None:
        return None
    num, den = x.numerator, x.denominator
    if den >= _EXACT_BOUND or abs(num) >= _EXACT_BOUND:
        return None
    try:
        return f"{num}/{den}"
    except ValueError:
        # This interpreter's limit is below EXACT_DIGITS; Decimal's
        # conversion is not subject to it.
        from decimal import Decimal

        return f"{Decimal(num)}/{Decimal(den)}"


# A line's head for each claim and prime, and the params' keys in sorted
# order with their texts for each tuple of keys (None unless all are str).
@functools.lru_cache(maxsize=256)
def _head(claim_id: str, p: int) -> str:
    return f'{{"claim_id":{_str(claim_id)},"p":{p},"params":{{'


@functools.lru_cache(maxsize=64)
def _keys(keys: tuple) -> tuple[tuple[str, str], ...] | None:
    if not all(type(k) is str for k in keys):
        return None
    return tuple((k, f"{_str(k)}:") for k in sorted(keys))


def _json_line(r: CongruenceReport) -> str:
    # _JSON.encode(r.to_obj()) + "\n", written directly while every param
    # is a str key with an int or str value (a bool is true, not True).
    params, keys, texts = r.params, _keys(tuple(r.params)), []
    for k, key in keys or ():
        v = params[k]
        if type(v) is int:
            texts.append(f"{key}{v}")
        elif type(v) is str:
            texts.append(key + _str(v))
        else:
            keys = None
            break
    if keys is None:
        return _JSON.encode(r.to_obj()) + "\n"
    lhs, rhs = _exact_text(r.lhs_exact), _exact_text(r.rhs_exact)
    dv = "inf" if r.diff_valuation == math.inf else int(r.diff_valuation)
    lhs = "null" if lhs is None else f'"{lhs}"'
    rhs = "null" if rhs is None else f'"{rhs}"'
    return (f'{_head(r.claim_id, r.p)}{",".join(texts)}}},'
            f'"precision":{r.precision},"lhs":{{"exact":{lhs},"residue":"{r.lhs_residue}"}},'
            f'"rhs":{{"exact":{rhs},"residue":"{r.rhs_residue}"}},'
            f'"diff_valuation":{_str(dv) if dv == "inf" else dv},"verdict":{_str(r.verdict)}}}\n')


def _fraction(x: Rational) -> Fraction:
    return x if type(x) is Fraction else Fraction(x)  # a Fraction is immutable: no copy


def congruence_report(
    claim_id: str,
    p: int,
    precision: int,
    lhs: Rational | Residue | Callable[[int], int],
    rhs: Rational | Residue,
    params: dict,
    holds: bool = True,
) -> CongruenceReport:
    """Report for lhs == rhs mod p^precision; every report is built here.

    The verdict passes when v = v_p(lhs - rhs) >= precision and ``holds``,
    a claim's extra condition (e.g. the other link of a chain), is true.
    p is taken to be prime, as every checker has made sure.  The sides
    take three forms:
    - exact: ints or Fractions;
    - residues: two Residues mod one p^j, j >= precision, for values known
      only mod p^j; v is j, a lower bound, when they agree;
    - for lhs, a function k -> lhs mod p^k, for a p-integral value too
      large to expand, with an int or p-integral Fraction rhs; only rhs
      has an exact value.
    """
    if precision < 1:
        raise PreconditionError(f"precision must be >= 1, got {precision}")
    q = p**precision
    lhs_exact = rhs_exact = None
    if isinstance(lhs, Residue):
        m = lhs.modulus
        if not isinstance(rhs, Residue) or rhs.modulus != m or m.p != p or m.k < precision:
            raise PreconditionError(f"{claim_id}: residues mod {m} cannot decide {rhs!r} mod {p}^{precision}")
        d = lhs.value - rhs.value
        v = _int_valuation(d, p) if d else m.k
        lhs_res, rhs_res = lhs.value % q, rhs.value % q
    elif callable(lhs):
        # Residues only: raise the modulus until the difference shows.  A
        # passing check's difference vanishes mod p^precision, so the first
        # modulus is p^(precision+2); it gives both residues mod p^precision too.
        try:
            k = precision + 2
            lhs_k, rhs_k = lhs(k), _reduce(rhs, p, k)
            lhs_res, rhs_res, d = lhs_k % q, rhs_k % q, (lhs_k - rhs_k) % p**k
            while not d:
                k += 2
                if k > 64:
                    raise BudgetExceededError("difference valuation exceeds p^64")
                d = (lhs(k) - _reduce(rhs, p, k)) % p**k
        except BudgetExceededError as exc:
            raise BudgetExceededError(f"{claim_id} p={p} {params}: {exc}") from None
        v, rhs_exact = _int_valuation(d, p), _fraction(rhs)
    else:
        if type(lhs) is int and type(rhs) is int:  # no Fraction arithmetic
            d = lhs - rhs
            v = _int_valuation(d, p) if d else INFINITE
            lhs_res, rhs_res = lhs % q, rhs % q
        else:
            v = valuation(lhs - rhs, p)
            lhs_res, rhs_res = _reduce(lhs, p, precision), _reduce(rhs, p, precision)
        lhs_exact, rhs_exact = _fraction(lhs), _fraction(rhs)
    verdict = PASS if v >= precision and holds else FAIL
    return CongruenceReport(claim_id, p, precision, lhs_res, rhs_res, v, verdict, lhs_exact,
                            rhs_exact, params)  # by position: faster than by keyword


# json.dumps builds a new encoder on every call that passes separators.
_JSON = json.JSONEncoder(separators=(",", ":"))
_str = json.encoder.encode_basestring_ascii  # _JSON's str encoder


@functools.cache
def _csv_writer():
    # Imported on first CSV use, so a JSON run never loads csv.  writerow
    # returns what its file's write returns: here, the row's text.
    import csv

    return csv.writer(SimpleNamespace(write=lambda text: text), lineterminator="\n")


def encode_report(r, fmt: str = "json") -> str:
    """One record's line, newline included: r.to_obj() as JSON, or r.csv_row() ("csv").

    r is a CongruenceReport, a bernoulli.IrregularRecord or a suite.QuadrupleHit;
    the last has no CSV form.
    """
    if fmt == "json":
        return _json_line(r) if isinstance(r, CongruenceReport) else _JSON.encode(r.to_obj()) + "\n"
    if fmt != "csv":
        raise PreconditionError(f"unknown report format {fmt!r}; use 'json' or 'csv'")
    if not hasattr(r, "csv_row"):
        raise PreconditionError(f"{type(r).__name__} records have no CSV form; use 'json'")
    return _csv_writer().writerow(r.csv_row())


def join_lines(
    lines: Iterable[str], fmt: str = "json", kind: type = CongruenceReport, new_file: bool = True
) -> str:
    """A file from encode_report lines of kind's records, or the tail to append to one.

    Only a new CSV file (new_file true) starts with the header row kind.CSV_COLUMNS.
    """
    header = _csv_writer().writerow(kind.CSV_COLUMNS) if fmt == "csv" and new_file else ""
    return header + "".join(lines)


def reports_to_jsonl(reports: list[CongruenceReport]) -> str:
    return join_lines(encode_report(r) for r in reports)


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


def scan_line(o: dict) -> str:
    """A `report` line for a scan record; raises as table_row does if o lacks a field."""
    flag = " irregular" if o.get("irregular") else ""
    return f"p={o['p']}  w_mod_p={o['w_mod_p']}  b_pm3_mod_p={o['b_pm3_mod_p']}{flag}"


def render_table(rows: list[tuple[str, ...]]) -> str:
    """Human-readable table of table_row rows for the `report` subcommand."""
    rows = [("claim", "p", "params", "prec", "lhs", "rhs", "v(diff)", "verdict"), *rows]
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
