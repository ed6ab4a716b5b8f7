"""The record types: immutable NamedTuples whose constructors check their fields."""

import math
import pickle
from fractions import Fraction

import pytest

from wolsten import parallel
from wolsten.bernoulli import IrregularRecord
from wolsten.errors import PreconditionError
from wolsten.harmonic import Composition
from wolsten.padic import PrimePower, Residue
from wolsten.parallel import parallel_map
from wolsten.report import _JSON, CongruenceReport, _csv_writer, congruence_report, encode_report
from wolsten.suite import (
    CLAIMS,
    QuadrupleHit,
    check_bailey5,
    check_kazandzidis,
    find_exact_quadruples,
    grid_reports,
    lookup_claim,
)


def _same(x):
    return x


def _records():
    m = PrimePower(7, 2)
    return [
        m,
        Residue(50, m),
        check_bailey5(5, 1, 1, 4, 1, precision=5),
        Composition.of(1, 2),
        IrregularRecord(37, 0, 0, True),
        QuadrupleHit(2, 1, 3, 1, True),
        lookup_claim("bailey5"),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 1)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("build", [
    lambda: PrimePower(7, 0),
    lambda: PrimePower(6, 2),
    lambda: PrimePower(7, 2)._replace(p=9),
    lambda: Composition(()),
    lambda: Composition((1, 0)),
    lambda: Composition.of(1)._replace(parts=(-1,)),
])
def test_constructors_check_their_fields(build):
    with pytest.raises(PreconditionError):
        build()


def test_residue_reduces_also_on_replace():
    m = PrimePower(7, 2)
    assert Residue(-1, m).value == 48
    assert Residue(3, m)._replace(value=100).value == 2


def test_claim_reports_default_to_its_id():
    row = lookup_claim("bailey4")
    assert row.reports == ("bailey4",)
    assert row._replace(id="other", reports=()).reports == ("other",)
    assert lookup_claim("h12").reports == ("h12", "h12p")


def test_records_compare_as_tuples():
    assert PrimePower(7, 2) == (7, 2)
    assert QuadrupleHit(2, 1, 3, 1, True) == (2, 1, 3, 1, True)
    rep = check_bailey5(13, 1, 1, 2, 1)
    assert rep._replace(verdict="fail") != rep
    assert rep._replace(verdict="fail")._replace(verdict="pass") == rep


def test_records_pickle():
    for record in _records()[:-1]:  # a claim holds lambdas
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)


@pytest.mark.skipif(parallel._usable_cpus() < 2, reason="needs two usable CPUs")
def test_pool_round_trip():
    # A failing grid check's report and the search's hits cross the
    # process boundary unchanged.
    failing = check_bailey5(5, 1, 1, 4, 1, precision=5)
    assert not failing.ok
    hits = find_exact_quadruples(7)
    items = [failing, *hits]
    back = parallel_map(_same, items, 2)
    assert back == items
    assert [type(x) for x in back] == [CongruenceReport] + [QuadrupleHit] * len(hits)
    assert back[0].params == {"N": 1, "R": 1, "n": 4, "r": 1}


# The encoders' references: the JSON line is to_obj() through the encoder,
# and the CSV row is read off the same object.
def _json_oracle(r: CongruenceReport) -> str:
    return _JSON.encode(r.to_obj()) + "\n"


def _csv_oracle(r: CongruenceReport) -> str:
    o = r.to_obj()
    lhs, rhs = o["lhs"], o["rhs"]
    params = ";".join(f"{k}={'' if v is None else v}" for k, v in o["params"].items())
    return _csv_writer().writerow([o["claim_id"], o["p"], params, o["precision"], lhs["exact"] or "",
                                   lhs["residue"], rhs["exact"] or "", rhs["residue"],
                                   o["diff_valuation"], o["verdict"]])


def _claim_reports() -> list[CongruenceReport]:
    # Every claim over a small grid at each prime it takes up to 11, the
    # p = 5 negative controls included, then bailey5's mod-p^5 control and
    # a K1 value past 4300 digits.
    ranges = {"N": range(3), "R": range(3), "n": range(6), "r": range(6), "e": range(1, 3),
              "n_parts": range(2, 4), "s": range(1, 3), "d": range(1, 3)}
    reports = [rep for claim in CLAIMS for p in (3, 5, 7, 11) if p >= claim.min_p
               for rep in grid_reports(claim.id, p, ranges)]
    return reports + [check_bailey5(5, 1, 1, 4, 1, precision=5),
                      check_kazandzidis(1009, 12, 6, form="K1")]


def test_line_writer_matches_the_encoder_on_every_claim():
    reports = _claim_reports()
    ids = {r.claim_id for r in reports}
    assert ids == {rid for claim in CLAIMS for rid in claim.reports}  # h12 and h12p too
    assert any(not r.ok for r in reports) and any(r.p == 5 and not r.ok for r in reports)
    assert any(r.diff_valuation == math.inf for r in reports)
    assert reports[-1].lhs_exact is not None and '"lhs":{"exact":null' in encode_report(reports[-1])
    for r in reports:
        assert encode_report(r) == _json_oracle(r), r
        assert encode_report(r, "csv") == _csv_oracle(r), r


def test_line_writer_matches_the_encoder_on_synthetic_reports():
    # Params with negative and huge ints, bools, None, floats and strings
    # that need escaping; claim ids that need escaping; signed exact values.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.one_of(st.integers(-10**40, 10**40), st.booleans(), st.text(max_size=6),
                      st.none(), st.floats(allow_nan=False), st.lists(st.integers(), max_size=2))
    exact = st.one_of(st.none(), st.fractions())

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        claim_id=st.text(max_size=8), p=st.integers(2, 10**6), precision=st.integers(1, 9),
        residues=st.tuples(st.integers(0, 10**12), st.integers(0, 10**12)),
        dv=st.one_of(st.integers(-3, 70), st.just(math.inf)), verdict=st.sampled_from(("pass", "fail")),
        lhs=exact, rhs=exact, params=st.dictionaries(st.text(max_size=5), value, max_size=5),
    )
    def check(claim_id, p, precision, residues, dv, verdict, lhs, rhs, params):
        r = CongruenceReport(claim_id, p, precision, *residues, dv, verdict, lhs, rhs, params)
        assert encode_report(r) == _json_oracle(r)
        assert encode_report(r, "csv") == _csv_oracle(r)

    check()


def test_an_exact_value_past_4300_digits_is_null():
    # 10^4300 has 4301 digits; -(10^4300 - 1) has 4300, the most written.
    rep = congruence_report("x", 7, 1, Fraction(10**4300, 3), -(10**4300 - 1), {"n": -1})
    line = encode_report(rep)
    assert line == _json_oracle(rep)
    assert '"lhs":{"exact":null' in line and f'"exact":"-{10**4300 - 1}/1"' in line
