"""The record types: immutable NamedTuples whose constructors check their fields."""

import pickle

import pytest

from wolsten import parallel
from wolsten.bernoulli import IrregularRecord
from wolsten.errors import PreconditionError
from wolsten.harmonic import Composition
from wolsten.padic import PrimePower, Residue
from wolsten.parallel import parallel_map
from wolsten.report import CongruenceReport
from wolsten.suite import QuadrupleHit, check_bailey5, find_exact_quadruples, lookup_claim


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
