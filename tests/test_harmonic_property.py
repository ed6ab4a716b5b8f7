"""Property test: the exact evaluator's integer route and cache against
the Fraction recurrence, on random compositions and call sequences."""

import pytest

pytest.importorskip("hypothesis")

from fraction_reference import compositions, mhs_prefixes  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wolsten.harmonic import Composition, mhs_exact  # noqa: E402

# every composition of weight <= 6
PARTS = st.integers(1, 6).flatmap(lambda weight: st.sampled_from(compositions(weight)))


@settings(max_examples=60, deadline=None)
@given(parts=PARTS, ns=st.lists(st.integers(0, 120), min_size=1, max_size=8))
def test_mhs_exact_matches_reference(parts, ns):
    want = mhs_prefixes(parts, max(ns))
    for n in ns:
        assert mhs_exact(Composition(parts), n) == want[n]
