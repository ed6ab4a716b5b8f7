"""Property tests of the CLI contract: random small argv for verify, search,
mhs and bernoulli, and every claim at its domain edges with p below 1000,
end in exit code 0, 1 or 2, never in an exception; an exit of 2 prints
one line.

Sizes stay small so that each property runs in a few seconds.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wolsten.cli import main  # noqa: E402
from wolsten.padic import primes_in_range  # noqa: E402
from wolsten.suite import CLAIMS, PARAM_DESTS  # noqa: E402

SMALL = st.one_of(st.integers(0, 4), st.integers(-2, 4))
PRIME_ISH = st.one_of(st.sampled_from([5, 7, 11, 13]), st.integers(-3, 14))
MODULI = st.sampled_from(["7^2", "5", "6^2", "7^0", "x", "11^3"])


@st.composite
def verify_argv(draw):
    claim = draw(st.sampled_from(CLAIMS))
    name = draw(st.sampled_from((claim.id, *claim.aliases)))
    argv = ["verify", "--claim", name if draw(st.integers(0, 19)) else "riemann"]
    if draw(st.booleans()):
        argv += ["--p", str(draw(PRIME_ISH))]
    else:
        lo = draw(PRIME_ISH)
        argv += ["--pmin", str(lo), "--pmax", str(lo + draw(st.integers(-1, 10)))]
    # Mostly the claim's own parameters, scalar or as a grid bound; now
    # and then one missing, or a flag the claim does not take.
    flags = [
        draw(st.sampled_from([param, f"{param}_max"] if f"{param}_max" in PARAM_DESTS else [param]))
        for param in claim.params
        if draw(st.integers(0, 9))
    ]
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(PARAM_DESTS)))
    for dest in dict.fromkeys(flags):
        argv += [f"--{dest.replace('_', '-')}", str(draw(SMALL))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--precision", str(draw(st.integers(-1, 7)))]
    argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
    return argv


@st.composite
def search_argv(draw):
    return ["search", "--p", str(draw(st.integers(-2, 13)))]


@st.composite
def mhs_argv(draw):
    s = draw(st.sampled_from(["1", "1,2", "2^2", "1^3", "0", "a", "", "3,-1", "1,1,1,1,1,1"]))
    argv = ["mhs", "--s", s, "--n", str(draw(st.integers(-2, 40)))]
    return argv + (["--mod", draw(MODULI)] if draw(st.booleans()) else [])


@st.composite
def bernoulli_argv(draw):
    argv = ["bernoulli", "--k", str(draw(st.integers(-2, 60)))]
    return argv + (["--mod", draw(MODULI)] if draw(st.booleans()) else [])


@pytest.fixture(scope="module")
def outs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return {"file": root / "out.txt", "missing-dir": root / "missing" / "out.txt",
            "directory": root}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    argv=st.one_of(verify_argv(), search_argv(), mhs_argv(), bernoulli_argv()),
    workers=st.sampled_from([None, "1", "2"]),
    out=st.sampled_from([None, "file", "missing-dir", "directory"]),
)
def test_exit_code_is_0_1_or_2(argv, workers, out, outs):
    if workers and argv[0] in ("verify", "search"):
        argv = argv + ["--workers", workers]
    if out and argv[0] in ("verify", "search"):
        argv = argv + ["--out", str(outs[out])]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if out in ("missing-dir", "directory") and argv[0] in ("verify", "search"):
        assert code == 2, (argv, stderr.getvalue())


# --------------------------------------------------------------------------
# Every claim at its domain edges: one property per claim id.

PRIMES = primes_in_range(2, 1000)
# Theorem 2's c, H({s}^d; p - 1) and the composition sums are exact; at
# depth near p their cost grows as p^4 (genwols --p 997 --s 1 --d 994 ran
# past 20 s), so those two claims' deep points are drawn below 100.
_DEEP_BELOW = 100


def _edge_value(draw, name: str, p: int) -> int:
    half = p // 2
    if name in ("N", "R"):
        return draw(st.integers(0, 3))
    if name == "n":
        return draw(st.sampled_from([p - 2, p - 1, p, 0, 1, half]))
    if name == "r":
        return draw(st.sampled_from([half - 1, half, half + 1, p - 2, 0, 1]))
    if name == "e":
        return draw(st.integers(1, 3))
    if name == "n_parts":
        deep = [p - 3, p - 2, p - 1] if p < _DEEP_BELOW else []
        return draw(st.sampled_from([2, 3, 4, *deep]))
    raise AssertionError(name)


@st.composite
def edge_argv(draw, claim):
    name = draw(st.sampled_from((claim.id, *claim.aliases)))
    if claim.params and draw(st.integers(0, 3)) == 0:
        # A grid: primes below 60, each bound at most 6.
        lo = draw(st.sampled_from([p for p in PRIMES if p < 60]))
        hi = draw(st.sampled_from([p for p in PRIMES if lo <= p < 60]))
        argv = ["--pmin", str(lo), "--pmax", str(hi)]
        for param in claim.params:
            flag = f"{param}_max" if f"{param}_max" in PARAM_DESTS else param
            argv += [f"--{flag.replace('_', '-')}", str(draw(st.integers(0, 6)))]
    else:
        p = draw(st.sampled_from(PRIMES))
        argv = ["--p", str(p)]
        if claim.id == "genwols":  # s * d at and near its bound p - 3
            s = draw(st.integers(1, 3))
            d = max(1, (p - 3) // s - draw(st.integers(0, 1))) if p < _DEEP_BELOW else 1
            values = {"s": s, "d": d}
        else:
            values = {name: _edge_value(draw, name, p) for name in claim.params}
        for param in claim.params:
            argv += [f"--{param.replace('_', '-')}", str(values[param])]
    return ["verify", "--claim", name, *argv, "--format", draw(st.sampled_from(["json", "csv"]))]


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.id for c in CLAIMS])
def test_every_claim_at_its_domain_edges(claim):
    # 30 examples a claim: about 2 s for all fourteen on a 2-core machine.
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=edge_argv(claim))
    def run(argv):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, (argv, err)
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: "), (argv, err)

    run()
