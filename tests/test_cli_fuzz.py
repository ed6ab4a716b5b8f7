"""Property test of the CLI contract: random small argv for verify, search,
mhs and bernoulli end in exit code 0, 1 or 2, never in an exception.

Sizes stay small so that the whole property runs in a few seconds.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wolsten.cli import main  # noqa: E402
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
