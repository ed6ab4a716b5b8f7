"""Command-line front end.

Subcommands: verify (run one claim over explicit parameters or a grid),
scan (irregular pairs), search (mod-p^5 quadruples), mhs and bernoulli
(ad hoc values), report (re-render a JSON report as a table).

Exit codes: 0 when every asserted check passed, 1 when any asserted check
failed, 2 on usage or configuration errors.  Report files are
byte-identical for identical configurations, whatever the worker count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .bernoulli import (
    bernoulli_exact,
    irregular_scan,
    read_checkpoint,
    records_to_csv,
    records_to_jsonl,
)
from .binomial import _TABLE_CAP
from .errors import WolstenError
from .harmonic import Composition, mhs_exact, mhs_mod
from .padic import PrimePower, format_rational, is_prime, primes_in_range, reduce_mod
from .report import encode_report, join_lines, render_table, table_row
# grid_reports and reports_to_jsonl are unused here; bench/probe.py patches them.
from .report import reports_to_jsonl  # noqa: F401
from .suite import (  # noqa: F401
    CLAIMS,
    Claim,
    find_exact_quadruples,
    grid_lines,
    grid_reports,
    lookup_claim,
)


def _workers(args: argparse.Namespace) -> int:
    env = os.environ.get("WOLSTEN_WORKERS")
    if getattr(args, "workers", None) is not None:
        w = args.workers
    elif env:
        try:
            w = int(env)
        except ValueError:
            raise WolstenError(f"WOLSTEN_WORKERS must be an integer, got {env!r}") from None
    else:
        w = 1
    if w < 1:
        raise WolstenError(f"workers must be >= 1, got {w}")
    return w


def _out_path(raw: str) -> Path:
    # A relative --out (or report --in) path is taken under WOLSTEN_OUTDIR.
    path = Path(raw)
    outdir = os.environ.get("WOLSTEN_OUTDIR")
    if outdir and not path.is_absolute():
        path = Path(outdir) / path
    return path


def _check_writable(path: Path | str) -> None:
    """WolstenError (exit 2) naming path unless a file can be written there.

    Commands call it before their work, so that a run does not compute
    everything and then fail to save it.
    """
    path = Path(path)
    if path.is_dir():
        problem = "it is a directory"
    elif not path.parent.is_dir():
        problem = f"{path.parent} is not a directory"
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise WolstenError(f"cannot write {path}: {problem}")


def _out_file(args: argparse.Namespace) -> Path | None:
    """The --out path, checked for writing; None without --out."""
    if not args.out:
        return None
    path = _out_path(args.out)
    _check_writable(path)
    return path


def _write(path: Path | None, text: str, append: bool = False) -> None:
    """Write text to path (appending to it if asked), or to stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "a" if append else "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise WolstenError(f"cannot write {path}: {exc.strerror or exc}") from None


def _primes_for(args: argparse.Namespace, claim: Claim) -> list[int]:
    # A range skips the primes below the claim's smallest; a --p there is an error.
    if args.p is not None:
        if not is_prime(args.p):
            raise WolstenError(f"--p {args.p} is not prime")
        return [args.p]
    if args.pmin is not None and args.pmax is not None:
        primes = primes_in_range(max(args.pmin, claim.min_p), args.pmax)
        if not primes:
            raise WolstenError(f"[{args.pmin}, {args.pmax}] has no prime >= {claim.min_p}, "
                               f"the smallest claim {claim.id} takes")
        return primes
    raise WolstenError("give either --p or both --pmin and --pmax")


# When only the upper of a constrained pair is bounded (r <= n, R <= N),
# the lower one inherits the bound; the claim's domain filter trims it.
_CAP_FALLBACKS = {"r": "n", "R": "N"}


# The parameter flags of verify as argparse dests, in help order (a flag
# the claim does not take is reported in this order); NAME_max bounds NAME.
_PARAM_DESTS = ("N", "R", "n", "r", "e", "s", "d", "n_parts", "N_max", "R_max", "n_max", "r_max")


def _param_ranges(claim: Claim, args: argparse.Namespace) -> dict[str, range]:
    for dest in _PARAM_DESTS:
        if getattr(args, dest) is not None and dest.removesuffix("_max") not in claim.params:
            raise WolstenError(f"claim {claim.id!r} does not take --{dest.replace('_', '-')}")
    ranges: dict[str, range] = {}
    for name in claim.params:
        flag = name.replace("_", "-")
        scalar = getattr(args, name)
        cap = getattr(args, f"{name}_max", None)
        if cap is None and name in _CAP_FALLBACKS:
            cap = getattr(args, f"{_CAP_FALLBACKS[name]}_max", None)
        if scalar is not None:
            ranges[name] = range(scalar, scalar + 1)
        elif cap is not None:
            ranges[name] = range(0, cap + 1)
        else:
            grid = f" or --{flag}-max" if f"{name}_max" in _PARAM_DESTS else ""
            raise WolstenError(f"claim {claim.id!r} needs --{flag}{grid}")
    return ranges


def _cmd_verify(args: argparse.Namespace) -> int:
    claim = lookup_claim(args.claim)
    ranges = _param_ranges(claim, args)
    workers = _workers(args)
    out = _out_file(args)
    results = []
    exploratory = True  # verdicts at a claim's exploratory primes are not asserted
    for p in _primes_for(args, claim):
        lines = grid_lines(
            claim.id, p, ranges, precision=args.precision, workers=workers, fmt=args.format
        )
        exploratory &= not lines or p in claim.exploratory
        results += lines
    if not results:
        raise WolstenError("no parameter combinations matched the claim's domain")

    if out:
        _write(out, join_lines((line for line, _ in results), args.format))
    failed = [r for _, r in results if r is not None]
    print(f"{claim.id}: {len(results) - len(failed)}/{len(results)} pass")
    for r in failed[:20]:
        print(
            f"  FAIL p={r.p} {r.params}: lhs={r.lhs_residue} rhs={r.rhs_residue} "
            f"v(diff)={r.diff_valuation} (mod {r.p}^{r.precision})"
        )
    if len(failed) > 20:
        print("  ...")
    if exploratory:
        print("exploratory run: verdicts reported, not asserted")
        return 0
    return 1 if failed else 0


def _cmd_scan(args: argparse.Namespace) -> int:
    workers = _workers(args)
    p_min, p_max = args.pmin, args.pmax
    out = _out_file(args)  # both files are checked before any prime is scanned
    if args.checkpoint:
        _check_writable(args.checkpoint)
    start = p_min  # a resumed scan starts after the checkpoint's last prime
    if args.resume:
        if not args.checkpoint:
            raise WolstenError("--resume requires --checkpoint")
        has_ck = Path(args.checkpoint).exists()
        # Resuming needs both halves of an interrupted run, or neither.
        if out and out.exists() != has_ck:
            raise WolstenError(
                f"cannot resume into {out} from checkpoint {args.checkpoint}: "
                f"{out if has_ck else args.checkpoint} does not exist"
            )
        if has_ck:
            ck = read_checkpoint(args.checkpoint)
            if (ck["p_min"], ck["p_max"]) != (p_min, p_max):
                raise WolstenError(
                    f"checkpoint {args.checkpoint} covers [{ck['p_min']}, {ck['p_max']}], "
                    f"not [{p_min}, {p_max}]"
                )
            start = ck["last_p"] + 1
    records = irregular_scan(
        p_min, p_max, workers=workers, checkpoint_path=args.checkpoint, start=start
    )
    emitted = [r for r in records if r.irregular] if args.irregular_only else records
    append = bool(out and args.resume and out.exists())  # then no second CSV header
    if args.format == "csv":
        _write(out, records_to_csv(emitted, new_file=not append), append)
    else:  # bench/probe.py counts the records through this call
        _write(out, records_to_jsonl(emitted), append)
    irregular = [r.p for r in records if r.irregular]
    print(
        f"scanned {len(records)} primes in [{start}, {p_max}]; "
        f"irregular: {irregular if irregular else 'none'}",
        file=sys.stderr,
    )
    return 0


def _search_top(p: int) -> int:
    # The largest binomial argument a search at p hands binom_mod.
    return (p - 1) * p**3 + p - 1


def _cmd_search(args: argparse.Namespace) -> int:
    out = _out_file(args)
    if _search_top(args.p) > _TABLE_CAP:
        fits = max(q for q in primes_in_range(7, args.p) if _search_top(q) <= _TABLE_CAP)
        raise WolstenError(
            f"--p {args.p}: the search's largest binomial argument, {_search_top(args.p)}, "
            f"exceeds the {_TABLE_CAP}-entry prefix table of binom_mod; the largest prime "
            f"it takes is {fits}"
        )
    hits = find_exact_quadruples(args.p, workers=_workers(args))
    _write(out, join_lines(encode_report(h) for h in hits))
    nontrivial = [h for h in hits if h.nontrivial]
    print(
        f"p={args.p}: {len(hits)} hits, {len(nontrivial)} nontrivial",
        file=sys.stderr,
    )
    return 0


def _printable(value: Fraction, flag: str) -> str:
    # str() of an int raises ValueError past Python's int-to-string limit;
    # raising the limit would print megabytes.
    try:
        return format_rational(value)
    except ValueError:
        raise WolstenError(
            f"{flag}: the exact value has more digits than Python's int-to-string "
            f"limit of {sys.get_int_max_str_digits()}; give --mod for a residue"
        ) from None


def _cmd_mhs(args: argparse.Namespace) -> int:
    comp = Composition.parse(args.s)
    if args.mod:
        m = PrimePower.parse(args.mod)
        value = mhs_mod(comp, args.n, m)
        print(f"H({comp};{args.n}) = {value} (mod {m})")
    else:
        value = mhs_exact(comp, args.n)
        print(f"H({comp};{args.n}) = {_printable(value, f'--n {args.n}')}")
    return 0


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    b = bernoulli_exact(args.k, bound=max(args.k, 400))
    if args.mod:
        m = PrimePower.parse(args.mod)
        print(f"B_{args.k} = {reduce_mod(b, m)} (mod {m})")
    else:
        print(f"B_{args.k} = {_printable(b, f'--k {args.k}')}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    path = _out_path(getattr(args, "in"))
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        objs = [(i, json.loads(line)) for i, line in enumerate(lines, 1) if line]
    except (OSError, json.JSONDecodeError) as exc:
        raise WolstenError(f"cannot read report {path}: {exc}") from exc
    if not objs:
        raise WolstenError(f"report {path} is empty")
    verify_report = isinstance(objs[0][1], dict) and "claim_id" in objs[0][1]
    rows = []
    for i, o in objs:
        try:
            rows.append(table_row(o) if verify_report else _scan_line(o))
        except (KeyError, TypeError, AttributeError):
            kind = "verify report" if verify_report else "scan record"
            raise WolstenError(f"{path} line {i}: malformed {kind}") from None
    if verify_report:
        sys.stdout.write(render_table(rows))
        n_pass = sum(row[-1] == "pass" for row in rows)
        print(f"{n_pass}/{len(rows)} pass")
    else:
        for row in rows:
            print(row)
        n_irr = sum(bool(o.get("irregular")) for _, o in objs)
        print(f"{len(rows)} records, {n_irr} irregular")
    return 0


def _scan_line(o: dict) -> str:
    flag = " irregular" if o.get("irregular") else ""
    return f"p={o['p']}  w_mod_p={o['w_mod_p']}  b_pm3_mod_p={o['b_pm3_mod_p']}{flag}"


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wolsten",
        description="Verify Wolstenholme-type binomial congruences and harmonic-sum identities.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one claim over parameters or a grid")
    names = ", ".join(name for c in CLAIMS for name in (c.id, *c.aliases))
    v.add_argument("--claim", required=True, help=f"one of: {names}")
    v.add_argument("--p", type=int)
    v.add_argument("--pmin", type=int)
    v.add_argument("--pmax", type=int)
    for dest in _PARAM_DESTS:
        v.add_argument(f"--{dest.replace('_', '-')}", dest=dest, type=int)
    v.add_argument("--precision", type=int, help="override the modulus exponent")
    v.add_argument("--workers", type=int)
    v.add_argument("--out")
    v.add_argument("--format", choices=("json", "csv"), default="json")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser("scan", help="scan primes for irregular pairs (p, p-3)")
    s.add_argument("--pmin", type=int, default=5)
    s.add_argument("--pmax", type=int, required=True)
    s.add_argument("--workers", type=int)
    s.add_argument("--out")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--checkpoint")
    s.add_argument("--resume", action="store_true")
    s.add_argument(
        "--irregular-only", action="store_true",
        help="emit only records with irregular=true (useful for long runs)",
    )
    s.set_defaults(func=_cmd_scan)

    q = sub.add_parser("search", help="exhaustive mod-p^5 quadruple search")
    q.add_argument("--p", type=int, required=True)
    # Ignored; the frozen benchmark's verify workload passes it. Drop at its next change.
    q.add_argument("--method", choices=("modular",), help=argparse.SUPPRESS)
    q.add_argument("--workers", type=int)
    q.add_argument("--out")
    q.set_defaults(func=_cmd_search)

    m = sub.add_parser("mhs", help="evaluate a multiple harmonic sum")
    m.add_argument("--s", required=True, help='composition, e.g. "1,2" or "1^3"')
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--mod", help='prime-power modulus, e.g. "7^3"')
    m.set_defaults(func=_cmd_mhs)

    b = sub.add_parser("bernoulli", help="evaluate a Bernoulli number")
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--mod", help='prime-power modulus, e.g. "7^1"')
    b.set_defaults(func=_cmd_bernoulli)

    r = sub.add_parser("report", help="render a JSON report as a table")
    r.add_argument("--in", required=True)
    r.set_defaults(func=_cmd_report)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except WolstenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
