"""Run one wolsten CLI invocation in this process, optionally traced.

    python bench/probe.py plain|traced RESULT.json -- CLI ARGS...
    python bench/probe.py micro RESULT.json P50K P1M P2M

The benchmark starts this script in a fresh interpreter with the
checkout's src/ on PYTHONPATH, as the CLI itself would run.  It times the
imports, then calls wolsten.cli.main on the arguments and writes a JSON
result.

``traced`` replaces the public functions of each module, in the
namespaces of the modules that call them, with wrappers that record a
span (name, parent, start, end) in memory.  ``plain`` wraps only
parallel_map, with a timer, so that the parallel job can be timed at one
and at two workers.  ``micro`` times single-prime scans and a pool start.
Nothing in src/ is changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import statistics
import sys
import time
from collections import Counter

perf = time.perf_counter


class Tracer:
    """Spans kept in memory: spans[i] = (name, parent index, start, end)."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.parallel_calls: list = []  # (items, results), sized after the run

    def span(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx] = (name, parent, start, perf())
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        import oracles  # after the import timing: it loads numpy

        m = modules
        tally = self.counts

        def bits(args, result):
            tally["binomial.exact_bits"] += (
                result.bit_length() if isinstance(result, int)
                else result.numerator.bit_length() + result.denominator.bit_length()
            )

        def records(args, result):
            tally["bernoulli.records"] += len(args[0])

        def report_bytes(args, result):
            tally["report.bytes"] += len(result)

        def checks(args, result):
            tally["suite.checks"] += len(result)

        def search_tuples(args, result):
            tally["suite.search_tuples"] += oracles.search_decided(args[0])

        task_names = {"_scan_block": "bernoulli.scan_block", "_grid_one": "suite.grid_task",
                      "_search_rows": "suite.search_rows"}

        def parallel(orig):
            def wrapper(fn, items, workers):
                items = list(items)
                inner = self.span(task_names.get(fn.__name__, fn.__name__), fn)
                results = orig(inner, items, workers)
                self.parallel_calls.append((items, results))
                return results

            return self.span("parallel.parallel_map", wrapper)

        plan = [
            ("cli", "irregular_scan", "bernoulli.irregular_scan", None),
            ("cli", "records_to_jsonl", "bernoulli.records_to_jsonl", records),
            ("cli", "grid_reports", "suite.grid_reports", None),
            ("cli", "find_exact_quadruples", "suite.find_exact_quadruples", search_tuples),
            ("cli", "reports_to_jsonl", "report.reports_to_jsonl", report_bytes),
            ("cli", "primes_in_range", "padic.primes_in_range", None),
            ("cli", "mhs_exact", "harmonic.mhs_exact", None),
            ("cli", "mhs_mod", "harmonic.mhs_mod", None),
            ("bernoulli", "primes_in_range", "padic.primes_in_range", None),
            ("bernoulli", "mhs_mod", "harmonic.mhs_mod", None),
            ("bernoulli", "reduce_mod", "padic.reduce_mod", None),
            ("suite", "run_check", "suite.run_check", checks),
            ("suite", "binom", "binomial.binom", bits),
            ("suite", "ratio", "binomial.ratio", None),
            ("suite", "binom_mod", "binomial.binom_mod", None),
            ("suite", "valuation", "padic.valuation", None),
            ("suite", "padic_congruent", "padic.padic_congruent", None),
            ("suite", "reduce_mod", "padic.reduce_mod", None),
            ("suite", "mhs_exact", "harmonic.mhs_exact", None),
            ("suite", "composition_sum", "harmonic.composition_sum", None),
            ("suite", "composition_sum_exact", "harmonic.composition_sum_exact", None),
            ("suite", "h12_checks", "harmonic.h12_checks", None),
            ("suite", "genwols_check", "harmonic.genwols_check", None),
            ("suite", "bernoulli_exact", "bernoulli.bernoulli_exact", None),
            ("suite", "wolstenholme_quotient", "bernoulli.wolstenholme_quotient", None),
            ("binomial", "binom", "binomial.binom", bits),
            ("binomial", "rising_binom", "binomial.rising_binom", bits),
            ("harmonic", "mhs_exact", "harmonic.mhs_exact", None),
            ("harmonic", "mhs_mod", "harmonic.mhs_mod", None),
            ("harmonic", "padic_congruent", "padic.padic_congruent", None),
            ("harmonic", "reduce_mod", "padic.reduce_mod", None),
            ("harmonic", "valuation", "padic.valuation", None),
        ]
        for mod, attr, name, after in plan:
            setattr(m[mod], attr, self.span(name, getattr(m[mod], attr), after))
        for mod in ("suite", "bernoulli"):
            m[mod].parallel_map = parallel(m[mod].parallel_map)

    def ipc_bytes(self) -> tuple[int, int]:
        tasks = sum(len(items) for items, _ in self.parallel_calls)
        size = sum(
            len(pickle.dumps(x)) for items, results in self.parallel_calls for x in (*items, *results)
        )
        return tasks, size


def timed_parallel(modules: dict, total: list) -> None:
    """Accumulate the wall time spent inside parallel_map into total[0]."""
    for mod in ("suite", "bernoulli"):
        orig = modules[mod].parallel_map

        def wrapper(fn, items, workers, orig=orig):
            start = perf()
            try:
                return orig(fn, items, workers)
            finally:
                total[0] += perf() - start

        modules[mod].parallel_map = wrapper


def main() -> int:
    mode, result_path, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if rest[:1] == ["--"]:
        rest = rest[1:]
    start = perf()
    import numpy  # noqa: F401

    numpy_done = perf()
    import wolsten.cli as cli

    cli_done = perf()
    from wolsten import bernoulli, binomial, harmonic, parallel, suite

    modules = {"cli": cli, "suite": suite, "bernoulli": bernoulli,
               "binomial": binomial, "harmonic": harmonic}
    out = {"import_numpy_s": numpy_done - start, "import_s": cli_done - start}
    if mode == "micro":
        kernel = {}
        for p in map(int, rest):
            reps = 5 if p < 10**5 else 1
            times = []
            for _ in range(reps):
                t0 = perf()
                bernoulli.irregular_scan(p, p)
                times.append(perf() - t0)
            kernel[str(p)] = statistics.median(times) * 1e3
        starts = []
        for _ in range(3):
            t0 = perf()
            parallel.parallel_map(abs, [0, 1], 2)
            starts.append(perf() - t0)
        out.update(kernel_ms=kernel, pool_start_s=statistics.median(starts))
    else:
        tracer = Tracer() if mode == "traced" else None
        par = [0.0]
        if tracer:
            tracer.install(modules)
        else:
            timed_parallel(modules, par)
        t0 = perf()
        with contextlib.redirect_stdout(io.StringIO()) as captured:
            code = cli.main(rest)
        t1 = perf()
        out.update(code=code, main_s=t1 - t0, parallel_s=par[0], stdout=captured.getvalue())
        if tracer:
            tasks, size = tracer.ipc_bytes()
            out.update(
                spans=[("cli.main", -1, t0, t1)] + [
                    (n, (p + 1 if p >= 0 else 0), s, e) for n, p, s, e in tracer.spans
                ],
                counts=dict(tracer.counts, **{"parallel.tasks": tasks, "parallel.ipc_bytes": size}),
            )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
