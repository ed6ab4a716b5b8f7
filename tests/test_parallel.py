import multiprocessing
import os
import subprocess
import sys

import pytest

from wolsten import parallel
from wolsten.parallel import cap_workers, parallel_map


def _pid(_):
    return os.getpid()


class TestCapWorkers:
    def test_clamps_to_the_cpus_and_to_one(self):
        assert cap_workers(8, 2) == 2
        assert cap_workers(10**6, 4) == 4
        assert cap_workers(3, 16) == 3
        assert cap_workers(2, 2) == 2
        assert cap_workers(1, 2) == 1
        assert cap_workers(0, 4) == 1
        assert cap_workers(-3, 4) == 1


class TestParallelMap:
    def test_inline_when_one_worker(self):
        assert set(parallel_map(_pid, range(5), 1)) == {os.getpid()}

    def test_order_kept_under_chunking(self):
        items = list(range(1000))  # chunks of 1000 // (64 * 2) = 7 items
        assert parallel_map(str, items, 2) == [str(i) for i in items]
        assert parallel_map(str, [], 2) == []
        assert parallel_map(str, [5], 2) == ["5"]

    @pytest.mark.skipif(parallel._usable_cpus() < 2, reason="needs two usable CPUs")
    def test_one_pool_serves_every_call(self):
        first = set(parallel_map(_pid, range(500), 2))
        second = set(parallel_map(_pid, range(500), 2))
        assert os.getpid() not in first
        assert len(first) <= 2
        assert second <= first

    @pytest.mark.skipif(
        parallel._usable_cpus() < 2 or "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs two usable CPUs and the forkserver start method",
    )
    def test_script_without_main_guard_under_forkserver(self, tmp_path):
        # forkserver, the Linux default from Python 3.14, re-imports a script
        # in its workers, and one without a __main__ guard then breaks the
        # pool.  `python -c` is never re-imported, so this needs a file.
        script = tmp_path / "no_guard.py"
        script.write_text(
            "import multiprocessing\n"
            "multiprocessing.set_start_method('forkserver')\n"
            "from wolsten.parallel import parallel_map\n"
            "print(parallel_map(str, range(10), 2))\n"
        )
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{[str(i) for i in range(10)]}\n"
