import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsderisk import LsmcContext, RegressionBasis, TimeGrid, simulate
from bsderisk.diagnostics import TAXONOMY


@pytest.fixture(scope="session")
def ctx50():
    """Workhorse context: T=1, 50 steps, 50k paths, degree-4 basis."""
    grid = TimeGrid(1.0, 50)
    ens = simulate(grid, n_paths=50_000, seed=123)
    return LsmcContext(grid, ens, RegressionBasis(4))


@pytest.fixture(scope="session")
def ctx20():
    """Cheap context for check-level tests: 20 steps, 10k paths."""
    grid = TimeGrid(1.0, 20)
    ens = simulate(grid, n_paths=10_000, seed=777)
    return LsmcContext(grid, ens, RegressionBasis(4))


@pytest.fixture(scope="session")
def b1(ctx50):
    """Terminal Brownian level B_1 on the workhorse ensemble."""
    return ctx50.ensemble.values[:, 50, 0]


ROOT = Path(__file__).resolve().parents[1]

# The driver generators of the verify suite's taxonomy, each once, in order.
TAXONOMY_DRIVERS = list(dict.fromkeys(gen for _, gen in TAXONOMY.values() if not gen.startswith("family:")))

# The OpenBLAS thread counts a determinism test compares: 1 and 2, and up to 4
# where the machine has the cores (OpenBLAS caps its pool at the core count).
_MOST_THREADS = min(os.cpu_count() or 1, 4)
BLAS_THREADS = (1, 2, _MOST_THREADS) if _MOST_THREADS > 2 else (1, 2)


def run_at_blas_threads(args, threads: int) -> str:
    """Run python with args in a fresh process on the source tree, its BLAS
    pool pinned to `threads`; assert it exits 0 and return its stdout."""
    n = str(threads)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n,
               MKL_NUM_THREADS=n)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def stderr(values) -> float:
    values = np.asarray(values)
    return float(np.std(values) / np.sqrt(values.size))


@pytest.fixture
def usable_cpus(monkeypatch):
    """Call with n to make `in_processes` see n usable CPUs, whatever the
    machine has (it reads os.sched_getaffinity, where the platform has it)."""

    def force(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return force


class ProcessLog:
    """Records made in this process or in any process forked from it, read
    back as (pid, record) pairs, each process's in the order it made them.
    Every process appends to a file of its own, so no writer ever waits for
    the reader."""

    def __init__(self, directory: Path):
        self.dir = directory

    def add(self, *record) -> None:
        with open(self.dir / f"{os.getpid()}.pickle", "ab") as fh:
            pickle.dump(record, fh)

    def records(self) -> list:
        out = []
        for path in sorted(self.dir.glob("*.pickle")):
            with open(path, "rb") as fh:
                while fh.peek(1):
                    out.append((int(path.stem), pickle.load(fh)))
        return out


@pytest.fixture
def process_log(tmp_path):
    log_dir = tmp_path / "process_log"
    log_dir.mkdir()
    return ProcessLog(log_dir)
