import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bsderisk import LsmcContext, RegressionBasis, TimeGrid, simulate


@pytest.fixture(scope="session")
def ctx50():
    """Workhorse context: T=1, 50 steps, 50k paths, degree-4 basis."""
    grid = TimeGrid(1.0, 50)
    ens = simulate(grid, d=1, n_paths=50_000, seed=123)
    return LsmcContext(grid, ens, RegressionBasis(4))


@pytest.fixture(scope="session")
def ctx20():
    """Cheap context for check-level tests: 20 steps, 10k paths."""
    grid = TimeGrid(1.0, 20)
    ens = simulate(grid, d=1, n_paths=10_000, seed=777)
    return LsmcContext(grid, ens, RegressionBasis(4))


@pytest.fixture(scope="session")
def b1(ctx50):
    """Terminal Brownian level B_1 on the workhorse ensemble."""
    return ctx50.ensemble.values[:, 50, 0]


ROOT = Path(__file__).resolve().parents[1]

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
