import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from bsderisk import (
    DomainError,
    DomainGuardViolation,
    claim_from_label,
    cli,
    diagnostics,
    measure_from_label,
    run_taxonomy,
    taxonomy_rows,
)
from bsderisk.parallel import in_processes

from conftest import ROOT


def _pid_of(x):
    # later items finish first, so the order of the results is the items'
    time.sleep(0.02 * (4 - x))
    return x, os.getpid()


def _fails_at_two(x):
    if x == 2:
        raise ValueError(f"row {x} is bad")
    return x


class Unrebuildable(RuntimeError):
    """Pickles, but its pickle cannot rebuild it (init takes two arguments)."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _raise(exc):
    if exc is not None:
        raise exc


def _nested(items):
    return multiprocessing.current_process().daemon, in_processes(_pid_of, items)


class TestInProcesses:
    def test_results_keep_item_order_and_come_from_workers(self, usable_cpus):
        usable_cpus(2)
        for _ in range(2):  # the first call leaves no thread that would keep the second serial
            got = in_processes(_pid_of, range(5))
            assert [x for x, _ in got] == list(range(5))
            assert os.getpid() not in {pid for _, pid in got}
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("why", ["one_cpu", "no_fork", "one_item", "a_thread_runs"])
    def test_serial_in_this_process(self, usable_cpus, monkeypatch, why):
        usable_cpus(1 if why == "one_cpu" else 2)
        if why == "no_fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        items = [0] if why == "one_item" else [0, 1, 2]
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        if why == "a_thread_runs":
            waiter.start()
        try:
            assert in_processes(_pid_of, items) == [(x, os.getpid()) for x in items]
        finally:
            release.set()
        if why == "a_thread_runs":
            waiter.join(timeout=10)
            assert not waiter.is_alive()

    def test_without_sched_getaffinity_reads_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert in_processes(_pid_of, [0, 1]) == [(0, os.getpid()), (1, os.getpid())]
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert os.getpid() not in {pid for _, pid in in_processes(_pid_of, [0, 1])}

    def test_error_in_one_item_reaches_the_caller_and_no_child_is_left(self, usable_cpus):
        usable_cpus(2)
        with pytest.raises(ValueError, match="row 2 is bad"):
            in_processes(_fails_at_two, range(6))
        assert multiprocessing.active_children() == []
        assert in_processes(_fails_at_two, [0, 1]) == [0, 1]  # the next call starts afresh

    def test_error_in_one_taxonomy_row_reaches_the_caller(self, ctx20, usable_cpus, monkeypatch):
        usable_cpus(2)
        check = diagnostics.check_restriction

        def failing(ctx, measure, *args):
            if measure.label == "driver:quad_z":
                raise DomainError("exp_q", 99.0, 0.5, "x < 2")
            return check(ctx, measure, *args)

        monkeypatch.setattr(diagnostics, "check_restriction", failing)
        rows = [(measure_from_label(lbl, ctx20.grid), claim_from_label(claim_lbl, 15))
                for lbl, claim_lbl in taxonomy_rows()[:4]]
        with pytest.raises(DomainError, match=r"^exp_q: x=99\.0 outside domain for q=0\.5 \(requires x < 2\)$"):
            run_taxonomy(ctx20, rows, 0, 10, 15, 20)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("exc", [
        DomainError("ln_q", -1.0, 0.5, "x > 0"),
        DomainGuardViolation(3, 5, -1.5, "q_entropic:0.5"),
    ], ids=["DomainError", "DomainGuardViolation"])
    def test_package_errors_keep_their_type_and_fields(self, usable_cpus, exc):
        usable_cpus(2)
        with pytest.raises(type(exc)) as caught:
            in_processes(_raise, [exc, None])
        assert str(caught.value) == str(exc) and vars(caught.value) == vars(exc)
        assert multiprocessing.active_children() == []

    def test_error_its_pickle_cannot_rebuild_is_named(self, usable_cpus):
        # the pool's result thread would stall on it; it travels as a RuntimeError
        usable_cpus(2)
        with pytest.raises(RuntimeError, match="^Unrebuildable: 1 and 2$"):
            in_processes(_raise, [Unrebuildable(1, 2), None])
        assert multiprocessing.active_children() == []

    def test_sigterm_stops_the_workers(self, tmp_path):
        # the first task sends SIGTERM to the caller while every task sleeps:
        # the caller exits 143 and takes its workers with it, none of them
        # left to finish its task and fail to send the result back
        script = f"""
import os, signal, time
os.sched_getaffinity = lambda pid: {{0, 1}}
from bsderisk.parallel import in_processes

def task(x):
    open(os.path.join({str(tmp_path)!r}, str(os.getpid())), "w").close()
    if x == 0:
        time.sleep(0.5)
        os.kill(os.getppid(), signal.SIGTERM)
    time.sleep(20)

in_processes(task, range(4))
"""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        started = time.monotonic()
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 128 + signal.SIGTERM, done.stderr
        assert "Traceback" not in done.stderr
        assert time.monotonic() - started < 15  # no task ran to its end
        pids = [int(f.name) for f in tmp_path.iterdir()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_inside_a_daemonic_worker_runs_serially(self, usable_cpus):
        usable_cpus(2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            daemon, got = pool.apply_async(_nested, ([0, 1, 2],)).get(timeout=60)
        assert daemon
        assert [x for x, _ in got] == [0, 1, 2] and len({pid for _, pid in got}) == 1
        assert os.getpid() not in {pid for _, pid in got}


class TestCommandsAtOneAndTwoWorkers:
    """A verify bundle and a sweep have the same bytes whether their tasks
    run in this process or in two forked workers."""

    @staticmethod
    def outputs(argv, out, task, usable_cpus, monkeypatch, process_log):
        """{file name: bytes} of one command at 1 and at 2 usable CPUs, after
        checking that `task` (module, function name) ran only in this process
        at one and only in workers at two."""
        module, name = task
        original = getattr(module, name)

        def logged(*args, **kwargs):
            process_log.add(len(os.sched_getaffinity(0)))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, logged)
        outputs = {}
        for n in (1, 2):
            usable_cpus(n)
            cli.main(["--paths", "2000", "--steps", "8", "--out", str(out / str(n)), *argv])
            assert multiprocessing.active_children() == []
            outputs[n] = {f.name: f.read_bytes() for f in (out / str(n)).iterdir() if f.name != "config.txt"}
        where = {(n, pid == os.getpid()) for pid, (n,) in process_log.records()}
        assert where == {(1, True), (2, False)}
        return outputs

    def test_verify_bundle(self, tmp_path, usable_cpus, monkeypatch, process_log, capsys):
        got = self.outputs(["verify"], tmp_path, (diagnostics, "run_check"), usable_cpus, monkeypatch, process_log)
        assert set(got[1]) == {"checks.jsonl", "checks.csv", "summary.json"}
        assert got[2] == got[1]

    def test_sweep_csv(self, tmp_path, usable_cpus, monkeypatch, process_log, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("[run]\nmeasure = qent_bsde:{q},0\nt = 0\nu = 1\nv = 1\n\n"
                          "[sweep]\nvalues = 0.25,0.5,1\n")
        got = self.outputs(["--config", str(config), "sweep"], tmp_path, (cli, "_value"), usable_cpus, monkeypatch,
                           process_log)
        assert set(got[1]) == {"sweep.csv"} and got[1]["sweep.csv"].count(b"\n") == 4
        assert got[2] == got[1]
