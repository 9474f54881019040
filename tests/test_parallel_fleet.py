"""WorkerFleet: start failures, isolate-and-retry, remote errors, shutdown.

The workers run a tiny echo/crash target, so no model is ever loaded.
"""

import multiprocessing
import os
import sys
import threading

import pytest

from repro.parallel.fleet import WorkerFleet, serve_worker
from repro.parallel.seeding import derive_seed


class FleetError(RuntimeError):
    pass


class FleetClosed(FleetError):
    pass


class RemoteFailure(RuntimeError):
    pass


def _setup(config):
    if config.get("fail_setup"):
        raise RuntimeError("setup exploded")
    return config.get("log")


def _record(log):
    with open(log, "a") as handle:
        handle.write(f"{os.getpid()}\n")


def _echo(log, value):
    return value, os.getpid()


def _crash(log):
    _record(log)
    os._exit(3)


def _crash_once(log, marker):
    _record(log)
    if not os.path.exists(marker):
        open(marker, "w").close()
        os._exit(3)
    return os.getpid()


def _raise(log):
    raise ValueError("bad input")


def echo_main(rank, conn, config):
    serve_worker(conn, "echo", rank, config, _setup,
                 {"echo": _echo, "crash": _crash, "crash_once": _crash_once,
                  "raise": _raise})


class EchoFleet(WorkerFleet):
    fleet_role = "echo"
    worker_label = "echo worker"
    work_unit = "call"
    fleet_error = FleetError
    closed_error = FleetClosed
    remote_error = RemoteFailure

    def __init__(self, size=1, **config):
        WorkerFleet.__init__(self)
        self.config = config
        self._start_workers(size)

    def _worker_spec(self):
        return echo_main, self.config

    def close(self):
        self._closed = True
        self._stop_workers()


def _children():
    return {child.pid for child in multiprocessing.active_children()}


@pytest.fixture
def log(tmp_path):
    return str(tmp_path / "attempts.log")


@pytest.fixture
def fleet(log):
    baseline = _children()
    fleet = EchoFleet(size=1, log=log, seed=7)
    yield fleet
    fleet.close()
    assert _children() == baseline


def _attempt_pids(log):
    with open(log) as handle:
        return [int(pid) for pid in handle.read().split()]


class TestStart:
    def test_ready_ack_carries_identity(self, fleet):
        info = fleet._workers[0].info
        assert info["rank"] == 0 and info["pid"] != os.getpid()
        assert info["seed"] == derive_seed(7, "echo", 0)
        assert info["depth"] == 1 and info["effective_jobs"] == 1

    def test_setup_failure_reports_the_child_traceback(self, log):
        baseline = _children()
        with pytest.raises(FleetError, match="failed to start") as raised:
            EchoFleet(size=2, log=log, fail_setup=True)
        message = str(raised.value)
        assert "RuntimeError: setup exploded" in message
        assert "Traceback" in message and "_setup" in message
        assert _children() == baseline


class TestCalls:
    def test_echo_round_trip(self, fleet):
        value, pid = fleet._call(fleet._workers[0], ("echo", [1, 2, 3]))
        assert value == [1, 2, 3] and pid == fleet._workers[0].info["pid"]

    def test_death_mid_call_respawns_and_retries_exactly_once(self, fleet, log,
                                                              tmp_path):
        first = fleet._workers[0].info["pid"]
        pid = fleet._call(fleet._workers[0],
                          ("crash_once", str(tmp_path / "crashed")))
        attempts = _attempt_pids(log)
        assert len(attempts) == 2  # the crashed attempt and one retry
        assert attempts == [first, pid] and pid != first
        assert fleet.restarts == 1 and fleet._workers[0].restarts == 1
        assert fleet._workers[0].info["pid"] == pid

    def test_second_death_raises_the_owner_error(self, fleet, log):
        with pytest.raises(FleetError, match="died twice") as raised:
            fleet._call(fleet._workers[0], ("crash",))
        assert not isinstance(raised.value, FleetClosed)
        assert len(_attempt_pids(log)) == 2
        assert fleet.restarts == 1
        # The next call finds the worker dead and respawns it once more.
        value, _ = fleet._call(fleet._workers[0], ("echo", "again"))
        assert value == "again" and fleet.restarts == 2

    def test_remote_error_carries_worker_traceback_without_retry(self, fleet):
        pid = fleet._workers[0].info["pid"]
        with pytest.raises(RemoteFailure, match="worker traceback") as raised:
            fleet._call(fleet._workers[0], ("raise",))
        assert "ValueError: bad input" in str(raised.value)
        assert "_raise" in str(raised.value)
        assert fleet.restarts == 0
        assert fleet._call(fleet._workers[0], ("echo", 1)) == (1, pid)

    def test_unknown_command_is_a_remote_error(self, fleet):
        with pytest.raises(RemoteFailure, match="unknown echo command"):
            fleet._call(fleet._workers[0], ("nope",))
        assert fleet.restarts == 0

    def test_death_after_close_raises_the_closed_error(self, fleet):
        handle = fleet._workers[0]
        handle.process.kill()
        handle.process.join(10)
        assert not handle.alive
        fleet._closed = True
        with pytest.raises(FleetClosed, match="in flight"):
            fleet._call(handle, ("echo", 1))
        assert fleet.restarts == 0


class TestConcurrentRespawns:
    def test_restarts_counted_once_per_respawn_across_threads(self, log,
                                                               tmp_path):
        # More workers than cores, each driven by its own thread, all dying
        # mid-call at once: a lost update on the shared counter would show.
        size = (os.cpu_count() or 1) + 2
        baseline = _children()
        fleet = EchoFleet(size=size, log=log)
        pids, errors = {}, []

        def drive(handle):
            try:
                pids[handle.rank] = fleet._call(
                    handle, ("crash_once", str(tmp_path / f"crashed-{handle.rank}")))
            except BaseException as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=drive, args=(handle,))
                       for handle in fleet._workers]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
            fleet.close()
        assert not errors
        assert len(pids) == size
        assert fleet.restarts == size
        assert [handle.restarts for handle in fleet._workers] == [1] * size
        assert _children() == baseline


class TestClose:
    def test_close_is_idempotent_and_reaps_every_child(self, log):
        baseline = _children()
        fleet = EchoFleet(size=2, log=log)
        assert len(_children() - baseline) == 2
        fleet.close()
        fleet.close()
        assert all(not handle.alive for handle in fleet._workers)
        assert _children() == baseline
