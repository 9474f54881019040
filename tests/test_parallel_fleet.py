"""WorkerFleet: start failures, isolate-and-retry, remote errors, shutdown.

The workers run a tiny echo/crash target, so no model is ever loaded, except
in the last two classes, which close each of the three real owners and check
how their workers boot from the fork server.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
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


def _block(log):
    _record(log)
    threading.Event().wait()


def echo_main(rank, conn, config):
    serve_worker(conn, "echo", rank, config, _setup,
                 {"echo": _echo, "crash": _crash, "crash_once": _crash_once,
                  "raise": _raise, "block": _block})


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


def _repro_threads():
    return sum(thread.name.startswith("repro-")
               for thread in threading.enumerate())


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


class TestDispatch:
    def test_every_job_runs_once_on_its_dispatchers_worker(self, log):
        # More workers than cores, all pulling from one queue with a short
        # switch interval: a job lost or run twice would show in the results.
        size = (os.cpu_count() or 1) + 2
        threads = _repro_threads()
        fleet = EchoFleet(size=size, log=log)
        ran = []

        def run(handle, value):
            ran.append(value)
            return (fleet._call(handle, ("echo", value)), handle.rank,
                    threading.current_thread().name)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert _repro_threads() == threads + size
            jobs = [fleet._submit(lambda handle, value=value: run(handle, value))
                    for value in range(8 * size)]
            done = [job.result(timeout=60) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
            fleet.close()
        assert sorted(ran) == list(range(8 * size))
        assert [value for (value, _), _, _ in done] == list(range(8 * size))
        for (_, pid), rank, thread in done:
            assert pid == fleet._workers[rank].info["pid"]
            assert thread == f"repro-echo-dispatch-{rank}"
        assert _repro_threads() == threads

    def test_submit_after_close_raises_the_closed_error(self, fleet):
        fleet.close()
        with pytest.raises(FleetClosed, match="stopped"):
            fleet._submit(lambda handle: None)

    def test_stop_cancels_queued_jobs_and_terminates_a_wedged_worker(
            self, log):
        baseline, threads = _children(), _repro_threads()
        fleet = EchoFleet(size=1, log=log)
        job = fleet._submit(lambda handle: fleet._call(handle, ("block",)))
        queued = fleet._submit(lambda handle: fleet._call(handle, ("echo", 1)))
        deadline = time.monotonic() + 60
        while not os.path.exists(log) and time.monotonic() < deadline:
            time.sleep(0.01)  # the block command has reached the worker
        started = time.monotonic()
        fleet._stop_workers(timeout=0.5)
        assert time.monotonic() - started < 10
        with pytest.raises(FleetClosed, match="in flight"):
            job.result(timeout=10)
        assert queued.cancelled()  # never started, so never run
        assert fleet.restarts == 0
        assert _children() == baseline and _repro_threads() == threads


def _close_pool(tmp_path, kill):
    from repro.io import save_bundle
    from repro.models import SimpleCNN
    from repro.serve import InferenceSession, ProcessPoolEngine

    model = SimpleCNN(num_classes=4, neuron_type="proposed", rank=2,
                      base_width=4, image_size=8, seed=0)
    bundle = save_bundle(tmp_path / "model.npz", model,
                         info={"input_shape": [3, 8, 8]})
    engine = ProcessPoolEngine(InferenceSession(bundle, max_batch=4), workers=2)
    try:
        engine.predict(np.zeros((2, 3, 8, 8), dtype=np.float32), timeout=60)
        if kill:
            _sigkill(engine._workers[0].process)
    finally:
        engine.close()


def _close_trainer(tmp_path, kill):
    from repro import nn
    from repro.data import DataLoader
    from repro.models import MLPClassifier
    from repro.optim import SGD
    from repro.training import DataParallelTrainer

    model = MLPClassifier(8, 2, hidden_sizes=(16,), seed=0)
    trainer = DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                                  nn.CrossEntropyLoss(), world_size=2,
                                  workers=2, seed=0)
    inputs = np.ones((8, 8), dtype=np.float32)
    try:
        trainer.fit(DataLoader(inputs, np.zeros(8, dtype=np.int64),
                               batch_size=8), epochs=1)
        if kill:
            _sigkill(trainer._workers[0].process)
    finally:
        trainer.close()


def _close_sweep(tmp_path, kill):
    from repro.parallel import Task, run_tasks

    def on_event(event):
        if kill and event.key == "t0" and event.kind == "submitted":
            _sigkill(next(child for child in multiprocessing.active_children()
                          if child.name == "repro-sweep-0"))

    tasks = [Task(key=f"t{index}", fn="repro.parallel.seeding:derive_seed",
                  kwargs={"root_seed": index}) for index in range(4)]
    results = run_tasks(tasks, jobs=2, on_event=on_event)
    assert [result.value for result in results] == \
        [derive_seed(index) for index in range(4)]


def _sigkill(process):
    os.kill(process.pid, signal.SIGKILL)
    process.join(10)


class TestOwnersCloseClean:
    @pytest.mark.parametrize("kill", [False, True], ids=["normal", "sigkilled"])
    @pytest.mark.parametrize("close", [_close_pool, _close_trainer, _close_sweep],
                             ids=["pool", "trainer", "sweep"])
    def test_threads_and_children_return_to_baseline(self, tmp_path, close,
                                                     kill):
        baseline, threads = _children(), _repro_threads()
        close(tmp_path, kill)
        assert _repro_threads() == threads
        assert _children() == baseline


PROBE_ENV = "FLEET_PROBE_ENV"


def _pool_engine(tmp_path):
    from repro.io import save_bundle
    from repro.models import SimpleCNN
    from repro.serve import InferenceSession, ProcessPoolEngine

    model = SimpleCNN(num_classes=4, neuron_type="proposed", rank=2,
                      base_width=4, image_size=8, seed=0)
    bundle = save_bundle(tmp_path / "model.npz", model,
                         info={"input_shape": [3, 8, 8]})
    return ProcessPoolEngine(InferenceSession(bundle, max_batch=4), workers=2)


def env_probe_pool_main(rank, conn, config):
    """A pool worker that also answers ``("getenv", name)``."""
    from repro.serve import pool

    serve_worker(conn, "serve-pool", rank, config, pool._load_session,
                 {"predict": pool._predict, "warm": pool._warm,
                  "getenv": lambda session, name: os.environ.get(name)})


def _pool_preloaded(tmp_path):
    engine = _pool_engine(tmp_path)
    try:
        return [worker["preloaded"] for worker in engine.stats()["per_worker"]]
    finally:
        engine.close()


def _trainer_preloaded(tmp_path):
    from repro import nn
    from repro.data import DataLoader
    from repro.models import MLPClassifier
    from repro.optim import SGD
    from repro.training import DataParallelTrainer

    model = MLPClassifier(8, 2, hidden_sizes=(16,), seed=0)
    with DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                             nn.CrossEntropyLoss(), world_size=2, workers=2,
                             seed=0) as trainer:
        trainer.fit(DataLoader(np.ones((8, 8), dtype=np.float32),
                               np.zeros(8, dtype=np.int64), batch_size=8),
                    epochs=1)
        return [worker["preloaded"]
                for worker in trainer.describe()["per_worker"]]


def _sweep_preloaded(tmp_path):
    from repro.parallel.executor import _SweepFleet

    fleet = _SweepFleet()
    fleet._start_workers(2)
    try:
        return [handle.info["preloaded"] for handle in fleet._workers]
    finally:
        fleet._stop_workers()


#: Builds a two-worker trainer, prints its worker pids and the fork server's
#: pid, then waits to be killed.
ORPHAN_SCRIPT = """
import json, sys
from multiprocessing import forkserver
import numpy as np
from repro import nn
from repro.data import DataLoader
from repro.models import MLPClassifier
from repro.optim import SGD
from repro.training import DataParallelTrainer

model = MLPClassifier(8, 2, hidden_sizes=(16,), seed=0)
trainer = DataParallelTrainer(model, SGD(model.parameters(), lr=0.1),
                              nn.CrossEntropyLoss(), world_size=2, workers=2)
trainer.fit(DataLoader(np.ones((8, 8), dtype=np.float32),
                       np.zeros(8, dtype=np.int64), batch_size=8), epochs=1)
print(json.dumps({
    "workers": [worker["pid"] for worker in trainer.describe()["per_worker"]],
    "forkserver": forkserver._forkserver._forkserver_pid}), flush=True)
sys.stdin.read()
"""


def _running(pid):
    """Has ``pid`` not exited?  A zombie has exited; its reaper is not ours."""
    try:
        os.kill(pid, 0)
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (ProcessLookupError, FileNotFoundError):
        return False


class TestForkserverBoot:
    @pytest.mark.parametrize("preloaded", [_pool_preloaded, _trainer_preloaded,
                                           _sweep_preloaded],
                             ids=["pool", "trainer", "sweep"])
    def test_every_owner_forks_workers_from_the_preloaded_server(
            self, tmp_path, preloaded):
        assert preloaded(tmp_path) == [True, True]

    def test_workers_see_the_environment_at_their_start(self, tmp_path,
                                                        monkeypatch):
        from repro.parallel import Task, run_tasks
        from repro.serve import pool

        engine = _pool_engine(tmp_path)  # the fork server is up from here on
        try:
            monkeypatch.setenv(PROBE_ENV, "set after the server booted")
            tasks = [Task(key=f"t{index}", fn="os:getenv",
                          kwargs={"key": PROBE_ENV}) for index in range(2)]
            assert [result.value for result in run_tasks(tasks, jobs=2)] == \
                ["set after the server booted"] * 2
            monkeypatch.setattr(pool, "worker_main", env_probe_pool_main)
            _sigkill(engine._workers[0].process)
            assert engine._call(engine._workers[0], ("getenv", PROBE_ENV)) == \
                "set after the server booted"
            assert engine.restarts == 1
        finally:
            engine.close()

    def test_no_process_outlives_a_sigkilled_owner(self):
        owner = subprocess.Popen([sys.executable, "-c", ORPHAN_SCRIPT],
                                 stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                 text=True)
        try:
            started = json.loads(owner.stdout.readline())
            pids = started["workers"] + [started["forkserver"]]
            assert len(set(pids)) == 3 and all(map(_running, pids))
        finally:
            owner.kill()
            owner.wait(30)
            owner.stdin.close()
            owner.stdout.close()
        deadline = time.monotonic() + 30
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
