"""Parallel execution subsystem: locks, seeding, executor, parallel sweeps.

The process-pool tests need task functions and experiment specs that are
importable *by name* inside spawned worker processes (the executor ships only
dotted references across the process boundary).  A session-scoped fixture
writes a helper module to a temp directory; per-test fixtures put it on
``sys.path`` / ``$PYTHONPATH`` and name it in ``$REPRO_EXPERIMENT_MODULES``
so both the parent and fresh worker interpreters can resolve everything.
"""

import multiprocessing
import os
import random
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest

import repro
from repro.experiments.registry import unregister
from repro.experiments.runner import run_experiment, run_many
from repro.io import atomic_publish
from repro.io.serialization import atomic_write_json
from repro.parallel import (
    FileLock,
    LockTimeout,
    ParallelTaskError,
    Task,
    TaskEvent,
    derive_seed,
    effective_jobs,
    parallel_depth,
    resolve_callable,
    run_tasks,
)
from repro.parallel.seeding import seed_task_globals
from repro.parallel.worker import DEPTH_ENV

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

HELPER_MODULE = "repro_par_helpers"

#: Specs the helper module registers (cleaned out of the parent's registry
#: after each test so the registry-completeness test stays truthful).
PROBE_SPECS = ("par_slow", "par_det", "par_flaky", "par_bad")

HELPER_SOURCE = '''
"""Importable-by-name task functions and probe experiment specs for tests."""
import os
import time

import numpy as np

from repro.experiments.registry import register


def square(x):
    return x * x


def slow_square(x, delay=0.2):
    time.sleep(delay)
    return x * x


def global_rand(label):
    # Deliberately uses the *global* legacy RNG: only the executor's
    # deterministic per-task seeding makes this reproducible.
    return {"label": label, "value": float(np.random.random())}


def fail_until(marker_path, attempts_needed=1, value=7):
    count = 1
    if os.path.exists(marker_path):
        with open(marker_path) as handle:
            count = int(handle.read() or 0) + 1
    with open(marker_path, "w") as handle:
        handle.write(str(count))
    if count <= attempts_needed:
        raise RuntimeError(f"transient failure #{count}")
    return value


def always_fail(**_ignored):
    raise ValueError("permanent failure")


def hard_crash():
    os._exit(13)  # simulates a segfaulted / OOM-killed worker


def _log_run(log, key):
    with open(log, "a") as handle:
        handle.write(f"{key} {os.getpid()}\\n")


def logged_crash(log):
    _log_run(log, "crash")
    os._exit(13)


def logged_sleep(log, key, delay=0.3):
    _log_run(log, key)
    time.sleep(delay)
    return key


def grid_cell(scale, depth):
    return {"depth": depth, "scale_seed": scale["seed"] if isinstance(scale, dict)
            else scale.seed}


def _slow_runner(scale):
    log = os.environ.get("PAR_PROBE_LOG")
    if log:
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()}\\n")
    time.sleep(float(os.environ.get("PAR_PROBE_SLEEP", "0.2")))
    return {"rows": [1, 2, 3], "report": "slow probe"}


def _det_runner(scale):
    return {"rows": [{"i": i, "v": i * (scale.seed + 1)} for i in range(4)],
            "report": "deterministic probe"}


def _flaky_runner(scale):
    marker = os.environ["PAR_PROBE_FLAKY_MARKER"]
    fail_until(marker, attempts_needed=1, value=0)
    return {"rows": ["recovered"], "report": "flaky probe"}


def _bad_runner(scale):
    raise RuntimeError("driver exploded")


def register_probes():
    register(name="par_slow", artifact="Test", title="slow probe",
             runner=_slow_runner)
    register(name="par_det", artifact="Test", title="deterministic probe",
             runner=_det_runner)
    register(name="par_flaky", artifact="Test", title="flaky probe",
             runner=_flaky_runner)
    register(name="par_bad", artifact="Test", title="always-failing probe",
             runner=_bad_runner)


register_probes()
'''


@pytest.fixture(scope="session")
def helper_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("par_helpers")
    (directory / f"{HELPER_MODULE}.py").write_text(HELPER_SOURCE)
    return directory


@pytest.fixture
def helper_env(helper_dir, monkeypatch):
    """Make the helper module importable here and in spawned workers."""
    monkeypatch.syspath_prepend(str(helper_dir))
    existing = os.environ.get("PYTHONPATH", "")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        part for part in (SRC_DIR, str(helper_dir), existing) if part))
    monkeypatch.setenv("REPRO_EXPERIMENT_MODULES", HELPER_MODULE)
    module = __import__(HELPER_MODULE)
    module.register_probes()  # re-register (idempotent) after prior cleanup
    yield module
    for name in PROBE_SPECS:
        unregister(name)


def ref(function_name: str) -> str:
    return f"{HELPER_MODULE}:{function_name}"


class TestFileLock:
    def test_exclusive_across_handles(self, tmp_path):
        path = tmp_path / "x.lock"
        with FileLock(path):
            with pytest.raises(LockTimeout):
                FileLock(path, timeout=0.2, poll_interval=0.02).acquire()
        # Released: a fresh handle acquires immediately.
        with FileLock(path, timeout=0.2):
            pass

    def test_threads_serialize_critical_section(self, tmp_path):
        path = tmp_path / "y.lock"
        active = []
        overlaps = []

        def worker():
            with FileLock(path):
                active.append(1)
                overlaps.append(len(active))
                time.sleep(0.05)
                active.pop()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert max(overlaps) == 1

    def test_released_on_exception(self, tmp_path):
        path = tmp_path / "z.lock"
        with pytest.raises(RuntimeError):
            with FileLock(path):
                raise RuntimeError("boom")
        with FileLock(path, timeout=0.2):
            pass

    def test_not_reentrant(self, tmp_path):
        lock = FileLock(tmp_path / "r.lock")
        with lock:
            with pytest.raises(RuntimeError, match="already held"):
                lock.acquire()


class TestSeeding:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(0, "fig4", 20) == derive_seed(0, "fig4", 20)
        assert derive_seed(0, "fig4", 20) != derive_seed(0, "fig4", 32)
        assert derive_seed(0, "fig4", 20) != derive_seed(1, "fig4", 20)
        assert 0 <= derive_seed(0, "anything") < 2 ** 32

    def test_component_order_matters(self):
        assert derive_seed(0, "a", "b") != derive_seed(0, "b", "a")

    def test_bits_bound_the_seed(self):
        assert 0 <= derive_seed(0, "fig4", bits=16) < 2 ** 16
        wide = derive_seed(0, "fig4", bits=64)
        assert 0 <= wide < 2 ** 64
        # The narrower seed is the leading bytes of the same digest.
        assert wide >> 48 == derive_seed(0, "fig4", bits=16)

    def test_seed_task_globals_resets_global_streams(self):
        seed_task_globals(derive_seed(0, "task"))
        first = (random.random(), np.random.random())
        random.random(), np.random.random()
        seed_task_globals(derive_seed(0, "task"))
        assert (random.random(), np.random.random()) == first
        seed_task_globals(derive_seed(0, "other"))
        assert (random.random(), np.random.random()) != first


class TestResolveCallable:
    def test_resolves_dotted_reference(self):
        assert resolve_callable("os.path:join") is os.path.join

    def test_rejects_malformed_and_noncallable(self):
        with pytest.raises(ValueError, match="module:attribute"):
            resolve_callable("os.path.join")
        with pytest.raises(TypeError, match="non-callable"):
            resolve_callable("os:sep")


class TestExecutorInline:
    def test_results_in_submission_order(self, helper_env):
        tasks = [Task(key=f"t{i}", fn=ref("square"), kwargs={"x": i})
                 for i in range(5)]
        results = run_tasks(tasks, jobs=1)
        assert [result.value for result in results] == [0, 1, 4, 9, 16]
        assert all(result.ok and result.attempts == 1 for result in results)

    def test_transient_failure_retried_once(self, helper_env, tmp_path):
        marker = tmp_path / "attempts"
        events = []
        [result] = run_tasks(
            [Task(key="flaky", fn=ref("fail_until"),
                  kwargs={"marker_path": str(marker), "attempts_needed": 1})],
            jobs=1, retries=1, on_event=events.append)
        assert result.ok and result.value == 7 and result.attempts == 2
        assert [event.kind for event in events] == ["submitted", "retrying", "completed"]

    def test_permanent_failure_reported_not_raised(self, helper_env):
        events = []
        results = run_tasks(
            [Task(key="bad", fn=ref("always_fail")),
             Task(key="good", fn=ref("square"), kwargs={"x": 3})],
            jobs=1, retries=1, on_event=events.append)
        assert not results[0].ok and "permanent failure" in results[0].error
        assert results[0].attempts == 2 and "ValueError" in results[0].traceback
        assert results[1].ok and results[1].value == 9
        assert [e.kind for e in events if e.key == "bad"] == \
            ["submitted", "retrying", "failed"]

    def test_duplicate_keys_rejected(self, helper_env):
        tasks = [Task(key="same", fn=ref("square"), kwargs={"x": 1}),
                 Task(key="same", fn=ref("square"), kwargs={"x": 2})]
        with pytest.raises(ValueError, match="unique"):
            run_tasks(tasks, jobs=1)

    def test_effective_jobs_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv(DEPTH_ENV, raising=False)
        assert effective_jobs(None) == 1
        assert effective_jobs(3) == 3
        assert effective_jobs("auto") == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert effective_jobs(None) == 5
        monkeypatch.setenv(DEPTH_ENV, "1")
        assert parallel_depth() == 1
        assert effective_jobs(8) == 1  # nested fan-outs clamp to sequential


class TestProcessPool:
    def test_pool_preserves_order_and_isolates_pids(self, helper_env):
        tasks = [Task(key=f"t{i}", fn=ref("square"), kwargs={"x": i})
                 for i in range(4)]
        results = run_tasks(tasks, jobs=2)
        assert [result.value for result in results] == [0, 1, 4, 9]
        assert all(result.pid != os.getpid() for result in results)

    def test_seeded_global_rng_matches_inline(self, helper_env):
        tasks = [Task(key=f"rand{i}", fn=ref("global_rand"),
                      kwargs={"label": f"rand{i}"}) for i in range(3)]
        inline = run_tasks(tasks, jobs=1, seed=123)
        pooled = run_tasks(tasks, jobs=2, seed=123)
        assert [r.value for r in inline] == [r.value for r in pooled]
        values = [r.value["value"] for r in inline]
        assert len(set(values)) == len(values)  # distinct keys → distinct seeds

    def test_worker_exception_retried_then_reported(self, helper_env, tmp_path):
        events = []
        results = run_tasks(
            [Task(key="transient", fn=ref("fail_until"),
                  kwargs={"marker_path": str(tmp_path / "m"), "attempts_needed": 1}),
             Task(key="broken", fn=ref("always_fail")),
             Task(key="fine", fn=ref("square"), kwargs={"x": 6})],
            jobs=2, retries=1, on_event=events.append)
        transient, broken, fine = results
        assert transient.ok and transient.value == 7 and transient.attempts == 2
        assert not broken.ok and broken.attempts == 2
        assert fine.ok and fine.value == 36
        assert any(e.kind == "retrying" and e.key == "transient" for e in events)
        assert any(e.kind == "failed" and e.key == "broken" for e in events)

    def test_hard_worker_crash_is_contained(self, helper_env):
        results = run_tasks(
            [Task(key="crash", fn=ref("hard_crash")),
             Task(key="fine", fn=ref("square"), kwargs={"x": 5})],
            jobs=2, retries=1)
        crash, fine = results
        assert not crash.ok and "crashed" in crash.error
        assert fine.ok and fine.value == 25

    def test_single_task_runs_inline_without_a_pool(self, helper_env):
        [result] = run_tasks([Task(key="solo", fn=ref("square"),
                                   kwargs={"x": 7})], jobs=4)
        assert result.ok and result.value == 49
        assert result.pid == os.getpid()  # no pool spawned for one task

    def test_nested_fanout_clamped_inside_worker(self, helper_env):
        tasks = [Task(key=f"depth{i}", fn="repro.parallel.executor:effective_jobs",
                      kwargs={"jobs": 8}) for i in range(2)]
        results = run_tasks(tasks, jobs=2)
        assert all(result.ok and result.value == 1 for result in results)


class TestSweepFleet:
    """The pool path runs on ``repro-sweep-<rank>`` fleet workers."""

    def test_invalid_jobs_names_the_bad_input(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.delenv(DEPTH_ENV, raising=False)
        for bad in ("abc", "1.5", "two workers"):
            with pytest.raises(ValueError, match=r"--jobs must be an integer "
                                                 r"or 'auto'") as raised:
                effective_jobs(bad)
            assert repr(bad) in str(raised.value)
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match=r"\$REPRO_JOBS must be an integer "
                                             r"or 'auto', got 'two'"):
            effective_jobs(None)
        assert effective_jobs(" AUTO ") == (os.cpu_count() or 1)
        assert effective_jobs("-1") == (os.cpu_count() or 1)

    def test_crash_is_charged_only_to_its_own_task(self, helper_env, tmp_path):
        log = tmp_path / "runs.log"
        tasks = [Task(key="crash", fn=ref("logged_crash"), kwargs={"log": str(log)})]
        tasks += [Task(key=f"slow{i}", fn=ref("logged_sleep"),
                       kwargs={"log": str(log), "key": f"slow{i}"}) for i in range(5)]
        results = run_tasks(tasks, jobs=2, retries=1)
        runs = [line.split() for line in log.read_text().splitlines()]
        counts = Counter(key for key, _ in runs)
        assert counts["crash"] == 2
        assert all(counts[task.key] == 1 for task in tasks[1:])
        assert len({pid for key, pid in runs if key != "crash"}) <= 2 + 1
        crash, *innocent = results
        assert not crash.ok and crash.attempts == 2
        assert "worker process crashed" in crash.error
        assert all(result.ok and result.attempts == 1 for result in innocent)

    def test_event_stream_is_the_same_inline_and_pooled(self, helper_env, tmp_path):
        def kinds(jobs, extra=()):
            events, threads = [], set()

            def on_event(event):
                events.append(event)
                threads.add(threading.current_thread())

            tasks = [Task(key="transient", fn=ref("fail_until"),
                          kwargs={"marker_path": str(tmp_path / f"m{jobs}{len(extra)}"),
                                  "attempts_needed": 1}),
                     Task(key="broken", fn=ref("always_fail")),
                     Task(key="fine", fn=ref("square"), kwargs={"x": 6}), *extra]
            run_tasks(tasks, jobs=jobs, retries=1, on_event=on_event)
            assert threads == {threading.current_thread()}
            return {task.key: [event.kind for event in events if event.key == task.key]
                    for task in tasks}

        inline = kinds(1)
        assert inline == kinds(2)
        assert inline == {"transient": ["submitted", "retrying", "completed"],
                          "broken": ["submitted", "retrying", "failed"],
                          "fine": ["submitted", "completed"]}
        crashed = kinds(2, [Task(key="crash", fn=ref("hard_crash"))])
        assert crashed == {**inline, "crash": ["submitted", "retrying", "failed"]}

    @pytest.mark.parametrize("case", ["normal", "crash", "on_result_raises"])
    def test_no_leaked_workers_or_threads(self, helper_env, case):
        def repro_threads():
            return sum(thread.name.startswith("repro-")
                       for thread in threading.enumerate())

        children = {child.pid for child in multiprocessing.active_children()}
        threads = repro_threads()
        tasks = [Task(key=f"t{i}", fn=ref("slow_square"),
                      kwargs={"x": i, "delay": 0.1}) for i in range(4)]
        if case == "crash":
            tasks.append(Task(key="crash", fn=ref("hard_crash")))
        if case == "on_result_raises":
            def on_result(result):
                raise RuntimeError("reporter exploded")

            with pytest.raises(RuntimeError, match="reporter exploded"):
                run_tasks(tasks, jobs=2, on_result=on_result)
        else:
            results = run_tasks(tasks, jobs=2)
            assert [result.ok for result in results] == \
                [True] * 4 + [False] * (case == "crash")
        assert {child.pid for child in multiprocessing.active_children()} == children
        assert repro_threads() == threads


class TestRunnerParallel:
    def test_parallel_sweep_byte_identical_to_sequential(self, helper_env, tmp_path):
        names = ["par_det", "par_slow"]
        sequential = run_many(names, scale="smoke", cache_dir=tmp_path / "seq",
                              jobs=1)
        parallel = run_many(names, scale="smoke", cache_dir=tmp_path / "par",
                            jobs=2)
        assert all(outcome.ok and not outcome.cache_hit
                   for outcome in sequential + parallel)
        for seq_outcome, par_outcome in zip(sequential, parallel):
            assert seq_outcome.path.name == par_outcome.path.name
            assert seq_outcome.path.read_bytes() == par_outcome.path.read_bytes()
        # Repeat parallel invocation: 100% cache hits.
        again = run_many(names, scale="smoke", cache_dir=tmp_path / "par", jobs=2)
        assert all(outcome.cache_hit for outcome in again)

    def test_failed_experiment_does_not_abort_sweep(self, helper_env, tmp_path):
        outcomes = run_many(["par_bad", "par_det"], scale="smoke",
                            cache_dir=tmp_path, jobs=1)
        assert not outcomes[0].ok and "driver exploded" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].result["report"] == "deterministic probe"

    def test_flaky_experiment_retried_and_recovers(self, helper_env, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("PAR_PROBE_FLAKY_MARKER", str(tmp_path / "flaky"))
        outcomes = run_many(["par_flaky"], scale="smoke", cache_dir=tmp_path, jobs=1)
        assert outcomes[0].ok and outcomes[0].result["rows"] == ["recovered"]

    def test_two_processes_racing_one_key_train_exactly_once(self, helper_env,
                                                             tmp_path, monkeypatch):
        log = tmp_path / "train.log"
        monkeypatch.setenv("PAR_PROBE_LOG", str(log))
        monkeypatch.setenv("PAR_PROBE_SLEEP", "1.0")
        cache = tmp_path / "cache"
        script = (f"from repro.experiments.runner import run_experiment\n"
                  f"outcome = run_experiment('par_slow', scale='smoke', "
                  f"cache_dir={str(cache)!r})\n"
                  f"print('HIT' if outcome.cache_hit else 'RAN')")
        env = dict(os.environ)
        processes = [subprocess.Popen([sys.executable, "-c", script], env=env,
                                      stdout=subprocess.PIPE, text=True)
                     for _ in range(2)]
        outputs = [process.communicate(timeout=120)[0].strip()
                   for process in processes]
        assert all(process.returncode == 0 for process in processes)
        # The cache key was trained exactly once, by exactly one process...
        assert len(log.read_text().splitlines()) == 1
        # ...and the loser of the race came back as a cache hit.
        assert sorted(outputs) == ["HIT", "RAN"]
        assert len(list(cache.glob("par_slow-*.json"))) == 1

    def test_grid_fans_out_and_surfaces_failures(self, helper_env):
        from repro.experiments.common import run_model_grid
        from repro.experiments.config import get_scale

        scale = get_scale("smoke")
        rows = run_model_grid("probe", ref("grid_cell"),
                              [{"depth": d} for d in (8, 14, 20)], scale, jobs=1)
        assert [row["depth"] for row in rows] == [8, 14, 20]
        assert all(row["scale_seed"] == scale.seed for row in rows)
        with pytest.raises(ParallelTaskError, match="permanent failure"):
            run_model_grid("probe", ref("always_fail"),
                           [{"depth": 8}], scale, jobs=1)


class TestAtomicWrite:
    def test_writes_json_and_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"a": [1, 2], "b": "x"})
        import json
        assert json.loads(path.read_text()) == {"a": [1, 2], "b": "x"}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"version": 1})
        atomic_write_json(path, {"version": 2})
        import json
        assert json.loads(path.read_text()) == {"version": 2}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_publish_keeps_previous_bytes(self, tmp_path):
        path = tmp_path / "state.bin"
        with atomic_publish(path) as stream:
            stream.write(b"old")
        with pytest.raises(OSError, match="simulated"):
            with atomic_publish(path) as stream:
                stream.write(b"torn")
                raise OSError("simulated crash mid-write")
        assert path.read_bytes() == b"old"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_unserializable_payload_preserves_existing_file(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"ok": True})
        with pytest.raises(TypeError):
            atomic_write_json(path, {"bad": object()})
        import json
        assert json.loads(path.read_text()) == {"ok": True}
        assert list(tmp_path.glob("*.tmp")) == []
