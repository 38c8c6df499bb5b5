"""Tests for the resilient task runner.

Worker functions live at module top level so they are picklable by
reference.  Cross-process "fail exactly once" coordination uses marker
files claimed with ``O_CREAT | O_EXCL`` (atomic across processes).
"""

import logging
import os
import signal
import time

import pytest

import repro.exec.runner as runner_module
from repro.exec import (TASK_EXCEPTION, TASK_OK, TASK_TIMEOUT,
                        TASK_WORKER_CRASH, TaskExecutionError, TaskRunner)
from repro.obs.monitors import RunnerHealthMonitor
from repro.sim.monitor import TraceMonitor

# Several tests deliberately kill or poison pool workers; the pool's call
# queue feeder thread can die with a BrokenPipeError mid-teardown, which
# is part of the failure being simulated, not a defect under test.
pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning")


def _square(value):
    return value * value


def _claim_once(marker):
    """True for exactly one caller across all processes."""
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(handle)
    return True


def _flaky(task):
    """Raises on the first attempt of the marked value, then succeeds."""
    marker, value, flaky_value = task
    if value == flaky_value and _claim_once(marker):
        raise RuntimeError(f"transient failure on {value}")
    return value * value


def _always_fails(task):
    raise ValueError(f"permanent failure on {task}")


def _slow_once(task):
    """First attempt of the marked value stalls; the retry is instant."""
    marker, value, slow_value = task
    if value == slow_value and _claim_once(marker):
        time.sleep(1.5)
    return value * value


def _kill_once(task):
    """SIGKILLs its worker process on the marked value, exactly once."""
    marker, value, kill_value = task
    if value == kill_value and _claim_once(marker):
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _watched_runner(**kwargs):
    bus = TraceMonitor()
    health = RunnerHealthMonitor().attach(bus)
    return TaskRunner(bus=bus, **kwargs), bus, health


# ---------------------------------------------------------------------------
# Plain mapping
# ---------------------------------------------------------------------------

def test_map_matches_serial_comprehension():
    runner = TaskRunner(max_workers=2, force_pool=True)
    assert runner.map(_square, list(range(8))) == [n * n for n in range(8)]
    assert runner.pool_engaged


def test_map_serial_when_single_worker():
    runner = TaskRunner(max_workers=1)
    assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert not runner.pool_engaged
    assert runner.fallback_reason == "single worker"


def test_unpicklable_work_falls_back_to_serial():
    runner = TaskRunner(max_workers=2, force_pool=True)
    assert runner.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]
    assert not runner.pool_engaged
    assert runner.fallback_reason is not None


def _runner_records(caplog):
    return [record for record in caplog.records
            if record.name == runner_module.__name__]


def test_unpicklable_work_fallback_is_logged(caplog):
    runner = TaskRunner(max_workers=2, force_pool=True)
    with caplog.at_level(logging.WARNING, logger=runner_module.__name__):
        assert runner.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]
    (record,) = _runner_records(caplog)
    assert record.levelno == logging.WARNING
    assert runner.fallback_reason in record.getMessage()


def test_pool_start_failure_fallback_is_logged(monkeypatch, caplog):
    class ExplodingPool:
        def __init__(self, max_workers):
            raise OSError("no processes on this host")

    monkeypatch.setattr(runner_module, "ProcessPoolExecutor", ExplodingPool)
    runner = TaskRunner(max_workers=2, force_pool=True)
    with caplog.at_level(logging.WARNING, logger=runner_module.__name__):
        assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
    (record,) = _runner_records(caplog)
    assert "OSError: no processes on this host" in record.getMessage()


def test_planned_single_worker_run_is_not_logged(caplog):
    runner = TaskRunner(max_workers=1)
    with caplog.at_level(logging.DEBUG, logger=runner_module.__name__):
        assert runner.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert runner.fallback_reason == "single worker"
    assert _runner_records(caplog) == []


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError, match="retries"):
        TaskRunner(retries=-1)
    with pytest.raises(ValueError, match="task_timeout"):
        TaskRunner(task_timeout=0.0)
    with pytest.raises(ValueError, match="max_workers"):
        TaskRunner(max_workers=0).map(_square, [1])


# ---------------------------------------------------------------------------
# Retries
# ---------------------------------------------------------------------------

def test_transient_failure_retried_to_identical_result(tmp_path):
    marker = str(tmp_path / "flaky-marker")
    tasks = [(marker, value, 2) for value in range(5)]
    runner, _, health = _watched_runner(max_workers=2, force_pool=True,
                                        retries=2)
    report = runner.run(_flaky, tasks)

    assert [result.value for result in report.results] == [
        n * n for n in range(5)]
    assert all(result.status == TASK_OK for result in report.results)
    # The retry is visible in the TaskResult metadata...
    flaky_result = report.results[2]
    assert flaky_result.retried and flaky_result.attempts == 2
    assert report.retry_count == 1
    # ...and as typed events on the spine.
    assert health.retried_tasks() == [2]
    assert health.retries[0].reason == TASK_EXCEPTION
    assert "transient failure" in health.retries[0].error
    assert health.healthy


def test_transient_failure_retried_on_serial_path(tmp_path):
    marker = str(tmp_path / "serial-marker")
    runner = TaskRunner(max_workers=1, retries=1)
    report = runner.run(_flaky, [(marker, value, 1) for value in range(3)])
    assert [result.value for result in report.results] == [0, 1, 4]
    assert report.results[1].attempts == 2


def test_permanent_failure_has_structured_envelope():
    runner, _, health = _watched_runner(max_workers=2, force_pool=True,
                                        retries=1)
    report = runner.run(_always_fails, [10, 20])
    for result in report.results:
        assert result.status == TASK_EXCEPTION
        assert result.attempts == 2  # initial attempt + one retry
        assert result.error_type == "ValueError"
        assert "permanent failure" in result.error
        assert result.remote_traceback is not None
    assert [incident.reason for incident in health.failures] == [
        TASK_EXCEPTION, TASK_EXCEPTION]
    assert not health.healthy


def test_map_raises_task_execution_error_on_failure():
    runner = TaskRunner(max_workers=2, force_pool=True)
    with pytest.raises(TaskExecutionError, match="permanently failed"):
        runner.map(_always_fails, [1, 2])


def test_backoff_schedule_is_deterministic_and_capped():
    runner = TaskRunner(backoff_base=0.1, backoff_cap=0.5)
    delays = [runner._backoff_delay(n) for n in range(1, 6)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]
    assert TaskRunner()._backoff_delay(3) == 0.0


# ---------------------------------------------------------------------------
# Timeouts
# ---------------------------------------------------------------------------

def test_timeout_marks_task_and_keeps_others(tmp_path):
    marker = str(tmp_path / "never-claimed")
    runner = TaskRunner(max_workers=2, force_pool=True, task_timeout=0.4)
    report = runner.run(_slow_once, [(marker, 0, 1), (marker, 1, 1)])
    assert report.results[0].status == TASK_OK
    assert report.results[1].status == TASK_TIMEOUT
    assert report.results[1].error_type == "TimeoutError"


def test_timeout_retry_succeeds(tmp_path):
    marker = str(tmp_path / "slow-marker")
    runner, _, health = _watched_runner(max_workers=2, force_pool=True,
                                        task_timeout=0.4, retries=1)
    report = runner.run(_slow_once, [(marker, 0, 0), (marker, 1, 0)])
    assert [result.status for result in report.results] == [TASK_OK, TASK_OK]
    assert report.results[0].attempts == 2
    assert health.retries[0].reason == TASK_TIMEOUT


# ---------------------------------------------------------------------------
# Worker crashes
# ---------------------------------------------------------------------------

def test_worker_crash_reruns_only_unfinished(tmp_path):
    marker = str(tmp_path / "kill-marker")
    tasks = [(marker, value, 4) for value in range(8)]
    runner, _, health = _watched_runner(max_workers=2, force_pool=True)
    report = runner.run(_kill_once, tasks)

    assert [result.value for result in report.results] == [
        n * n for n in range(8)]
    assert report.pool_rebuilds_used == 1
    assert all(incident.reason == TASK_WORKER_CRASH
               for incident in health.retries)
    # Tasks finished before the crash are not re-run: total attempts is
    # exactly one per task plus one per retried task.
    assert health.attempts == len(tasks) + len(health.retries)
    # The crash struck mid-campaign, so some earlier task had finished.
    assert len(health.retried_tasks()) < len(tasks)


def test_crash_budget_exhaustion_fails_remaining(tmp_path):
    marker_dir = tmp_path / "kills"
    marker_dir.mkdir()

    runner = TaskRunner(max_workers=2, force_pool=True, pool_rebuilds=1)
    # Every generation crashes: value 0 kills on a fresh marker each run.
    report = runner.run(_kill_forever, [(str(marker_dir), 0), (str(marker_dir), 1)])
    statuses = {result.status for result in report.results}
    assert TASK_WORKER_CRASH in statuses
    crashed = [r for r in report.results if r.status == TASK_WORKER_CRASH]
    assert all(r.error_type == "BrokenProcessPool" for r in crashed)


def _kill_forever(task):
    """Value 0 SIGKILLs its worker on every attempt."""
    _, value = task
    if value == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return value


# ---------------------------------------------------------------------------
# RunReport surface
# ---------------------------------------------------------------------------

def test_run_report_values_and_failures():
    runner = TaskRunner(max_workers=1)
    report = runner.run(_square, [1, 2, 3])
    assert report.values() == [1, 4, 9]
    assert report.failures == []
    assert report.elapsed_seconds >= 0.0
