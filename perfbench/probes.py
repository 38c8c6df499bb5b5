"""Spans and counters the benchmark wraps around the program's public calls.

Nothing in ``src/`` is edited: :class:`Probes` replaces a handful of
class attributes and module globals with thin wrappers for the life of
one benchmark child process.  Each wrapper records a span (name, start,
end, parent span) in memory and, where the call's result or receiver
carries a count, adds it to :attr:`Probes.counts`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional


class Probes:
    """In-memory span recorder plus exact counters."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def span(self, name: str, function: Callable, *args, **kwargs) -> Any:
        """Call ``function`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._open.append(index)
        try:
            return function(*args, **kwargs)
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = totals.setdefault(name, {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return totals

    def _wrap(self, owner: Any, attribute: str, name: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        original = getattr(owner, attribute)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            state = before(bound.arguments) if before is not None else None
            result = self.span(name, original, *args, **kwargs)
            if after is not None:
                after(bound.arguments, result, state)
            return result

        setattr(owner, attribute, wrapper)
        return wrapper

    def install(self) -> None:
        """Wrap the layer entry points the workloads reach indirectly."""
        import repro.gen
        import repro.gen.sweep
        from repro.cluster import Cluster
        from repro.exec.runner import TaskRunner
        from repro.modelcheck.checker import InvariantChecker

        counts = self.counts

        def checked(arguments, result, _state) -> None:
            counts["modelcheck.states"] += result.states_explored
            counts["modelcheck.transitions"] += result.transitions_explored

        def ran_tasks(_arguments, report, _state) -> None:
            counts["exec.tasks"] += len(report.results)
            counts["exec.retries"] += sum(max(0, entry.attempts - 1)
                                          for entry in report.results)

        def cluster_before(arguments):
            cluster = arguments["self"]
            counts["sim.slots"] += round(
                arguments["rounds"] * cluster.active_medl().slot_count)
            return cluster.sim.fired_count

        def cluster_after(arguments, _result, fired_before) -> None:
            counts["sim.events_fired"] += (arguments["self"].sim.fired_count
                                           - fired_before)

        self._wrap(InvariantChecker, "check", "modelcheck.check",
                   after=checked)
        self._wrap(TaskRunner, "run", "exec.run", after=ran_tasks)
        self._wrap(Cluster, "run", "cluster.run", before=cluster_before,
                   after=cluster_after)
        # The package re-exports the function under its submodule's name,
        # so the submodule is reached through sys.modules; run_sweep's
        # cells call the name bound in repro.gen.sweep.
        wrapped = self._wrap(sys.modules["repro.gen.materialize"],
                             "materialize", "gen.materialize")
        repro.gen.materialize = wrapped
        repro.gen.sweep.materialize = wrapped
