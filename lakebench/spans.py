"""Spans, Spark job-group counters and Spark state probes for the benchmark.

A :class:`Tracer` records one span per call into a layer of the program.
Each span runs under its own Spark job group (``<layer>#<n>``), and the
group's jobs, stages, tasks and failed tasks are read from the status
tracker as soon as the span ends. Spans stay in memory; the caller writes
them out when the run ends.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark import SparkContext


@dataclass
class Span:
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    group: str | None = None
    counts: dict = field(default_factory=dict)
    #: seconds the tracer itself spent inside this span, reading the
    #: counters of its children; not the program's time.
    bookkeeping: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _drain_listener_bus(sc: SparkContext) -> None:
    """Wait until every Spark event has reached the status store, so the
    counters of a job that just ended are final."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


def group_counts(sc: SparkContext, group: str) -> dict:
    """Jobs, executed stages, completed tasks and failed tasks of a job
    group. Stages skipped because their shuffle output was reused run no
    task and are not counted."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = tasks = failed = 0
    for job in jobs:
        info = st.getJobInfo(job)
        for sid in info.stageIds if info else ():
            s = st.getStageInfo(sid)
            if s is None or s.numCompletedTasks + s.numFailedTasks == 0:
                continue
            stages += 1
            tasks += s.numCompletedTasks
            failed += s.numFailedTasks
    return {"spark_jobs": len(jobs), "spark_stages": stages,
            "spark_tasks": tasks, "failed_tasks": failed}


class Tracer:
    """In-memory span recorder. ``tracer.op(i)`` opens the span of one
    benchmark op; ``tracer.span(layer)`` opens a child span around one
    call into a layer and gives it a fresh Spark job group."""

    def __init__(self, sc: SparkContext):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op_id = -1
        self._groups = 0

    @contextmanager
    def op(self, op_id: int):
        self._op_id = op_id
        with self._open("op", group=False) as sp:
            yield sp

    @contextmanager
    def span(self, name: str):
        with self._open(name, group=True) as sp:
            yield sp

    @contextmanager
    def _open(self, name: str, *, group: bool):
        sp = Span(name, self._op_id, self._stack[-1] if self._stack else None, 0.0)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        if group:
            self._groups += 1
            sp.group = f"{name}#{self._groups}"
            self.sc.setJobGroup(sp.group, sp.group)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if group:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                _drain_listener_bus(self.sc)
                sp.counts.update(group_counts(self.sc, sp.group))
                if sp.parent is not None:
                    self.spans[sp.parent].bookkeeping += time.perf_counter() - sp.end

    def op_spans(self, op_id: int) -> list[Span]:
        return [s for s in self.spans if s.op_id == op_id]

    def self_seconds(self, index: int) -> float:
        """Span duration minus the union of its children's intervals and
        minus the tracer's own bookkeeping."""
        sp = self.spans[index]
        kids = sorted(
            (s.start, s.end) for s in self.spans if s.parent == index
        )
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in kids:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        return sp.seconds - covered - sp.bookkeeping

    def records(self) -> list[dict]:
        return [
            {"index": i, "name": s.name, "op_id": s.op_id, "parent": s.parent,
             "start": s.start, "end": s.end, "group": s.group, "counts": s.counts,
             "self_s": self.self_seconds(i)}
            for i, s in enumerate(self.spans)
        ]


def cached_mb(sc: SparkContext) -> float:
    """Megabytes Spark holds in its block cache (memory plus disk)."""
    infos = sc._jsc.sc().getRDDStorageInfo()
    return sum(i.memSize() + i.diskSize() for i in infos) / 2**20


def jvm_peak_rss_mb(sc: SparkContext) -> float:
    """Peak resident set of the driver JVM (VmHWM), in megabytes."""
    pid = sc._jvm.java.lang.ProcessHandle.current().pid()
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0
