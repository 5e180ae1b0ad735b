"""Host-speed calibration for the benchmark's timings.

The benchmark was defined on a shared two-vCPU virtual machine whose
speed drifts by up to 1.6x within a minute, in two ways: the cores run
slower for seconds at a time (process CPU time grows with wall time),
and in some spells the host takes the vCPU away for up to 40% of the
wall time (``steal`` in ``/proc/stat``; process CPU time leaves it out).
Every wall-clock figure of a pure-Python program follows both.  Over
ten runs the interquartile spread of a raw throughput reached 0.3-0.4
of its median, whatever the program did.

So the timed phases are cut into short segments and a fixed kernel
(:func:`kernel`, plain Python that does not touch the program) is timed
in CPU time between segments.  A segment's time is split into the
measured process's CPU time, which is scaled by
``REFERENCE_S / mean(kernel time before, kernel time after)``, the time
stolen from the host's CPUs meanwhile, which is dropped, and the rest
(waiting for an fsync, a WAL checkpoint or the other process), which is
kept: the figures read as if the program ran alone on a host that runs
the kernel in ``REFERENCE_S``.  In a 60-second probe of
``strict-hotpath`` decisions, the medians of eight consecutive windows
ranged 4,527-7,208 decisions/s raw and 41.3-44.8 (±4%) once scaled.
The kernel does not depend on the program, so a change to the program
moves the scaled figures exactly as it moves the raw ones on a steady
host.
"""

from __future__ import annotations

import gc
import os
from time import perf_counter, thread_time

#: Probe time, in seconds, of the reference host the figures are scaled
#: to (about its median on the machine the benchmark was defined on).
REFERENCE_S = 0.004
#: Loop iterations of one kernel run.
KERNEL_ITERATIONS = 1500
#: Kernel runs per probe; a probe is their median, so one preemption of
#: the probing process does not set a segment's scale.
PROBE_RUNS = 3


class _Item:
    __slots__ = ("number", "key", "label")

    def __init__(self, number: int, key: tuple, label: str) -> None:
        self.number = number
        self.key = key
        self.label = label


def kernel() -> int:
    """Fixed interpreter work of the program's kind: tuple keys, dict
    and list traffic, small objects, string tests and frozensets."""
    table: dict[tuple, list] = {}
    total = 0
    for number in range(KERNEL_ITERATIONS):
        key = ("k", number & 255, "x")
        item = _Item(number, key, str(number & 63))
        bucket = table.setdefault(key, [])
        bucket.append(item)
        if len(bucket) > 4:
            bucket.pop(0)
        total += sum(1 for other in bucket if other.label.startswith("1"))
        total += len(frozenset((number & 7, number & 3)) & {1, 2})
    return total


def kernel_seconds(wall: bool = False) -> float:
    """One probe: the median CPU time (``wall``: wall time) of
    ``PROBE_RUNS`` kernel runs.  The collector is off meanwhile, so a
    collection of the program's heap is not charged to the kernel (its
    objects are freed by reference counting, so it leaves the
    collector's counts where they were)."""
    clock = perf_counter if wall else thread_time
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_RUNS):
            began = clock()
            kernel()
            times.append(clock() - began)
    finally:
        if enabled:
            gc.enable()
    return sorted(times)[PROBE_RUNS // 2]


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def stolen_seconds(cpu: int | None = None) -> float:
    """Time the host has stolen so far from CPU ``cpu`` (all CPUs when
    None): the ``steal`` column of ``/proc/stat``.  An idle vCPU is not
    stolen from, so with one busy process the total is its share."""
    label = "cpu" if cpu is None else f"cpu{cpu}"
    with open("/proc/stat", encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if fields[0] == label:
                return int(fields[8]) * _TICK_S
    raise RuntimeError(f"no {label} line in /proc/stat")


def cpu_seconds_of(pid: int) -> float:
    """CPU time so far of another process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def scaled_seconds(scale: float, wall: float, cpu: float, stolen: float) -> float:
    """``wall`` seconds of which ``cpu`` ran the measured process and
    ``stolen`` were taken by the host: the CPU time scaled, the stolen
    time dropped, the rest kept."""
    cpu = min(cpu, wall)
    return cpu * scale + max(0.0, wall - cpu - stolen)


class Track:
    """Kernel times probed between the segments of a phase.

    ``probe(position)`` times the kernel at a position of the phase (a
    request index; positions must not decrease), on ``cpu`` when given,
    in wall time when ``wall`` is set (the set-ups: see ``run.py``).  Segment ``k`` runs from
    probe ``k`` to probe ``k + 1`` and is scaled by ``REFERENCE_S`` over
    the mean of those two probes.  ``spent`` is the time the probes took.
    """

    def __init__(self, cpu: int | None = None, wall: bool = False) -> None:
        self.marks: list[tuple[int, float]] = []
        self.spent = 0.0
        self.cpu = cpu
        self.wall = wall

    def probe(self, position: int = 0) -> float:
        """Time the kernel; with ``cpu`` set, on that CPU only."""
        began = perf_counter()
        if self.cpu is None:
            seconds = kernel_seconds(self.wall)
        else:
            allowed = os.sched_getaffinity(0)
            os.sched_setaffinity(0, {self.cpu})
            try:
                seconds = kernel_seconds(self.wall)
            finally:
                os.sched_setaffinity(0, allowed)
        self.marks.append((position, seconds))
        self.spent += perf_counter() - began
        return seconds

    def segment_scale(self, number: int) -> float:
        return REFERENCE_S * 2.0 / (self.marks[number][1] + self.marks[number + 1][1])
