"""Operation accounting and timing loops shared by the workloads."""

from __future__ import annotations

import functools
import math
import resource
import statistics
import time


class CheckFailed(AssertionError):
    """An output of the program failed one of the benchmark's checks."""


class KnownFault(CheckFailed):
    """A failure caused by a fault in the program that does not depend on the seed."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Run:
    """Attempted and failed operations of one benchmark run.

    An operation fails if it raises, exits non-zero or fails a check. An
    operation that raises :class:`KnownFault` is counted but leaves
    ``correct`` true; any other failure makes the run incorrect.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.op_seconds = {}

    def op(self, kind, fn, *args, weight=1):
        """Run a call doing ``weight`` operations; return (result, seconds).

        The result is None when the call raised; then all its operations fail.
        """
        index = self.attempted
        self.attempted += weight
        if self.tracer is not None:
            self.tracer.op_id = index
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that raises is a failed one
            self.fail(kind, f"{type(exc).__name__}: {exc}", weight,
                      known=isinstance(exc, KnownFault))
            return None, time.perf_counter() - t0
        finally:
            if self.tracer is not None:
                self.tracer.op_id = None
        seconds = time.perf_counter() - t0
        self.op_seconds.setdefault(kind, []).append(seconds)
        return result, seconds

    def fail(self, kind, message, count=1, known=False):
        self.failed += count
        if not known:
            self.unexpected.append(f"{kind}: {message}")

    def check(self, kind, fn, *args, ops=1):
        """Run a check covering ``ops`` operations; a failure fails all of them."""
        try:
            fn(*args)
        except CheckFailed as exc:
            self.fail(kind, str(exc), ops)
            return False
        return True

    @property
    def correct(self):
        return not self.unexpected


def timed_rounds(seconds, min_rounds, round_fn, interludes=()):
    """Call ``round_fn(r)`` for whole rounds until ``seconds`` of rounds have run.

    At least ``min_rounds`` rounds run, so every distinct input is covered
    once however slow the program is. Each interlude runs once, untimed, when
    the round time passes its evenly spaced share of ``seconds``, so that its
    samples and the rounds' both span the run. Returns each round's time.
    """
    times, spent, r = [], 0.0, 0
    pending = list(interludes)
    while r < min_rounds or spent < seconds:
        t0 = time.perf_counter()
        round_fn(r)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        r += 1
        while pending and spent >= seconds * (len(interludes) - len(pending) + 1) / (
                len(interludes) + 1):
            pending.pop(0)()
    return times


def cpu_seconds():
    """CPU time of this process and of the child processes it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def spread_setups(setup_fn, repeats):
    """Time ``setup_fn(i)`` ``repeats`` times in CPU seconds; the first runs now.

    Returns (first result, the later repeats as interludes for
    :func:`timed_rounds`, the list their times are appended to). Set-up is
    single-threaded compute, so its CPU time is its wall time less the time
    a shared machine took the CPU away; spreading the repeats through the run
    averages what slow stretches remain.
    """
    times = []

    def timed(i):
        t0 = cpu_seconds()
        result = setup_fn(i)
        times.append(cpu_seconds() - t0)
        return result

    return timed(0), [functools.partial(timed, i) for i in range(1, repeats)], times


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return math.fsum(values) / len(values) if values else 0.0
