"""Fixed probes that measure how fast this machine runs right now.

On a shared machine the same job can take 1.6 times longer from one second
to the next, because other tenants load the same physical cores.  The
benchmark times a probe next to the work it measures and reports that
work scaled to a machine on which the probe takes its reference time:
seconds as measured, times the reference over the probe's own time.

loop_seconds() runs before and after every job and, through Sampler,
every SAMPLE_INTERVAL_S while a long job runs, so a five-second build is
scaled by the speed over its whole run, not at its two ends.  The loop
exercises what liesym spends its time on: Fraction arithmetic, dict
lookups, float arithmetic and Python calls.  import_probe_seconds() runs in every set-up child right
after liesym is imported and its entries are made: it imports standard
modules that neither liesym, numpy nor scipy load, which is the same kind
of work (finding, reading and executing modules) as the set-up itself.
"""

import importlib
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.005
SAMPLE_INTERVAL_S = 0.1
IMPORT_REFERENCE_S = 0.1
IMPORT_PROBE = ("email.mime.multipart", "http.client", "xml.dom.minidom",
                "unittest", "smtplib", "pydoc", "sqlite3", "asyncio")


def _step(i: int, acc: Fraction, table: dict) -> Fraction:
    acc += Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1)
    table[(i % 97, i % 13)] = acc.denominator % 1000
    return acc


def loop_seconds() -> float:
    """Wall time of one pass of the fixed loop."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc = _step(i, acc, table)
    x = 0.0
    for i in range(6000):
        x = x * 0.999 + (i % 13) ** 2
    return time.perf_counter() - start


class Sampler:
    """Runs loop_seconds() from a SIGALRM handler while the block runs.

    samples holds the loop times; spent is the wall time the samples took,
    which the caller subtracts from the time it measures around the block.
    The handler runs in the main thread between bytecodes, like the code
    it interrupts.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(loop_seconds())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def import_probe_seconds() -> float:
    """Wall time to import IMPORT_PROBE; call once per fresh interpreter."""
    start = time.perf_counter()
    for name in IMPORT_PROBE:
        importlib.import_module(name)
    return time.perf_counter() - start


def scale(seconds: float, loop_s: float) -> float:
    """seconds measured while the loop took loop_s, at reference speed."""
    return seconds * REFERENCE_S / loop_s
