"""Machine-speed calibration for timings on a shared machine.

On shared hosts the same code runs up to 2x slower for seconds at a time,
and process CPU time slows down with wall time, so neither clock alone
compares two commits. A fixed pure-Python kernel of the simulator's kind
(attribute reads, tuple keys, dict updates, float compares) slows down with
the simulator. ``SpeedProbe`` runs it every ``PERIOD_S`` from an interval
timer while work is timed, subtracts its own time, and rescales the rest to
a machine on which one kernel pass takes ``REF_KERNEL_S``:

    calibrated = (host - probe time) * REF_KERNEL_S / mean kernel time

The kernel does not use wbansim, so no change to the program moves it, and
the collector is held off while it runs so that heap the program keeps
alive cannot slow it. This module imports only builtin modules, so that a
fresh interpreter can calibrate before timing its own imports.
"""
import gc
import signal
import time

REF_KERNEL_S = 0.001   # one pass on the reference machine (README.md)
PERIOD_S = 0.05        # probe interval: about 2% of the timed work


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: float):
        self.key = key
        self.weight = weight


def kernel() -> float:
    """Host seconds of one pass of the calibration kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        cells = [_Cell(i, i * 0.5) for i in range(200)]
        table: dict[tuple[int, int], float] = {}
        acc = 0.0
        for r in range(25):
            for c in cells:
                key = (c.key, r & 7)
                table[key] = table.get(key, 0.0) + c.weight
                if c.weight > acc * 1e-6:
                    acc += c.weight * 0.001
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def bracket(passes: int = 5) -> float:
    """Mean kernel time over a few back-to-back passes."""
    return sum(kernel() for _ in range(passes)) / passes


class SpeedProbe:
    """Context manager that samples the kernel from SIGALRM while active.

    The handler runs between bytecodes of the main thread, so it cannot
    touch the program's state; interrupted system calls are retried by
    Python. The timer and the previous handler are restored on exit.
    """

    def __init__(self):
        self.kernels: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.kernels.append(kernel())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, fn, *args):
        """``(fn(*args), host seconds, calibrated seconds)``; the host
        seconds exclude the probe's own time."""
        before = kernel()
        start = len(self.kernels)
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        during = self.kernels[start:] + [before]
        host = elapsed - sum(during) + before
        return out, host, host * REF_KERNEL_S * len(during) / sum(during)
