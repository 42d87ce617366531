"""Host-speed correction for the timed operations of one worker process.

On a shared host the same work takes up to 1.5x as long from one minute
to the next, and every kind of work drifts together: EFuNN ``predict``,
``mlp.gradient`` and a plain Python loop all slow down and speed up in
step. Medians over a run cannot remove that, because the drift lasts
longer than a run. So the worker times a fixed calibration kernel (a
Python loop, numpy array work and a small matrix product, the three
kinds of work demandcast does; nothing from demandcast itself) every
``INTERVAL_S`` seconds *during* its operations, from a SIGALRM handler,
and scales each operation's wall time by how fast the kernel ran
meanwhile:

    adjusted = (wall - time spent in the handler) * mean(REFERENCE_S / kernel_s)

where ``kernel_s`` is the CPU seconds of the handler's thread for one
kernel call (after a first call that warms the caches it uses).

``adjusted`` is the wall seconds the operation would have taken had the
host run at the speed where the kernel takes ``REFERENCE_S``. Set-up
(interpreter start and imports) runs before numpy is there to run the
kernel, so its wall seconds are scaled by ``calibrate()``, the speed
measured right after it; the drift is slower than a set-up. The raw
wall seconds are reported next to it. A change to demandcast moves the
operation's wall time and leaves the kernel alone, so it moves
``adjusted`` by the same share.

SIGALRM is blocked before numpy starts its BLAS threads (``block()``),
so the signal always lands on the main thread, between two Python
bytecodes of the program.
"""

import signal
import time

INTERVAL_S = 0.25      # one kernel sample per this many wall seconds
MIN_SAMPLES = 8        # an operation shorter than this many samples uses the latest ones
# about the kernel's time on the 2-vCPU machine of the first numbers
# (perfbench/README.md) at its fastest; it sets the scale of the
# adjusted seconds and nothing else
REFERENCE_S = 0.003


def block():
    """Block SIGALRM in this thread and every thread started from now on."""
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})


class HostClock:
    """Samples the calibration kernel on a timer; adjusts operation times."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20040510)
        self._rows = [rng.random(36) for _ in range(3000)]
        self._probe = rng.random(36)
        self.samples = []   # (start, end, kernel CPU seconds); start, end by perf_counter

    def _kernel(self):
        import numpy as np

        total = 0.0
        for row in self._rows:                    # interpreter
            total += row[0]
        stacked = np.stack(self._rows)            # allocation and copy
        dist = np.abs(stacked - self._probe).sum(axis=1)
        gram = stacked.T @ stacked                # BLAS
        return total + dist[0] + gram[0, 0]

    def _sample(self, signum, frame):
        # the kernel is timed in this thread's CPU seconds, so threads or
        # processes the program runs meanwhile do not slow it by taking
        # its core; the host's drift shows in CPU seconds as in wall
        start = time.perf_counter()
        self._kernel()                            # warm the caches it uses
        mid = time.thread_time()
        self._kernel()
        kernel_s = time.thread_time() - mid
        self.samples.append((start, time.perf_counter(), kernel_s))

    def calibrate(self):
        """Host speed now, from MIN_SAMPLES samples taken back to back."""
        for _ in range(MIN_SAMPLES):
            self._sample(None, None)
        return _speed(self.samples[-MIN_SAMPLES:])

    def install(self):
        self.calibrate()                # so that every operation has a basis
        signal.signal(signal.SIGALRM, self._sample)
        self._mask = signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, self._mask)

    def adjust(self, start, end):
        """(adjusted seconds, host speed) of the operation timed start..end.

        Host speed is the mean of REFERENCE_S / kernel seconds over the
        samples taken inside the operation, or over the latest
        MIN_SAMPLES up to its end when it holds fewer.
        """
        inside = [s for s in self.samples if s[0] >= start and s[1] <= end]
        basis = inside
        if len(basis) < MIN_SAMPLES:
            basis = [s for s in self.samples if s[1] <= end][-MIN_SAMPLES:]
        speed = _speed(basis)
        busy = sum(e - s for s, e, _ in inside)
        return (end - start - busy) * speed, speed


def _speed(samples):
    return sum(REFERENCE_S / k for _, _, k in samples) / len(samples)
