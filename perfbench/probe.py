"""Host-speed probe: fixed, benchmark-owned work timed next to the program.

On a shared host the speed of identical work drifts by 20-70 % over
seconds to minutes (the 2-vCPU reference host: the same hall pass cost
5.1-8.9 us of CPU per read within one 25 s process), and no in-process
control removes that.  So every timing this benchmark reports is in
*reference-host units*: the measured time multiplied by

    host_factor = REFERENCE_PROBE_S / median CPU time of the probe

where the probe runs on the same CPU as the program, interleaved with
it, in the same phase of the run.  A slower program moves the reported
time; a slower host moves program and probe alike and cancels out.  The
probe is a mix of interpreter work (dict updates in a loop) and small
dense linear algebra (``numpy.linalg.eigh`` and a reduction), like the
program's per-read ingest and per-window spectra, and does not call the
program, so changing the program never changes the probe.

Run as a module, it is the probe process of the ``fleet-tcp`` workload:

    python3 -m perfbench.probe --every 0.5

probes every ``--every`` seconds on the CPUs it was started on and
prints one ``<monotonic time> <cpu seconds>`` line per probe until its
standard input closes.
"""

from __future__ import annotations

import argparse
import select
import statistics
import sys
import threading
import time
from typing import List, Sequence, Tuple

import numpy as np

#: The probe's median CPU time on the reference host (2 vCPUs, numpy
#: 2.4 with OpenBLAS, one BLAS thread) in a quiet phase.  A constant:
#: it only sets the scale of reference-host units.
REFERENCE_PROBE_S = 0.0025

_RNG = np.random.default_rng(20160101)
_A = _RNG.standard_normal((6, 6)) + 1j * _RNG.standard_normal((6, 6))
_HERMITIAN = _A @ _A.conj().T
_GRID = _RNG.standard_normal((64, 181))


def probe() -> int:
    """One unit of fixed work; returns a checksum so nothing is elided."""
    table: dict = {}
    for i in range(6000):
        key = i & 127
        table[key] = table.get(key, 0) + i * 3
    total = len(table)
    for _ in range(40):
        values, _vectors = np.linalg.eigh(_HERMITIAN)
        total += int((_GRID * values[0]).sum(axis=1).argmax())
    return total


def timed_probe() -> float:
    """CPU seconds of one :func:`probe` call in this process."""
    started = time.process_time()
    probe()
    return time.process_time() - started


def host_factor(probe_cpu_s: Sequence[float]) -> float:
    """Reference-host units per measured unit, from probe CPU samples."""
    if not probe_cpu_s:
        raise ValueError("no probe samples")
    return REFERENCE_PROBE_S / statistics.median(probe_cpu_s)


class ProbeLog:
    """Probe samples of one process, each stamped with ``time.monotonic()``."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def add(self, at: float, cpu_s: float) -> None:
        self.samples.append((at, cpu_s))

    def between(self, start: float, end: float) -> List[float]:
        """CPU times of the probes taken in ``[start, end]``."""
        return [cpu for at, cpu in self.samples if start <= at <= end]

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        return host_factor(self.between(start, end))


def local_factors(probe_cpu_s: Sequence[float]) -> List[float]:
    """Host factor of each stretch between two consecutive probes.

    Stretch ``i`` lies between probes ``i`` and ``i + 1``; its factor is
    taken from the median of the two probes on either side, so a change
    of host speed within a pass is followed within a few stretches.
    """
    return [
        host_factor(probe_cpu_s[max(0, i - 1) : i + 3]) for i in range(len(probe_cpu_s) - 1)
    ]


class ProbeThread:
    """Probes from a thread of this process while its main thread works.

    For work that cannot be interleaved with probes by hand (set-up is a
    few long calls).  The process should be pinned to one CPU, so the
    probe shares the CPU with the work it is a yardstick for; its own
    CPU time (``time.thread_time``) is what it records, and
    :attr:`cpu_s` is the total to take back out of the work's time.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.log = ProbeLog()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="host-probe", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.every_s):
            started = time.thread_time()
            probe()
            self.log.add(time.monotonic(), time.thread_time() - started)

    def __enter__(self) -> "ProbeThread":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def cpu_s(self) -> float:
        return sum(cpu for _, cpu in self.log.samples)


def main() -> int:
    parser = argparse.ArgumentParser(description="probe the host every few seconds")
    parser.add_argument("--every", type=float, default=0.5)
    args = parser.parse_args()
    while True:
        print(f"{time.monotonic():.6f} {timed_probe():.9f}", flush=True)
        ready, _, _ = select.select([sys.stdin], [], [], args.every)
        if ready and not sys.stdin.readline():
            return 0


if __name__ == "__main__":
    sys.exit(main())
