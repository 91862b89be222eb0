"""Machine-speed calibration for the benchmark's times.

On a shared virtual machine the speed of one vCPU swings by up to a
factor of two in phases lasting seconds, as neighbours load the host.
Such swings would drown any change to the program, so every time the
benchmark reports is scaled to a fixed reference speed.  A Sampler runs
a fixed pure-Python loop (the probe) every INTERVAL_S from a timer
signal inside the measured process; a measured interval, less the probe
time inside it, is multiplied by the mean of REFERENCE_S / (probe time)
over the samples in and next to the interval.  The probe shares no code
with the program, so a change to the program moves the scaled times
exactly as it moves the raw ones.

REFERENCE_S is what the probe takes in the fast phase of the machine the
benchmark was defined on (Intel Xeon, Sapphire Rapids class, KVM guest
with 2 vCPUs, Python 3.11), so a scaled time reads as the time on that
machine at full speed.  Raw times are printed alongside.

Only light standard modules are imported here, because the set-up child
imports this module before it times the import of the program.
"""

import bisect
import signal
from time import perf_counter

REFERENCE_S = 0.0012
INTERVAL_S = 0.025


def probe() -> float:
    """Seconds one run of the probe loop takes now."""
    t0 = perf_counter()
    s = 0
    for i in range(20000):
        s += i % 7
    return perf_counter() - t0


def speed_factor(durations) -> float:
    """Mean of REFERENCE_S / d over the probe durations d, with the top
    and bottom tenth dropped (a probe that was preempted reads slow)."""
    factors = sorted(REFERENCE_S / d for d in durations)
    k = len(factors) // 10
    factors = factors[k:len(factors) - k]
    return sum(factors) / len(factors)


class Sampler:
    """Probe samples taken every INTERVAL_S of wall time in this
    process, from SIGALRM.  The timer is re-armed after each sample, so
    a sample never interrupts another."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, *_):
        self.starts.append(perf_counter())
        self.durations.append(probe())

    def _tick(self, *_):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the interval [t0, t1], less the probe
        time inside it.  The speed comes from the samples inside the
        interval and its two neighbours."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_left(self.starts, t1)
        raw = t1 - t0 - sum(self.durations[i:j])
        return raw, raw * speed_factor(self.durations[max(i - 1, 0):j + 1])

    def summary(self) -> dict:
        """Probe time spent and the factor to the reference speed, over
        every sample taken."""
        return {"probe_s": sum(self.durations),
                "factor": speed_factor(self.durations)}
