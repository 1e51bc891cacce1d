"""Timing at a reference speed of the host, for timings taken on a shared VM.

On a VM that shares its cores with other tenants, the speed at which one
core runs Python follows their load: the same code runs up to twice as long
in busy spells, which last from seconds to minutes. A median over a run of
a minute or less cannot average that out.

`Pacer` measures the speed of the host while the measured code runs. From a
SIGALRM handler, every `PERIOD_S` of wall time, it runs `reference()`, a
fixed routine of the same kinds of work as the program that uses none of the
program's code. `scaled` turns the wall time of the measured code, less the
time spent in the handler, into the time it would have taken at the speed
where `reference()` takes `REFERENCE_S`:

    scaled = (wall - handler time) * mean over ticks of (REFERENCE_S / tick)

The ticks are evenly spaced in wall time, so the mean of their speeds is
the host's mean speed over the call. The measured code's own speed-up or
slow-down still shows in full, because `reference()` does not change with it.

The program mixes interpreted Python with compiled code (OpenSSL's
signatures, hashes and ciphers), and in busy spells the interpreter slows
more than tight compiled loops. So `reference()` spends about half its time
in each: with a routine of interpreted work alone, the scaled times of the
workload heaviest in signature checks, `audit`, still read up to 9% higher
in quiet spells than in busy ones.
"""
from __future__ import annotations

import hashlib
import json
import signal
from time import perf_counter

# The speed the times are given at, as the time of one reference() call. It
# sets their scale only: 86 us is reference() on the 2-core VM where the
# benchmark was defined, at the speed where its first version took 40 us.
REFERENCE_S = 86e-6
PERIOD_S = 0.02
# each tick runs reference() this many times untimed (to warm the caches the
# measured code displaced) and then this many times timed
WARM_CALLS = 1
TIMED_CALLS = 3
# rounds of PBKDF2 that take about as long as the interpreted half of reference()
KDF_ROUNDS = 70

_DOCUMENT = json.dumps([{"op": "phase1_vote", "t": i, "juror": f"juror{i:04d}",
                         "proposal": f"ruling {i}.{i * 7919 % 100003}"}
                        for i in range(12)])


def reference() -> int:
    """Fixed work: parse a small JSON document, hash and index its fields
    (interpreted), then derive a key with PBKDF2-HMAC-SHA256 (compiled)."""
    table: dict[str, int] = {}
    for step in json.loads(_DOCUMENT):
        key = hashlib.sha256(f"{step['juror']}|{step['proposal']}".encode()).hexdigest()
        table[key[:16]] = table.get(key[:16], 0) + step["t"]
    hashlib.pbkdf2_hmac("sha256", b"juror0001", b"reference", KDF_ROUNDS)
    return len(sorted(table.items()))


def _tick_seconds() -> float:
    """One tick's measurement: the mean time of a timed `reference()` call."""
    for _ in range(WARM_CALLS):
        reference()
    start = perf_counter()
    for _ in range(TIMED_CALLS):
        reference()
    return (perf_counter() - start) / TIMED_CALLS


class Pacer:
    """Samples the host's speed during a timed call; see the module docstring.

    `start()` right before the timed call and `stop()` right after it; each
    also takes one tick outside the call, so a call shorter than a period
    still has a measurement on both sides of it.
    """

    def __init__(self) -> None:
        self.ticks: list[float] = []
        self.handler_s = 0.0

    def _on_alarm(self, signum: int, frame: object) -> None:
        began = perf_counter()
        self.ticks.append(_tick_seconds())
        self.handler_s += perf_counter() - began

    def start(self) -> None:
        self.ticks.append(_tick_seconds())
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.ticks.append(_tick_seconds())

    def speed(self) -> float:
        """Mean host speed over the call, as a multiple of the reference speed."""
        return sum(REFERENCE_S / tick for tick in self.ticks) / len(self.ticks)

    def scaled(self, wall_s: float) -> float:
        """`wall_s`, measured between `start()` and `stop()`, at reference speed."""
        return (wall_s - self.handler_s) * self.speed()
