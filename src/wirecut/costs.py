"""Closed-form cost metrics and the synthesized gate-count benchmark.

Covers the execution-time model T = T_C + T_Q (compilation is charged once
per distinct channel, capped by the shot count), the sampling-overhead and
channel-count tables for the four wire-cutting methods, the ancilla-free
channel-count lower bound, and the maximum gate counts of the synthesized
basis-change circuits versus their bounds.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidInputError, ResourceLimitError
from .families import generate_partition
from .synth import gate_stats, synthesize

MAX_TABLE_QUBITS = 12


@dataclass(frozen=True)
class TimeModelParams:
    m: int
    shots: int
    t_compile: float
    t_shot: float

    def __post_init__(self):
        if self.m < 0 or self.shots < 0:
            raise InvalidInputError("counts must be nonnegative")
        for name, count in (("m", self.m), ("shots", self.shots)):
            # the count is not printed: a long one exceeds int-to-str's digit limit
            if count > sys.float_info.max:
                raise InvalidInputError(f"{name} must be a finite double")
        for name, t in (("t_compile", self.t_compile), ("t_shot", self.t_shot)):
            # NaN passes a `t < 0` test, so finiteness is checked explicitly
            if not math.isfinite(t) or t < 0:
                raise InvalidInputError(f"{name} must be a finite nonnegative time, got {t!r}")


def predict_time(p: TimeModelParams) -> float:
    """Worst-case total execution time.

    All m channels get compiled when the shot budget allows (m <= N);
    otherwise at most one compilation per shot can occur.  A time beyond the
    largest double raises InvalidInputError.
    """
    compiled = p.m if p.m <= p.shots else p.shots
    total = compiled * p.t_compile + p.shots * p.t_shot
    if not math.isfinite(total):
        raise InvalidInputError("the predicted time exceeds the largest double")
    return total


@dataclass(frozen=True)
class MethodRow:
    method: str
    n: int
    gamma_sq: int
    m: int
    m_bound: int  # channel_count_bound(n), which only mub's m attains


# method -> n -> (gamma, m) of an n-wire cut
_CLOSED_FORMS = {
    "peng": lambda n: (4**n, 8**n),
    # m: a 2-design needs at least d^4 - 2 d^2 + 2 unitaries, plus one channel
    "randomized": lambda n: (2 ** (n + 1) + 1, 2 ** (4 * n) - 2 * 2 ** (2 * n) + 3),
    "mub": lambda n: (2 ** (n + 1) - 1, 2**n + 1),
    "teleport": lambda n: (2 ** (n + 1) - 1, 2 ** (2**n) + 4**n - 2**n - 1),
}
_CLOSED_FORMS["optimal1q"] = _CLOSED_FORMS["mub"]  # the single-wire alias of mub

METHOD_ORDER = ("peng", "randomized", "mub", "teleport")


def channel_count_bound(n: int) -> int:
    """Lower bound on the channel count of any ancilla-free decomposition of
    the n-wire identity: ceil((rank - 1) / (2^n - 1)) for the identity
    transfer matrix, of rank 4^n, which is 2^n + 1."""
    if n < 1:
        raise InvalidInputError(f"the cut width must be at least 1, got {n}")
    return -(-(4**n - 1) // (2**n - 1))


def overhead_table(n_max: int) -> list[MethodRow]:
    """Sampling overhead gamma^2, channel count m and its lower bound for
    every method and n."""
    if not 1 <= n_max <= MAX_TABLE_QUBITS:
        raise ResourceLimitError(f"nmax must be in 1..{MAX_TABLE_QUBITS}, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        for method in METHOD_ORDER:
            gamma, m = _CLOSED_FORMS[method](n)
            rows.append(MethodRow(method, n, gamma**2, m, channel_count_bound(n)))
    return rows


@dataclass(frozen=True)
class GateCountRow:
    n: int
    n_s_max: int
    n_cz_max: int
    n_all_max: int
    bound_cz: int
    bound_all: int


def gate_count_bench(n_max: int) -> list[GateCountRow]:
    """Max S-dagger / CZ / total gate counts over all synthesized circuits per n."""
    if not 1 <= n_max <= MAX_TABLE_QUBITS:
        raise ResourceLimitError(f"nmax must be in 1..{MAX_TABLE_QUBITS}, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        fams = generate_partition(n).families[:-1]
        stats = [gate_stats(synthesize(f)) for f in fams]
        n_s = max(s.n_s for s in stats)
        n_cz = max(s.n_cz for s in stats)
        n_all = max(s.n_h + s.n_s + s.n_cz for s in stats)
        bound_cz = n * (n - 1) // 2
        rows.append(GateCountRow(n, n_s, n_cz, n_all, bound_cz, 2 * n + bound_cz))
    return rows
