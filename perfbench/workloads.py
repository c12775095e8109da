"""The four benchmark workloads, each driving wirecut's public API.

A workload's constructor is its set-up: it builds the inputs and reference
values from the workload seed.  ``run`` is one pass, the timed unit of work.
Every top-level call a workload makes into wirecut is one operation; it fails
when it raises or when its result misses a correctness gate.

Each workload puts most of its time in the modules one planned optimisation
touches, and little elsewhere:

decompose    build and verify every decomposition at every width its builder
             takes (mub up to n=5): PTM and channel-validation work, no
             estimator.
synth_scale  partition, validate, synthesize and symplectic-verify every
             family at n=8, then gate_count_bench(10): pure-Python GF(2) work
             and the gate-count thread pool; no dense numpy, so it is the
             control for channels/dense/estimator changes.
mc_deep      6 qubits, 15 Haar two-qubit layers, three cuts, 1e5 shots:
             about a thousand lattice nodes, so the estimator's per-node loop
             dominates.
mc_wide      the 3-qubit demo circuit with two Haar layers, one cut, 2e6
             shots: six lattice nodes, so shot-level vector work and the
             uniform buffer dominate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import numpy as np

from wirecut import channels, costs, estimator, families, synth

RESIDUAL_TOL = 1e-10
ENUMERATE_TOL = 1e-10
STD_ERRORS = 5.0

# Closed forms from the paper: (gamma, m) per method and width, kept here so
# the gate does not lean on the code it checks.  The randomized builder's
# default ensemble is the 24 one-qubit Cliffords plus the computational
# channel.
CLOSED_FORMS = {
    "peng": lambda n: (Fraction(4**n), 8**n),
    "optimal1q": lambda n: (Fraction(3), 3),
    "randomized": lambda n: (Fraction(2 ** (n + 1) + 1), 24 + 1),
    "mub": lambda n: (Fraction(2 ** (n + 1) - 1), 2**n + 1),
    "teleport": lambda n: (Fraction(2 ** (n + 1) - 1), 2 ** (2**n) + 4**n - 2**n - 1),
}


class Ops:
    """Counts the operations a workload attempts and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, check, fn, *args):
        """Call ``fn(*args)``; ``check(result)`` returns None or what is wrong."""
        self.attempted += 1
        try:
            result = fn(*args)
            problem = check(result)
        except Exception as exc:  # a raising call is a counted failure
            result, problem = None, f"{fn.__name__} raised {exc!r}"
        if problem is not None:
            self.fail(problem)
        return result

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _ok(result):
    return None


class Decompose:
    name = "decompose"
    CASES = (
        [("peng", 1), ("optimal1q", 1), ("randomized", 1), ("teleport", 1), ("teleport", 2)]
        + [("mub", n) for n in range(1, 6)]
    )

    def __init__(self, seed: int, ops: Ops):
        # the widths are the workload; the seed changes nothing here
        self.expected = {case: CLOSED_FORMS[case[0]](case[1]) for case in self.CASES}

    def _closed_form(self, method: str, n: int, d):
        gamma, m = self.expected[(method, n)]
        if d.gamma != gamma or d.m != m:
            return f"{method} n={n}: gamma={d.gamma} m={d.m}, want {gamma} {m}"
        return None

    @staticmethod
    def _residual(method: str, n: int, r: float):
        if not r < RESIDUAL_TOL:
            return f"{method} n={n}: residual {r!r}"
        return None

    def run(self, ops: Ops) -> None:
        for method, n in self.CASES:
            d = ops.call(
                partial(self._closed_form, method, n), channels.build_decomposition, method, n
            )
            if d is not None:
                ops.call(partial(self._residual, method, n), channels.verify_decomposition, d)


class SynthScale:
    name = "synth_scale"
    N = 8
    GATE_COUNT_NMAX = 10

    def __init__(self, seed: int, ops: Ops):
        # the widths are the workload; the seed changes nothing here
        n = self.N
        self.bound_cz = n * (n - 1) // 2
        self.bound_all = 2 * n + self.bound_cz

    def _check_circuit(self, circ):
        s = synth.gate_stats(circ)
        n = self.N
        if s.depth > n + 2:
            return f"depth {s.depth} > n + 2"
        if s.n_cz > self.bound_cz or s.n_h + s.n_s + s.n_cz > self.bound_all:
            return f"gate counts {s} exceed the bounds"
        return None

    def _check_rows(self, rows):
        if [r.n for r in rows] != list(range(1, self.GATE_COUNT_NMAX + 1)):
            return "gate_count_bench returned the wrong widths"
        for r in rows:
            if r.n_cz_max > r.bound_cz or r.n_all_max > r.bound_all:
                return f"gate counts exceed the bounds: {r}"
        return None

    def run(self, ops: Ops) -> None:
        n = self.N

        def family_count(part):
            if len(part.families) != 2**n + 1:
                return f"{len(part.families)} families, want {2**n + 1}"
            return None

        part = ops.call(family_count, families.generate_partition, n)
        if part is None:
            return
        ops.call(_ok, families.validate_partition, part)
        for fam in part.families[:-1]:
            circ = ops.call(self._check_circuit, synth.synthesize, fam)
            if circ is None:
                continue
            ops.call(
                lambda ok: None if ok else "circuit does not diagonalize its family",
                synth.verify_diagonalizes_symplectic,
                circ,
                fam,
            )
        ops.call(self._check_rows, costs.gate_count_bench, self.GATE_COUNT_NMAX)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed.

    Drawn here rather than by wirecut, so the inputs of a seed stay the same
    whatever the code under test does.
    """
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class MonteCarlo:
    """One cut circuit estimated at a fixed shot count with the parity postprocess.

    Set-up computes the exact expectation and checks that the estimator's
    zero-noise mean (full enumeration of the lattice) matches it.  Each pass
    must reproduce the first pass's estimate bit for bit and lie within
    STD_ERRORS standard errors of the exact value.
    """

    def __init__(self, circuit, cuts, shots: int, shot_seed: int, ops: Ops):
        self.circuit = circuit
        self.cuts = cuts
        self.shots = shots
        self.shot_seed = shot_seed
        self.f = estimator.PostProcess.parity(circuit.width)
        self.exact = estimator.exact_expectation(circuit, self.f)
        self.estimate: float | None = None

        def matches_exact(mean):
            if not abs(mean - self.exact) <= ENUMERATE_TOL:
                return f"enumerated mean {mean!r} != exact {self.exact!r}"
            return None

        ops.call(matches_exact, estimator.enumerate_estimator_mean, circuit, cuts, self.f)

    def _check(self, report):
        if self.estimate is None:
            self.estimate = report.estimate
        elif report.estimate != self.estimate:
            return f"estimate {report.estimate!r} differs from {self.estimate!r}"
        if not abs(report.estimate - self.exact) <= STD_ERRORS * report.std_error:
            return (
                f"estimate {report.estimate!r} is more than {STD_ERRORS} standard "
                f"errors ({report.std_error!r}) from {self.exact!r}"
            )
        return None

    def run(self, ops: Ops) -> None:
        ops.call(
            self._check,
            estimator.run_monte_carlo,
            self.circuit,
            self.cuts,
            self.f,
            self.shots,
            self.shot_seed,
        )


class McDeep(MonteCarlo):
    name = "mc_deep"
    SHOTS = 10**5
    # three brickwork rounds of (1,2),(3,4),(5,6) then (2,3),(4,5)
    FIRST_QUBITS = (1, 3, 5, 2, 4) * 3

    def __init__(self, seed: int, ops: Ops):
        rng = np.random.default_rng(seed)
        layers = tuple(
            estimator.CircuitLayer(q, haar_unitary(4, rng)) for q in self.FIRST_QUBITS
        )
        circuit = estimator.LayeredCircuit(6, layers)
        one = channels.build_decomposition("optimal1q", 1)
        two = channels.build_decomposition("mub", 2)
        cuts = estimator.CutSpec(
            (
                estimator.CutLocation(5, 2, one),
                estimator.CutLocation(5, 4, one),
                estimator.CutLocation(10, 2, two),
            )
        )
        super().__init__(circuit, cuts, self.SHOTS, int(rng.integers(2**63)), ops)


class McWide(MonteCarlo):
    name = "mc_wide"
    SHOTS = 2 * 10**6

    def __init__(self, seed: int, ops: Ops):
        rng = np.random.default_rng(seed)
        circuit = estimator.demo_circuit(haar_unitary(4, rng), haar_unitary(4, rng))
        cuts = estimator.demo_cut(channels.build_decomposition("optimal1q", 1))
        super().__init__(circuit, cuts, self.SHOTS, int(rng.integers(2**63)), ops)


WORKLOADS = {w.name: w for w in (Decompose, SynthScale, McDeep, McWide)}

# the other Monte-Carlo shape, run once in a traced run to fit the time model
SIBLING = {"mc_deep": McWide, "mc_wide": McDeep}
