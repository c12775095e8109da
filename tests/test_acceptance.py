"""Acceptance suite: one test per release criterion, with stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion; each test also prints a [PASS] summary line with timing.
"""

import json
import time
from fractions import Fraction
from importlib import resources

import numpy as np

from wirecut import dense
from wirecut.channels import (
    build_mub_default,
    build_optimal_1q,
    build_peng_1q,
    build_randomized_nq,
    build_teleport_nq,
    single_qubit_clifford_group,
    verify_decomposition,
)
from wirecut.costs import (
    TimeModelParams,
    channel_count_bound,
    overhead_table,
    predict_time,
)
from wirecut.estimator import (
    CutLocation,
    CutSpec,
    PostProcess,
    demo_circuit,
    demo_cut,
    enumerate_estimator_mean,
    exact_expectation,
    run_monte_carlo,
)
from wirecut.families import CommutingFamily, expand_family, generate_partition
from wirecut.pauli import PauliString
from wirecut.synth import (
    CliffordCircuit,
    circuit_unitary,
    gate_stats,
    synthesize,
    verify_diagonalizes_symplectic,
)

from oracles import diagonalizes_dense, mub_overlap_deviation

TOL = 1e-10


def test_criterion_1_decomposition_residuals():
    """All five builders hit PTM residual < 1e-10 at their stated widths."""
    start = time.monotonic()
    cases = {}
    cases["peng n=1"] = verify_decomposition(build_peng_1q())
    cases["optimal1q n=1"] = verify_decomposition(build_optimal_1q())
    for n in (1, 2, 3, 4):
        cases[f"mub n={n}"] = verify_decomposition(build_mub_default(n))
    group = single_qubit_clifford_group()
    p = Fraction(1, len(group))
    cases["randomized n=1"] = verify_decomposition(
        build_randomized_nq(1, [(u, p) for u in group])
    )
    for n in (1, 2):
        cases[f"teleport n={n}"] = verify_decomposition(build_teleport_nq(n))
    elapsed = time.monotonic() - start
    for name, residual in cases.items():
        assert residual < TOL, f"{name}: residual {residual}"
    assert elapsed < 60.0
    print(f"[PASS] criterion 1: residuals < 1e-10 for {len(cases)} builds ({elapsed:.1f}s)")


def test_criterion_2_double_optimality_numbers():
    """Exact integer gamma^2 / m values and rank-bound saturation."""
    group = single_qubit_clifford_group()
    randomized = build_randomized_nq(1, [(u, Fraction(1, len(group))) for u in group])
    gamma_sq = {
        "peng": int(build_peng_1q().gamma) ** 2,
        "randomized": int(randomized.gamma) ** 2,
        "optimal1q": int(build_optimal_1q().gamma) ** 2,
        "teleport": int(build_teleport_nq(1).gamma) ** 2,
    }
    assert (
        gamma_sq["peng"],
        gamma_sq["randomized"],
        gamma_sq["optimal1q"],
        gamma_sq["teleport"],
    ) == (16, 25, 9, 9)

    mub2, mub3 = build_mub_default(2), build_mub_default(3)
    assert int(mub2.gamma) ** 2 == 49 and mub2.m == 5
    assert int(mub3.gamma) ** 2 == 225 and mub3.m == 9
    assert build_teleport_nq(1).m == 5
    assert build_teleport_nq(2).m == 27
    for n in (1, 2, 3, 4):
        want = (4**n - 1) // (2**n - 1)
        assert build_mub_default(n).m == want
        assert channel_count_bound(n) == want
    print("[PASS] criterion 2: gamma^2/m integers and rank-bound saturation exact")


def test_criterion_3_synthesis_bounds():
    """Every synthesized circuit verifies with bounded gates and depth, n <= 8."""
    start = time.monotonic()
    for n in range(1, 9):
        part = generate_partition(n)
        fams = part.families[:-1]
        assert len(fams) == 2**n
        for fam in fams:
            circ = synthesize(fam)
            stats = gate_stats(circ)
            assert stats.n_h == n
            assert stats.n_s <= n
            assert stats.n_cz <= n * (n - 1) // 2
            assert circ.depth <= n + 2
            if n <= 6:
                assert diagonalizes_dense(circ, fam)
            else:
                assert verify_diagonalizes_symplectic(circ, fam)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"[PASS] criterion 3: synthesis bounds hold for n = 1..8 ({elapsed:.1f}s)")


def test_criterion_4_mub_property():
    """Bases from the synthesized circuits plus identity are mutually unbiased."""
    for n in range(1, 6):
        part = generate_partition(n)
        bases = [circuit_unitary(synthesize(f)) for f in part.families[:-1]]
        bases.append(np.eye(2**n, dtype=complex))
        deviation = mub_overlap_deviation(bases)
        assert deviation < TOL, f"n={n}: deviation {deviation}"
    print("[PASS] criterion 4: MUB overlap deviation < 1e-10 for n <= 5")


def test_criterion_5_golden_fixtures():
    """Shipped generator tables expand to valid families; circuits verify."""
    for n in range(1, 5):
        ref = resources.files("wirecut").joinpath(f"golden/families_n{n}.json")
        data = json.loads(ref.read_text())
        assert len(data["families"]) == 2**n
        for idx, entry in enumerate(data["families"], start=1):
            gens = tuple(PauliString.from_label(g) for g in entry["generators"])
            members = expand_family(gens)
            assert len(members) == 2**n - 1
            assert {p.label for p in members} == set(entry["members"])
            circ_ref = resources.files("wirecut").joinpath(
                f"golden/circuit_n{n}_U{idx:02d}.txt"
            )
            circ = CliffordCircuit.parse(circ_ref.read_text(), n)
            assert diagonalizes_dense(circ, CommutingFamily(n, gens))
    print("[PASS] criterion 5: golden fixtures load, expand and verify for n <= 4")


def test_criterion_6_estimator_unbiasedness():
    """Analytic enumeration of the estimator equals the exact expectation."""
    start = time.monotonic()
    f = PostProcess.parity(3)
    builders = {"peng": build_peng_1q(), "optimal1q": build_optimal_1q()}
    circuits = [demo_circuit()]
    rng = np.random.default_rng(2026)
    for _ in range(20):
        circuits.append(
            demo_circuit(dense.haar_unitary(4, rng), dense.haar_unitary(4, rng))
        )
    for circ in circuits:
        exact = exact_expectation(circ, f)
        for name, d in builders.items():
            mean = enumerate_estimator_mean(circ, demo_cut(d), f)
            assert abs(mean - exact) < TOL, f"{name}: {mean} vs {exact}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(
        f"[PASS] criterion 6: zero-noise estimator mean exact on {len(circuits)} "
        f"circuits x 2 methods ({elapsed:.1f}s)"
    )


def test_criterion_7_estimator_sampling():
    """Million-shot estimates land within 5 sigma; variance ratio in range."""
    start = time.monotonic()
    shots = 10**6
    circ = demo_circuit()
    f = PostProcess.parity(3)
    exact = exact_expectation(circ, f)
    per_shot_var = {}
    for name, d in (("peng", build_peng_1q()), ("optimal1q", build_optimal_1q())):
        rep = run_monte_carlo(circ, demo_cut(d), f, shots, seed=0)
        bound = 5 * float(d.gamma) / np.sqrt(shots)
        assert abs(rep.estimate - exact) <= bound, f"{name}: {rep.estimate}"
        per_shot_var[name] = rep.std_error**2 * shots
    ratio = per_shot_var["peng"] / per_shot_var["optimal1q"]
    assert 1.0 <= ratio <= (16 / 9) * 1.3, f"variance ratio {ratio}"
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"[PASS] criterion 7: N=1e6 estimates within 5 sigma, "
        f"variance ratio {ratio:.3f} ({elapsed:.1f}s)"
    )


def test_criterion_8_cost_models():
    """Time-model branch values exact on a grid; tables match closed forms."""
    grid = [
        (TimeModelParams(5, 1000, 1.0, 0.01), 15.0),
        (TimeModelParams(10**6, 100, 1.0, 0.01), 101.0),
        (TimeModelParams(1, 1, 1.0, 1.0), 2.0),
        (TimeModelParams(10, 10, 2.0, 0.5), 25.0),
        (TimeModelParams(10, 9, 2.0, 0.5), 22.5),
        (TimeModelParams(10, 11, 2.0, 0.5), 25.5),
        (TimeModelParams(0, 7, 3.0, 1.0), 7.0),
        (TimeModelParams(3, 0, 3.0, 1.0), 0.0),
        (TimeModelParams(8, 64, 0.25, 0.125), 10.0),
        (TimeModelParams(100, 50, 1.0, 0.0), 50.0),
    ]
    for params, want in grid:
        assert predict_time(params) == want
    for row in overhead_table(12):
        if row.method == "peng":
            assert row.gamma_sq == 16**row.n and row.m == 8**row.n
        elif row.method == "randomized":
            assert row.gamma_sq == (2 ** (row.n + 1) + 1) ** 2
            assert row.m == 2 ** (4 * row.n) - 2 * 2 ** (2 * row.n) + 3
        elif row.method == "mub":
            assert row.gamma_sq == (2 ** (row.n + 1) - 1) ** 2
            assert row.m == 2**row.n + 1
        else:
            assert row.gamma_sq == (2 ** (row.n + 1) - 1) ** 2
            assert row.m == 2 ** (2**row.n) + 4**row.n - 2**row.n - 1
    three_wires = CutSpec(tuple(CutLocation(0, w, build_optimal_1q()) for w in (1, 2, 3)))
    assert three_wires.gamma_total**2 == 729
    print("[PASS] criterion 8: cost models exact on the grid and tables")
