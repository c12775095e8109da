"""Estimator tests: exact simulation oracle, unbiasedness, determinism, variance."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wirecut import dense, estimator
from wirecut.channels import (
    Decomposition,
    MPChannel,
    build_decomposition,
    build_mub_default,
    build_optimal_1q,
    build_peng_1q,
)
from wirecut.errors import InvalidInputError, NumericFailureError, ResourceLimitError
from wirecut.estimator import (
    CircuitLayer,
    CutLocation,
    CutSpec,
    LayeredCircuit,
    PostProcess,
    circuit_from_json,
    circuit_to_json,
    cuts_from_json,
    demo_circuit,
    demo_cut,
    enumerate_estimator_mean,
    exact_expectation,
    run_monte_carlo,
)

DEMOS = Path(__file__).resolve().parent.parent / "demos"
H2 = np.kron(dense.H_1Q, np.eye(2))
BELL_MAKER = dense.CX_2Q @ H2


class TestExactExpectation:
    def test_empty_circuit_parity(self):
        circ = LayeredCircuit(2, ())
        assert exact_expectation(circ, PostProcess.parity(2)) == 1.0

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one_refused(self, width):
        with pytest.raises(InvalidInputError, match=f"width must be at least 1, got {width}"):
            LayeredCircuit(width, ())

    def test_h_circuit_parity_zero(self):
        circ = LayeredCircuit(1, (CircuitLayer(1, dense.H_1Q),))
        assert abs(exact_expectation(circ, PostProcess.parity(1))) < 1e-12

    def test_empty_circuit_bit(self):
        circ = LayeredCircuit(1, ())
        assert exact_expectation(circ, PostProcess.bit(1, 1)) == 0.0

    def test_demo_cx_cx_parity_is_one(self):
        # |000> is a fixed point of both CX layers, so parity is exactly +1
        assert abs(exact_expectation(demo_circuit(), PostProcess.parity(3)) - 1.0) < 1e-12

    def test_ghz_statistics(self):
        circ = LayeredCircuit(3, (CircuitLayer(1, BELL_MAKER), CircuitLayer(2, dense.CX_2Q)))
        assert abs(exact_expectation(circ, PostProcess.parity(3))) < 1e-12
        assert abs(exact_expectation(circ, PostProcess.bit(3, 3)) - 0.5) < 1e-12

    def test_width_guard(self):
        with pytest.raises(ResourceLimitError):
            exact_expectation(LayeredCircuit(13, ()), PostProcess.parity(13))

    @pytest.mark.parametrize("evaluate", [
        pytest.param(exact_expectation, id="exact"),
        pytest.param(lambda c, f: enumerate_estimator_mean(c, demo_cut(build_optimal_1q()), f),
                     id="enumerate"),
        pytest.param(lambda c, f: run_monte_carlo(c, demo_cut(build_optimal_1q()), f, 10),
                     id="monte_carlo"),
    ])
    def test_postprocess_one_qubit_wider_is_refused(self, evaluate):
        """Without the width check numpy would fail to broadcast a 2^4
        table against 2^3 probabilities, with a bare ValueError."""
        with pytest.raises(InvalidInputError, match="^postprocess width mismatch$"):
            evaluate(demo_circuit(), PostProcess.parity(4))

    @pytest.mark.parametrize("dim", [1, 3, 6])
    def test_layer_dimension_must_be_a_power_of_two(self, dim):
        with pytest.raises(InvalidInputError, match="not 2\\^k"):
            CircuitLayer(1, np.eye(dim))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_layer_span_is_log2_of_dimension(self, k):
        assert CircuitLayer(1, np.eye(2**k)).span == k


class TestSamplePrep:
    def test_two_qubit_mixture_frequencies(self):
        # the computational channel re-prepares, after outcome j = 01, the
        # uniform mixture of the three other basis states
        loc = estimator._RealizedLocation(CutLocation(0, 1, build_mub_default(2)), 2)
        ch = loc.channels[-1]
        support = [int(np.flatnonzero(vec)[0]) for vec in ch.preps[1]]
        assert support == [0, 2, 3]
        for vec in ch.preps[1]:
            assert np.count_nonzero(vec) == 1 and np.max(np.abs(vec)) == 1.0
        np.testing.assert_allclose(ch.prep_probs[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(loc.prep_cum[-1, 1], [1 / 3, 2 / 3, 1.0], atol=1e-12)

    @pytest.mark.parametrize(
        "method, n", [("peng", 1), ("randomized", 1), ("teleport", 2), ("mub", 3)]
    )
    def test_prep_tables_end_at_exactly_one(self, method, n):
        """Each outcome's prep row is exactly 1.0 from its last positive
        weight on, and so is the padding of the location's (m, O, P) table,
        so a uniform in [0, 1) never draws a state past it."""
        loc = estimator._RealizedLocation(CutLocation(0, 1, build_decomposition(method, n)), n)
        for ch, table in zip(loc.channels, loc.prep_cum):
            o, p = ch.prep_probs.shape
            cums = table[:o, :p]
            cols = np.arange(cums.shape[1])
            last = np.array([np.flatnonzero(w)[-1] for w in ch.prep_probs])
            assert np.all((cums == 1.0) == (cols >= last[:, None]))
            assert np.all(table[o:] == 1.0) and np.all(table[:, p:] == 1.0)

    @pytest.mark.parametrize(
        "method, n", [("peng", 1), ("randomized", 1), ("teleport", 2), ("mub", 3)]
    )
    def test_sampling_tables_end_at_exactly_one(self, method, n):
        """The channel, outcome and terminal tables end at exactly 1.0, so
        searchsorted(side="right") on a uniform in [0, 1) stays in range."""
        width = n + 1
        u = dense.haar_unitary(2**width, np.random.default_rng(3))
        engine = estimator._CutEngine(
            LayeredCircuit(width, (CircuitLayer(1, u),)),
            CutSpec((CutLocation(1, 1, build_decomposition(method, n)),)),
            PostProcess.parity(width),
        )
        loc = engine.locations[0]
        assert loc.channel_cum[-1] == 1.0
        for c in range(len(loc.signs)):
            assert engine.outcomes((), c)[0][-1] == 1.0
            assert engine.terminal_cums(engine.children([((), c, 0, 0)]))[0, -1] == 1.0

    def test_zero_weight_last_channel_is_never_drawn(self):
        """Weights (3, 2, 2, 0) sum to 0.9999999999999999 before the last
        entry; the channel table is 1.0 from channel 2 on, so even the
        largest uniform draws channel 2, never the zero-weight channel 3."""
        ch = build_optimal_1q().channels[0][1]
        d = Decomposition(1, tuple((w, ch) for w in (3, 2, 2, 0)), "zero tail")
        loc = estimator._RealizedLocation(CutLocation(0, 1, d), 1)
        assert loc.channel_cum[2:].tolist() == [1.0, 1.0]
        u = np.array([np.nextafter(1.0, 0.0)])
        assert estimator._count_le(loc.channel_cum[None], 0, u).tolist() == [2]


class TestMonteCarlo:
    def test_identity_wire_estimate(self):
        circ = LayeredCircuit(1, ())
        cuts = CutSpec((CutLocation(0, 1, build_optimal_1q()),))
        rep = run_monte_carlo(circ, cuts, PostProcess.parity(1), shots=20000, seed=0)
        sigma = 3.0 / np.sqrt(rep.shots)
        assert abs(rep.estimate - 1.0) <= 5 * sigma
        assert rep.gamma_total == 3.0
        assert sum(rep.tallies[0]) == rep.shots

    def test_demo_converges_both_methods(self):
        circ = demo_circuit()
        f = PostProcess.parity(3)
        exact = exact_expectation(circ, f)
        for build in (build_peng_1q, build_optimal_1q):
            d = build()
            rep = run_monte_carlo(circ, demo_cut(d), f, shots=200000, seed=0)
            bound = 5 * float(d.gamma) / np.sqrt(rep.shots)
            assert abs(rep.estimate - exact) <= bound

    def test_estimate_bound(self):
        circ = demo_circuit()
        rep = run_monte_carlo(
            circ, demo_cut(build_peng_1q()), PostProcess.parity(3), 500, seed=3
        )
        assert abs(rep.estimate) <= rep.gamma_total + 1e-12

    def test_determinism(self):
        circ = demo_circuit()
        cuts = demo_cut(build_optimal_1q())
        f = PostProcess.parity(3)
        a = run_monte_carlo(circ, cuts, f, 5000, seed=7)
        b = run_monte_carlo(circ, cuts, f, 5000, seed=7)
        assert a == b
        c = run_monte_carlo(circ, cuts, f, 5000, seed=8)
        assert c.estimate != a.estimate

    def test_two_independent_single_wire_cuts(self):
        circ = LayeredCircuit(3, (CircuitLayer(1, BELL_MAKER), CircuitLayer(2, dense.CX_2Q)))
        d = build_optimal_1q()
        cuts = CutSpec((CutLocation(1, 1, d), CutLocation(1, 2, d)))
        assert cuts.gamma_total == 9.0
        f = PostProcess.bit(3, 3)
        exact = exact_expectation(circ, f)
        mean = enumerate_estimator_mean(circ, cuts, f)
        assert abs(mean - exact) < 1e-10
        rep = run_monte_carlo(circ, cuts, f, shots=200000, seed=0)
        assert abs(rep.estimate - exact) <= 5 * 9.0 / np.sqrt(rep.shots)

    def test_shots_guard(self):
        with pytest.raises(InvalidInputError):
            run_monte_carlo(
                demo_circuit(), demo_cut(build_optimal_1q()), PostProcess.parity(3), 0
            )

    def test_shot_cap_applies_before_the_engine(self, monkeypatch):
        def no_engine(*args):
            raise AssertionError("engine built before the shot cap")

        monkeypatch.setattr(estimator, "_CutEngine", no_engine)
        cuts = demo_cut(build_optimal_1q())
        with pytest.raises(ResourceLimitError, match="shots capped"):
            run_monte_carlo(demo_circuit(), cuts, PostProcess.parity(3), estimator.MAX_SHOTS + 1)

    @pytest.mark.parametrize(
        "shots, seed, message",
        [
            (2.0, 0, "shots 2.0 must be an integer"),
            (3.5, 0, "shots 3.5 must be an integer"),
            (True, 0, "shots True must be an integer"),
            ("10", 0, "shots '10' must be an integer"),
            (10, True, r"seed True must be an integer in \[0, 2\^128\)"),
            (10, False, r"seed False must be an integer in \[0, 2\^128\)"),
            (10, 1.0, r"seed 1.0 must be an integer in \[0, 2\^128\)"),
        ],
    )
    def test_non_integer_shots_and_bool_seed_refused_before_the_engine(
        self, monkeypatch, shots, seed, message
    ):
        """A bool is an int to Python but not a shot count or a Philox key:
        each is refused, with a float shot count, before the engine exists."""

        def no_engine(*args):
            raise AssertionError("engine built before the shots and seed checks")

        monkeypatch.setattr(estimator, "_CutEngine", no_engine)
        cuts = demo_cut(build_optimal_1q())
        with pytest.raises(InvalidInputError, match=message):
            run_monte_carlo(demo_circuit(), cuts, PostProcess.parity(3), shots, seed)

    def test_numpy_integer_shots_and_seed_report_as_python_ints(self):
        """The report of numpy integer shots and seed is the report of the
        same Python ints, and so serializes to the same JSON."""
        circ, cuts, f = demo_circuit(), demo_cut(build_optimal_1q()), PostProcess.parity(3)
        rep = run_monte_carlo(circ, cuts, f, np.int64(50), np.uint64(3)).to_json()
        assert json.dumps(rep) == json.dumps(run_monte_carlo(circ, cuts, f, 50, 3).to_json())

    def test_cut_width_mismatch(self):
        from wirecut.channels import build_mub_default

        with pytest.raises(InvalidInputError):
            CutSpec((CutLocation(1, 3, build_mub_default(2)),))
            run_monte_carlo(
                demo_circuit(),
                CutSpec((CutLocation(1, 3, build_mub_default(2)),)),
                PostProcess.parity(3),
                10,
            )

    def test_cut_wire_below_one(self):
        cuts = CutSpec((CutLocation(1, 0, build_optimal_1q()),))
        with pytest.raises(InvalidInputError, match="outside the circuit"):
            run_monte_carlo(demo_circuit(), cuts, PostProcess.parity(3), 10)

    def test_overflowing_gamma_total_rejected(self):
        """Each cut's gamma is a finite double, their product is not."""
        rows = build_optimal_1q().channels
        big = Decomposition(1, tuple((1e200 * float(c), ch) for c, ch in rows), "big")
        with pytest.raises(InvalidInputError, match="product of the cut gammas"):
            CutSpec((CutLocation(1, 1, big), CutLocation(1, 2, big)))


def deep_three_cut_case():
    """6 qubits, 15 fixed Haar layers in brickwork, two optimal1q cuts after
    layer 5 and one two-wire mub cut after layer 10."""
    rng = np.random.default_rng(2024)
    layers = tuple(CircuitLayer(q, dense.haar_unitary(4, rng)) for q in (1, 3, 5, 2, 4) * 3)
    one, two = build_optimal_1q(), build_mub_default(2)
    cuts = CutSpec((CutLocation(5, 2, one), CutLocation(5, 4, one), CutLocation(10, 2, two)))
    return LayeredCircuit(6, layers), cuts, PostProcess.parity(6)


def wide_mub_case():
    """8 qubits, 14 fixed Haar layers in brickwork, a four-wire mub cut on
    wires 3-6 after layer 4 and a two-wire mub cut on wires 2-3 after layer 10."""
    rng = np.random.default_rng(21)
    layers = tuple(CircuitLayer(q, dense.haar_unitary(4, rng)) for q in (1, 3, 5, 7, 2, 4, 6) * 2)
    cuts = CutSpec(
        (CutLocation(4, 3, build_mub_default(4)), CutLocation(10, 2, build_mub_default(2)))
    )
    return LayeredCircuit(8, layers), cuts, PostProcess.parity(8)


class TestGoldenEstimates:
    """Reports pinned bit for bit; the shot counts above CHUNK_SHOTS span
    several chunks and end in a partial one."""

    def test_demo_optimal1q(self):
        rep = run_monte_carlo(
            demo_circuit(), demo_cut(build_optimal_1q()), PostProcess.parity(3), 150_001, seed=11
        )
        assert rep.estimate == 1.0013733241778389
        assert rep.std_error == 0.007301712797065735
        assert rep.tallies == ((49866, 50169, 49966),)

    def test_deep_three_cuts(self):
        rep = run_monte_carlo(*deep_three_cut_case(), 70_000, seed=5)
        assert rep.estimate == -0.0594
        assert rep.std_error == 0.2381192130125342
        assert rep.tallies == (
            (23144, 23484, 23372),
            (23342, 23574, 23084),
            (9975, 10011, 10047, 9958, 30009),
        )

    def test_wide_mub_cuts(self):
        """17 channels of 16 outcomes, up to 15 preps each, then 5 of 4."""
        rep = run_monte_carlo(*wide_mub_case(), 20_000, seed=13)
        assert rep.estimate == 1.1718
        assert rep.std_error == 1.5344377045652455
        assert rep.tallies == (
            (637, 644, 654, 643, 681, 584, 640, 666, 633, 646, 627, 581, 607, 681, 644, 692, 9740),
            (2826, 2945, 2868, 2834, 8527),
        )

    def test_chunk_size_does_not_change_the_report(self, monkeypatch):
        case = deep_three_cut_case()
        reference = run_monte_carlo(*case, 2000, seed=3)
        for chunk in (1, 7, 4096):
            monkeypatch.setattr(estimator, "CHUNK_SHOTS", chunk)
            assert run_monte_carlo(*case, 2000, seed=3) == reference


class TestCutSeparation:
    def test_prepared_states_do_not_depend_on_upstream(self):
        """Only the classical record crosses a cut: the prepared wire states
        are a function of (channel, outcome) alone, whatever ran upstream."""
        from wirecut.estimator import _RealizedLocation

        rng = np.random.default_rng(9)
        d = build_optimal_1q()
        loc_a = _RealizedLocation(CutLocation(1, 2, d), 3)
        loc_b = _RealizedLocation(CutLocation(1, 2, d), 3)
        for ch_a, ch_b in zip(loc_a.channels, loc_b.channels):
            np.testing.assert_array_equal(ch_a.prep_probs, ch_b.prep_probs)
            np.testing.assert_array_equal(ch_a.preps, ch_b.preps)
        # and per-shot trajectories with identical classical records agree
        circ_a = demo_circuit()
        circ_b = demo_circuit(dense.haar_unitary(4, rng), dense.CX_2Q)
        f = PostProcess.parity(3)
        rep_a = run_monte_carlo(circ_a, demo_cut(d), f, 200, seed=5)
        rep_b = run_monte_carlo(circ_b, demo_cut(d), f, 200, seed=5)
        assert rep_a.gamma_total == rep_b.gamma_total


def split_depolarizing():
    """randomized with its depolarizing channel Tr[rho] I/2 written as: outcome
    0 prepares |0> or |1> with weights [0.5, 0, 0.5], the zero-weight middle
    slot holding no state at all, and outcome 1 prepares I/2 as [0.5, 0.5, 0]."""
    k0, k1 = np.eye(2, dtype=complex)
    preps = np.array([[k0, np.zeros(2), k1], [k0, k1, np.zeros(2)]])
    depol = MPChannel(1, np.ones(2, dtype=int), np.eye(2), [[0.5, 0, 0.5], [0.5, 0.5, 0]], preps)
    rand = build_decomposition("randomized", 1)
    return Decomposition(1, rand.channels[:-1] + ((rand.channels[-1][0], depol),), "split")


class TestUnbiasedness:
    def test_padded_prep_ensembles(self):
        d = split_depolarizing()
        loc = estimator._RealizedLocation(CutLocation(1, 2, d), 3)
        np.testing.assert_array_equal(loc.prep_cum[-1], [[0.5, 0.5, 1.0], [0.5, 1.0, 1.0]])
        rng = np.random.default_rng(5)
        layers = tuple(CircuitLayer(1, dense.haar_unitary(8, rng)) for _ in range(2))
        circ, f = LayeredCircuit(3, layers), PostProcess.parity(3)
        cuts = CutSpec((CutLocation(1, 2, d),))
        assert abs(enumerate_estimator_mean(circ, cuts, f) - exact_expectation(circ, f)) < 1e-10
        rep = run_monte_carlo(circ, cuts, f, 20_000, seed=2)
        assert abs(rep.estimate - exact_expectation(circ, f)) < 5 * rep.std_error

    @pytest.mark.parametrize("build", [build_peng_1q, build_optimal_1q])
    def test_demo_zero_noise(self, build):
        circ = demo_circuit()
        f = PostProcess.parity(3)
        exact = exact_expectation(circ, f)
        mean = enumerate_estimator_mean(circ, demo_cut(build()), f)
        assert type(mean) is float
        assert abs(mean - exact) < 1e-10

    @pytest.mark.parametrize("build", [build_peng_1q, build_optimal_1q])
    def test_random_circuits_zero_noise(self, build):
        rng = np.random.default_rng(42)
        d = build()
        for _ in range(5):
            circ = demo_circuit(dense.haar_unitary(4, rng), dense.haar_unitary(4, rng))
            f = PostProcess.parity(3)
            exact = exact_expectation(circ, f)
            mean = enumerate_estimator_mean(circ, demo_cut(d), f)
            assert abs(mean - exact) < 1e-10

    def test_sequential_cuts_different_layers_zero_noise(self):
        """Two cuts at different boundaries: the second cut's upstream state
        depends on the first cut's record, so this drives the chained
        trajectory tree; mixing methods also checks per-location bookkeeping."""
        rng = np.random.default_rng(13)
        circ = LayeredCircuit(
            4,
            (
                CircuitLayer(1, dense.haar_unitary(4, rng)),
                CircuitLayer(2, dense.haar_unitary(4, rng)),
                CircuitLayer(3, dense.haar_unitary(4, rng)),
            ),
        )
        cuts = CutSpec(
            (
                CutLocation(1, 2, build_optimal_1q()),
                CutLocation(2, 3, build_peng_1q()),
            )
        )
        assert cuts.gamma_total == 12.0
        f = PostProcess.parity(4)
        exact = exact_expectation(circ, f)
        mean = enumerate_estimator_mean(circ, cuts, f)
        assert abs(mean - exact) < 1e-10
        rep = run_monte_carlo(circ, cuts, f, shots=400000, seed=1)
        assert abs(rep.estimate - exact) <= 5 * 12.0 / np.sqrt(rep.shots)
        assert len(rep.tallies) == 2
        assert sum(rep.tallies[0]) == rep.shots and sum(rep.tallies[1]) == rep.shots

    def test_teleport_cut_from_json_zero_noise(self):
        """The teleport channels exercise subnormalized rank-1 effects and
        non-diagonal pure preparations, here additionally piped through the
        JSON wire format before cutting."""
        from wirecut.channels import (
            build_teleport_nq,
            decomposition_from_json,
            decomposition_to_json,
        )

        d = decomposition_from_json(decomposition_to_json(build_teleport_nq(1)))
        rng = np.random.default_rng(3)
        circ = demo_circuit(dense.haar_unitary(4, rng), dense.haar_unitary(4, rng))
        f = PostProcess.parity(3)
        exact = exact_expectation(circ, f)
        mean = enumerate_estimator_mean(circ, demo_cut(d), f)
        assert abs(mean - exact) < 1e-10

    def test_mub_two_wire_cut_zero_noise(self):
        # cut both wires of a 2-qubit circuit with the 2-wire MUB decomposition
        rng = np.random.default_rng(5)
        u = dense.haar_unitary(4, rng)
        v = dense.haar_unitary(4, rng)
        circ = LayeredCircuit(2, (CircuitLayer(1, u), CircuitLayer(1, v)))
        cuts = CutSpec((CutLocation(1, 1, build_mub_default(2)),))
        f = PostProcess.parity(2)
        exact = exact_expectation(circ, f)
        mean = enumerate_estimator_mean(circ, cuts, f)
        assert abs(mean - exact) < 1e-10

    def test_impossible_trailing_outcome_is_skipped(self):
        """Wire 2 stays |0>, so the computational channel's outcome |11> is
        impossible; rounding of the forced cum[-1] = 1 leaves it a sliver of
        mass, which must not be conditioned on."""
        rng = np.random.default_rng(11)
        circ = LayeredCircuit(2, (CircuitLayer(1, dense.haar_unitary(2, rng)),))
        cuts = CutSpec((CutLocation(1, 1, build_mub_default(2)),))
        f = PostProcess.parity(2)
        assert abs(enumerate_estimator_mean(circ, cuts, f) - exact_expectation(circ, f)) < 1e-10

    def test_impossible_trailing_outcome_has_no_mass(self):
        """The same case seen by the sampler: a shot must never land on |11>."""
        rng = np.random.default_rng(11)
        circ = LayeredCircuit(2, (CircuitLayer(1, dense.haar_unitary(2, rng)),))
        engine = estimator._CutEngine(
            circ, CutSpec((CutLocation(1, 1, build_mub_default(2)),)), PostProcess.parity(2)
        )
        impossible = 0
        for c in range(len(engine.locations[0].signs)):
            cum, amps, _ = engine.outcomes((), c)
            for width, amp in zip(np.diff(cum, prepend=0.0), amps):
                if np.linalg.norm(amp) < estimator.MIN_RESIDUAL_NORM:
                    impossible += 1
                    assert width == 0.0
        assert impossible > 0

    def test_zero_probability_outcome_cannot_be_conditioned_on(self):
        """|0> through an identity wire: the optimal1q Z channel's outcome 1
        has norm 0.  children() refuses to condition on it, and the
        enumerator never asks it to, so the mean is still exact."""
        case = (
            LayeredCircuit(1, ()),
            CutSpec((CutLocation(0, 1, build_optimal_1q()),)),
            PostProcess.parity(1),
        )
        engine = estimator._CutEngine(*case)
        assert engine.outcomes((), 2)[2].tolist() == [1.0, 0.0]
        with pytest.raises(NumericFailureError, match="zero-probability outcome"):
            engine.children([((), 2, 1, 0)])
        assert enumerate_estimator_mean(*case) == exact_expectation(case[0], case[2])

    def test_a_zero_uniform_draws_no_zero_norm_outcome(self):
        """On the demo circuit each randomized channel's outcome 0 has mass
        5e-34 but a conditioned norm below MIN_RESIDUAL_NORM, so its table
        step is 0: a shot whose uniforms are all 0.0, which the generator
        can return, draws outcome 1 and builds no zero-norm node."""
        circuit, f = estimator.load_circuit(DEMOS / "demo_circuit.json")
        cuts = estimator.load_cuts(
            DEMOS / "demo_cut.json", circuit, lambda n: build_decomposition("randomized", n)
        )
        engine = estimator._CutEngine(circuit, cuts, f)
        tallies = [np.zeros(len(engine.locations[0].signs), dtype=np.int64)]
        estimator._sample_chunk(engine, np.zeros((1, 4)), tallies)
        (chan,) = np.flatnonzero(tallies[0]).tolist()
        assert engine.outcomes((), chan)[0][0] == 0.0
        assert [path[1] for path in engine._states if path] == [1]


def ghz_mub_cut():
    """The GHZ demo circuit, its wires 2-3 cut by the 2-wire mub decomposition."""
    circuit, f = estimator.load_circuit(DEMOS / "demo_ghz.json")
    return circuit, estimator.load_cuts(DEMOS / "demo_cut_2wire.json", circuit, build_mub_default), f


def flip_a_negative_channel(loc):
    loc.factors[loc.signs.index(-1)] *= -1


def draw_only_the_first_prep(loc):
    loc.prep_cum[-1, 0] = 1.0


class TestEnumeratorReadsTheSamplerTables:
    """The enumerator weights each path by the steps of the tables that
    run_monte_carlo draws from, not by the decomposition they came from."""

    @pytest.mark.parametrize("fault", [flip_a_negative_channel, draw_only_the_first_prep])
    def test_a_faulty_table_moves_the_mean_where_the_sampler_goes(self, monkeypatch, fault):
        case = ghz_mub_cut()
        init = estimator._RealizedLocation.__init__

        def faulty(self, *args):
            init(self, *args)
            fault(self)

        monkeypatch.setattr(estimator._RealizedLocation, "__init__", faulty)
        mean = enumerate_estimator_mean(*case)
        assert abs(mean - exact_expectation(case[0], case[2])) > 1e-3
        rep = run_monte_carlo(*case, 20_000, seed=1)
        assert abs(rep.estimate - mean) < 5 * rep.std_error

    def test_zero_weight_channel_builds_no_node(self, monkeypatch):
        """A channel that can never be drawn gets no outcome table and no
        node below it, also when it is not the decomposition's last."""
        d = build_optimal_1q()
        zero = d.channels[:1] + ((0, d.channels[0][1]),) + d.channels[1:]
        rng = np.random.default_rng(8)
        circ = demo_circuit(dense.haar_unitary(4, rng), dense.haar_unitary(4, rng))
        f = PostProcess.parity(3)
        engines, children = [], estimator._CutEngine.children

        def recorded(engine, requests):
            engines.append(engine)
            return children(engine, requests)

        monkeypatch.setattr(estimator._CutEngine, "children", recorded)
        mean = enumerate_estimator_mean(circ, demo_cut(Decomposition(1, zero, "zero")), f)
        assert abs(mean - exact_expectation(circ, f)) < 1e-10
        (engine,) = set(engines)
        assert [key[0] for key in engine._outcomes] == [0, 2, 3]
        assert {path[0] for path in engine._states if path} == {0, 2, 3}


class TestVariance:
    def test_halves_when_shots_double(self):
        circ = demo_circuit()
        cuts = demo_cut(build_optimal_1q())
        f = PostProcess.parity(3)

        def variance(shots, seed0, trials=300):
            """Sample variance of the estimate across independent-seed trials."""
            estimates = [
                run_monte_carlo(circ, cuts, f, shots, seed=seed0 + t).estimate
                for t in range(trials)
            ]
            return float(np.var(estimates, ddof=1))

        assert 1.5 < variance(400, 100) / variance(800, 1000) < 2.5

    def test_optimal_variance_within_gamma_square(self):
        circ = demo_circuit()
        f = PostProcess.parity(3)
        rep = run_monte_carlo(circ, demo_cut(build_optimal_1q()), f, 100000, seed=0)
        per_shot_var = rep.std_error**2 * rep.shots
        assert per_shot_var <= 9.0 + 0.5  # gamma^2 * max|f|^2 plus slack

    def test_std_error_needs_one_shots_sized_array(self):
        """The per-shot values are the only shots-sized array: np.std on them
        would add a second one (numpy reports its buffers to tracemalloc)."""
        shots = 1 << 22
        case = demo_circuit(), demo_cut(build_optimal_1q()), PostProcess.parity(3)
        tracemalloc.start()
        try:
            run_monte_carlo(*case, shots, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * shots + (16 << 20)


@st.composite
def haar_circuits(draw, max_width=4):
    """Width <= max_width and at most 4 Haar layers on random contiguous qubits."""
    width = draw(st.integers(1, max_width))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        span = draw(st.integers(1, min(width, 3)))
        first = draw(st.integers(1, width - span + 1))
        layers.append(CircuitLayer(first, dense.haar_unitary(2**span, rng)))
    return LayeredCircuit(width, tuple(layers))


def basis_cut(k):
    """A one-channel stand-in for a k-wire cut: measure and re-prepare the basis."""
    basis = np.eye(2**k)
    channel = MPChannel(k, np.ones(2**k), basis, np.ones((2**k, 1)), basis[:, None])
    return Decomposition(k, ((1.0, channel),), "stub")


STUB_CUTS = {k: basis_cut(k) for k in range(1, 5)}


@st.composite
def cut_documents(draw):
    """A haar_circuits() circuit and a cut file for it whose locations lie in
    range and do not overlap, with the (after_layer, first wire, wire count)
    of each location in file order."""
    circuit = draw(haar_circuits())
    locations = []
    for _ in range(draw(st.integers(1, 3))):
        first = draw(st.integers(1, circuit.width))
        k = draw(st.integers(1, circuit.width - first + 1))
        locations.append((draw(st.integers(0, len(circuit.layers))), first, k))
    ordered = sorted(locations)
    for a, b in zip(ordered, ordered[1:]):
        assume(a[0] != b[0] or a[1] + a[2] <= b[1])
    entries = [{"after_layer": a, "wires": list(range(w, w + k))} for a, w, k in locations]
    return circuit, {"locations": entries}, locations


class TestCutDocuments:
    @settings(max_examples=50, deadline=None)
    @given(cut_documents())
    def test_valid_document_parses(self, case):
        circuit, doc, locations = case
        spec = cuts_from_json(json.loads(json.dumps(doc)), circuit, STUB_CUTS.__getitem__)
        got = [(loc.after_layer, loc.first_wire, loc.decomposition) for loc in spec.locations]
        assert got == [(a, w, STUB_CUTS[k]) for a, w, k in sorted(locations)]

    @settings(max_examples=50, deadline=None)
    @given(cut_documents(), st.sampled_from(["wires", "after_layer"]), st.data())
    def test_out_of_range_is_named_before_any_build(self, case, field, data):
        circuit, doc, locations = case
        i = data.draw(st.integers(0, len(locations) - 1))
        if field == "wires":
            first = data.draw(st.integers(1, circuit.width + 2))
            last = data.draw(st.integers(max(first, circuit.width + 1), circuit.width + 4))
            doc["locations"][i]["wires"] = list(range(first, last + 1))
        else:
            doc["locations"][i]["after_layer"] = data.draw(
                st.integers(max_value=-1) | st.integers(min_value=len(circuit.layers) + 1)
            )
        calls = []

        def builder(k):
            calls.append(k)
            return STUB_CUTS[k]

        named = rf"field locations\[{i}\]\.{field} must lie in"
        with pytest.raises(InvalidInputError, match=named):
            cuts_from_json(doc, circuit, builder)
        assert calls == []


    def test_builder_runs_once_per_width(self):
        """Two 2-wire locations and one 1-wire location build two
        decompositions, and the 2-wire locations share theirs."""
        doc = {
            "locations": [
                {"after_layer": 0, "wires": [4, 5]},
                {"after_layer": 0, "wires": [1, 2]},
                {"after_layer": 0, "wires": [3]},
            ]
        }
        calls = []

        def builder(k):
            calls.append(k)
            return STUB_CUTS[k]

        spec = cuts_from_json(doc, LayeredCircuit(5, ()), builder)
        assert calls == [2, 1]
        assert [loc.decomposition for loc in spec.locations] == [
            STUB_CUTS[2], STUB_CUTS[1], STUB_CUTS[2]
        ]


class TestSamplingHelpers:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_count_le_is_searchsorted_right(self, data):
        """Per-row searchsorted(side="right") for rows of any length 1-70
        that end at exactly 1.0, with ties, zero entries, 1.0 tails and
        uniforms in [0, 1) equal to entries.  A one-row table is also
        searched with the single row index 0, as the channel draw does."""
        width = data.draw(st.sampled_from([1, 2]) | st.integers(1, 70))
        entry = st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
        rows = []
        for _ in range(data.draw(st.integers(1, 3))):
            row = sorted(data.draw(st.lists(entry, min_size=width, max_size=width)))
            tail = data.draw(st.integers(1, width))
            rows.append(row[: width - tail] + [1.0] * tail)
        tables = np.array(rows)
        shots = data.draw(st.integers(1, 30))
        which = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=shots, max_size=shots))
        below_one = sorted({0.0, *tables.ravel().tolist()} - {1.0})
        uniform = st.sampled_from(below_one) | st.floats(0.0, 1.0, exclude_max=True)
        u = np.array(data.draw(st.lists(uniform, min_size=shots, max_size=shots)))
        want = [int(np.searchsorted(tables[r], x, side="right")) for r, x in zip(which, u)]
        assert estimator._count_le(tables, np.array(which), u).tolist() == want
        if len(rows) == 1:
            assert estimator._count_le(tables, 0, u).tolist() == want

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_draw_table_is_one_from_the_last_drawable_entry(self, data):
        """For rows (or one 1-D row) of weights summing to 1, any of them
        then set to 0, an entry being drawable when its weight is > 0:
        before the last drawable entry the table is np.cumsum, from it on
        exactly 1.0 (from the last entry when none is drawable), and the
        largest uniform below 1 draws no entry past it."""
        rows, width = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 40))
        entry = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
        probs = np.array(data.draw(st.lists(
            st.lists(entry, min_size=width, max_size=width), min_size=rows, max_size=rows
        )))
        probs[:, 0] += probs.sum(axis=1) == 0
        probs /= probs.sum(axis=1, keepdims=True)
        mask = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=width, max_size=width), min_size=rows, max_size=rows
        )))
        probs = np.where(mask, probs, 0.0)
        drawable = probs > 0
        if data.draw(st.booleans()):
            probs, drawable = probs[:1], drawable[:1]
            table = estimator._draw_table(probs[0])[None]
        else:
            table = estimator._draw_table(probs)
        last = [np.flatnonzero(d)[-1] if d.any() else width - 1 for d in drawable]
        for row, cum, k in zip(table, np.cumsum(probs, axis=1), last):
            assert row[:k].tobytes() == cum[:k].tobytes()
            assert (row[k:] == 1.0).all()
        u = np.full(len(table), np.nextafter(1.0, 0.0))
        assert (estimator._count_le(table, np.arange(len(table)), u) <= last).all()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 300), min_size=1, max_size=200), st.integers(0, 40))
    def test_rank_is_unique_with_inverse(self, keys, spare):
        keys = np.array(keys)
        size = int(keys.max()) + 1 + spare
        distinct, index, counts = estimator._rank(keys, size)
        want, inverse = np.unique(keys, return_inverse=True)
        assert distinct.tolist() == want.tolist()
        assert index.tolist() == inverse.tolist()
        assert counts.tolist() == [keys.tolist().count(v) for v in range(size)]


class TestJsonForms:
    @settings(max_examples=50, deadline=None)
    @given(haar_circuits(), st.sampled_from(["parity", "bit", "table"]), st.data())
    def test_circuit_round_trip_is_exact(self, circuit, kind, data):
        """Written and parsed back, a circuit keeps its width, its layer
        positions, every matrix bit and the postprocess table."""
        width = circuit.width
        if kind == "table":
            # signed zeros, the least subnormal and a value needing 17 digits
            edges = st.just(([-0.0, 0.0, 5e-324, -1.0, 1 / 3] * 2**width)[: 2**width])
            table = st.lists(st.floats(-1.0, 1.0), min_size=2**width, max_size=2**width)
            f = PostProcess(width, data.draw(table | edges))
        elif kind == "bit":
            f = PostProcess.bit(data.draw(st.integers(1, width)), width)
        else:
            f = PostProcess.parity(width)
        back, f_back = circuit_from_json(json.loads(json.dumps(circuit_to_json(circuit, f))))
        assert back.width == width
        assert [(l.first, l.span) for l in back.layers] == [(l.first, l.span) for l in circuit.layers]
        for layer, layer_back in zip(circuit.layers, back.layers):
            assert layer_back.matrix.tobytes() == layer.matrix.tobytes()
        assert f_back.name == f.name and f_back.table.tobytes() == f.table.tobytes()

    def test_circuit_round_trip(self):
        circ = demo_circuit()
        f = PostProcess.parity(3)
        data = circuit_to_json(circ, f)
        back, f2 = circuit_from_json(data)
        assert back.width == 3
        np.testing.assert_allclose(back.layers[0].matrix, circ.layers[0].matrix)
        np.testing.assert_allclose(f2.table, f.table)

    def test_table_postprocess_round_trip(self):
        circ = LayeredCircuit(1, ())
        f = PostProcess(1, np.array([0.25, -0.5]))
        data = circuit_to_json(circ, f)
        _, f2 = circuit_from_json(data)
        np.testing.assert_allclose(f2.table, [0.25, -0.5])

    def test_cuts_from_json(self):
        spec = cuts_from_json(
            {"locations": [{"after_layer": 1, "wires": [2]}]},
            demo_circuit(),
            lambda n: build_optimal_1q(),
        )
        assert spec.locations[0].first_wire == 2
        with pytest.raises(InvalidInputError):
            cuts_from_json(
                {"locations": [{"after_layer": 0, "wires": [1, 3]}]},
                demo_circuit(),
                lambda n: build_optimal_1q(),
            )

    @pytest.mark.parametrize("width", [0, 13, 2**40])
    def test_width_checked_before_postprocess_table(self, monkeypatch, width):
        def no_table(*args):
            raise AssertionError("postprocess table built before the width check")

        for name in ("parity", "bit"):
            monkeypatch.setattr(PostProcess, name, no_table)
        monkeypatch.setattr(estimator, "_array_field", no_table)
        for spec in ("parity", "bit:1", "table"):
            with pytest.raises(InvalidInputError, match="width"):
                circuit_from_json({"width": width, "layers": [], "f": spec})

    @pytest.mark.parametrize("spec", ["bit:x", "bit:", "bit:1.5", "bit:0", "bit:4", "bit: 1", 5, None])
    def test_bad_bit_spec(self, spec):
        """Anything but "parity", "bit:k" with k in [1, width], or "table" is
        rejected by the circuit reader, naming f and the three forms."""
        forms = r'field f must be "parity", "bit:k" with k in \[1, 3\], or "table"'
        with pytest.raises(InvalidInputError, match=forms):
            circuit_from_json({"width": 3, "layers": [], "f": spec})

    @pytest.mark.parametrize("value", [1.5, -2.0, np.nan, np.inf, -np.inf])
    def test_table_values_outside_the_unit_interval_rejected(self, value):
        """NaN compares false with any bound, so it must fail the range check too."""
        with pytest.raises(InvalidInputError, match=r"must lie in \[-1, 1\]"):
            PostProcess(1, [0.5, value])

    def test_report_json(self):
        rep = run_monte_carlo(
            demo_circuit(), demo_cut(build_optimal_1q()), PostProcess.parity(3), 100
        )
        data = rep.to_json()
        assert data["shots"] == 100
        assert len(data["tallies"][0]) == 3


class TestParity:
    def test_matches_popcount(self):
        for width in range(1, 13):
            expect = [(-1.0) ** bin(k).count("1") for k in range(2**width)]
            assert PostProcess.parity(width).table.tolist() == expect


DECOMPOSITIONS = {
    (method, n): build_decomposition(method, n)
    for method, n in (
        ("optimal1q", 1),
        ("mub", 1),
        ("mub", 2),
        ("peng", 1),
        ("randomized", 1),
        ("teleport", 1),
        ("teleport", 2),
    )
}


@st.composite
def cut_circuits(draw, max_width=4, methods=(("optimal1q", 1), ("mub", 1), ("mub", 2))):
    """A haar_circuits() circuit with one or two cuts, each a (method, n) of
    `methods` (by default optimal1q and mub, n <= 2)."""
    circuit = draw(haar_circuits(max_width))
    width, layers = circuit.width, circuit.layers
    locations = []
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from([k for k in methods if k[1] <= width]))
        first = draw(st.integers(1, width - key[1] + 1))
        locations.append(CutLocation(draw(st.integers(0, len(layers))), first, DECOMPOSITIONS[key]))
    locations.sort(key=lambda loc: (loc.after_layer, loc.first_wire))
    for a, b in zip(locations, locations[1:]):
        assume(a.after_layer != b.after_layer or a.first_wire + a.decomposition.n <= b.first_wire)
    f = draw(st.sampled_from([PostProcess.parity(width), PostProcess.bit(width, width)]))
    return circuit, CutSpec(tuple(locations)), f


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_stacked_partial_inner_is_per_vector(self, data):
        """One call on a stack of vectors gives, bit for bit, the residual
        each vector gives alone."""
        width = data.draw(st.integers(1, 10))
        k = data.draw(st.integers(1, min(width, 5)))
        first = data.draw(st.integers(1, width - k + 1))
        rows = data.draw(st.integers(1, 2**k + 3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        state = rng.normal(size=2**width) + 1j * rng.normal(size=2**width)
        vecs = rng.normal(size=(rows, 2**k)) + 1j * rng.normal(size=(rows, 2**k))
        stacked = dense.partial_inner(state, vecs, first, k)
        assert stacked.shape == (rows, 2 ** (first - 1), 2 ** (width - first + 1 - k))
        for vec, amp in zip(vecs, stacked):
            assert amp.tobytes() == dense.partial_inner(state, vec, first, k).tobytes()

    @settings(max_examples=25, deadline=None)
    @given(cut_circuits())
    def test_enumerated_mean_is_exact(self, case):
        circuit, cuts, f = case
        assert abs(enumerate_estimator_mean(circuit, cuts, f) - exact_expectation(circuit, f)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(
        cut_circuits(),
        st.integers(1, 300),
        st.integers(0, 2**128 - 1),
        st.integers(1, 64),
    )
    def test_chunk_size_does_not_change_the_report(self, case, shots, seed, chunk):
        reference = run_monte_carlo(*case, shots, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimator, "CHUNK_SHOTS", chunk)
            assert run_monte_carlo(*case, shots, seed) == reference

    @settings(max_examples=60, deadline=None)
    @given(
        cut_circuits(methods=tuple(DECOMPOSITIONS)),
        st.integers(2, 5000),
        st.integers(0, 2**128 - 1),
        st.data(),
    )
    def test_std_error_is_fixed_by_gamma_and_estimate(self, case, shots, seed, data):
        """For a +-1 observable every shot value is +-gamma_total, so the
        standard error is sqrt((gamma^2 - estimate^2) / (N - 1))."""
        circuit, cuts, _ = case
        dim = 2**circuit.width
        signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim, max_size=dim))
        rep = run_monte_carlo(circuit, cuts, PostProcess(circuit.width, signs), shots, seed)
        expect = math.sqrt((rep.gamma_total**2 - rep.estimate**2) / (shots - 1))
        assert rep.std_error == pytest.approx(expect, rel=1e-15, abs=0)


def level_requests(engine, paths, depth):
    """Every (path, channel, outcome, prep) the lattice can reach from `paths`."""
    loc = engine.locations[depth]
    out = []
    for path in paths:
        for c, ch in enumerate(loc.channels):
            for o, amp in enumerate(engine.outcomes(path, c)[1]):
                if np.linalg.norm(amp) >= estimator.MIN_RESIDUAL_NORM:
                    out += [(path, c, o, p) for p in np.flatnonzero(ch.prep_probs[o]).tolist()]
    return out


def lattice_bytes(engine):
    return {path: state.tobytes() for path, state in engine._states.items()}


class TestLatticeBatches:
    """A level's new nodes are built as blocks; block size changes no bit."""

    def test_enumeration_builds_one_level_per_call(self, monkeypatch):
        """The enumerator asks for each cut level's nodes in one children()
        call and builds the lattice level_requests() reaches."""
        case = deep_three_cut_case()
        reference = estimator._CutEngine(*case)
        paths = [()]
        for depth in range(3):
            paths = reference.children(level_requests(reference, paths, depth))
        calls, children = [], estimator._CutEngine.children

        def counted(engine, requests):
            calls.append((engine, len(requests)))
            return children(engine, requests)

        monkeypatch.setattr(estimator._CutEngine, "children", counted)
        mean = enumerate_estimator_mean(*case)
        assert [size for _, size in calls] == [6, 36, 36 * 28]
        assert lattice_bytes(calls[0][0]) == lattice_bytes(reference)
        assert abs(mean - exact_expectation(case[0], case[2])) < 1e-10

    @pytest.mark.parametrize("budget", [1, 16 * 2**6, 3 * 16 * 2**6])
    def test_block_budget_changes_nothing(self, monkeypatch, budget):
        case = deep_three_cut_case()
        u = np.random.Generator(np.random.Philox(key=5)).random((3000, 10))

        def outputs():
            engine = estimator._CutEngine(*case)
            tallies = [np.zeros(len(loc.signs), dtype=np.int64) for loc in engine.locations]
            estimator._sample_chunk(engine, u, tallies)
            return (
                run_monte_carlo(*case, 2000, seed=3),
                lattice_bytes(engine),
                enumerate_estimator_mean(*case),
            )

        reference = outputs()
        monkeypatch.setattr(estimator, "BLOCK_BYTES", budget)
        assert outputs() == reference

    def test_one_insert_per_node(self, monkeypatch):
        """Each new node is one dense.insert_block call, the count the
        benchmark reports as lattice nodes."""
        calls, insert = [], dense.insert_block

        def counted(*args):
            calls.append(None)
            return insert(*args)

        monkeypatch.setattr(dense, "insert_block", counted)
        enumerate_estimator_mean(*deep_three_cut_case())
        assert len(calls) == 6 + 36 + 36 * 28

    @settings(max_examples=40, deadline=None)
    @given(cut_circuits(max_width=5), st.data())
    def test_tables_equal_lone_recomputation(self, case, data):
        """Every stored outcome norm is np.linalg.norm of its row, and every
        terminal row, built a block at a time, is what the lone leaf state,
        rebuilt from its stored parent, gives bit for bit, 1.0 from its last
        positive entry on; the stacked rows come back in the order asked for."""
        engine = estimator._CutEngine(*case)
        state_bytes = 16 * 2 ** case[0].width
        paths = [()]
        with pytest.MonkeyPatch.context() as mp:
            for depth in range(len(engine.locations)):
                requests = level_requests(engine, paths, depth)
                columns = data.draw(st.integers(1, max(1, len(requests))))
                mp.setattr(estimator, "BLOCK_BYTES", columns * state_bytes)
                paths = engine.children(requests)
        for _, amps, norms in engine._outcomes.values():
            assert [n.tobytes() for n in norms] == [np.linalg.norm(a).tobytes() for a in amps]
        depth = len(engine.locations) - 1
        loc, lone = engine.locations[depth], {}
        for path in paths:
            chan, outcome, prep = path[-3:]
            _, amps, norms = engine.outcomes(path[:-3], chan)
            chi = loc.channels[chan].preps[outcome, prep]
            state = dense.insert_block(amps[outcome] / norms[outcome], chi, loc.first, loc.span)
            state = estimator._apply_layers(state, case[0], *engine.boundaries[depth : depth + 2])
            probs = np.abs(state) ** 2
            probs = probs / probs.sum()
            cum = np.cumsum(probs)
            cum[np.flatnonzero(probs)[-1] :] = 1.0
            assert engine.terminal_cums([path])[0].tobytes() == cum.tobytes()
            lone[path] = cum
        order = data.draw(st.permutations(paths))
        stacked = np.stack([lone[path] for path in order])
        assert engine.terminal_cums(order).tobytes() == stacked.tobytes()

    def test_a_leaf_keeps_only_its_terminal_row(self, monkeypatch):
        """Once the enumerator has built every level, each leaf's one entry
        is its float64 terminal row, the row terminal_cums reads: no leaf
        holds a complex state."""
        engines, children = [], estimator._CutEngine.children

        def recorded(engine, requests):
            engines.append(engine)
            return children(engine, requests)

        monkeypatch.setattr(estimator._CutEngine, "children", recorded)
        enumerate_estimator_mean(*deep_three_cut_case())
        (engine,) = set(engines)
        leaves = [path for path in engine._states if len(path) == 9]
        assert len(leaves) == 36 * 28
        for path in leaves:
            row = engine._states[path]
            assert row.dtype == np.float64
            assert row.tobytes() == engine.terminal_cums([path])[0].tobytes()

    def test_node_cap_threshold(self, monkeypatch):
        """The cap counts the nodes below the root, as the lattice held them
        when each node was built alone: the full deep lattice has 6 + 36 +
        36 x 28 of them."""
        case = deep_three_cut_case()
        nodes = 6 + 36 + 36 * 28
        monkeypatch.setattr(estimator, "MAX_TRAJECTORY_NODES", nodes)
        enumerate_estimator_mean(*case)
        run_monte_carlo(*case, 70_000, seed=1)
        monkeypatch.setattr(estimator, "MAX_TRAJECTORY_NODES", nodes - 1)
        with pytest.raises(ResourceLimitError, match="node cap"):
            enumerate_estimator_mean(*case)
        with pytest.raises(ResourceLimitError, match="node cap"):
            run_monte_carlo(*case, 70_000, seed=1)

    def test_node_cap_applies_before_the_block(self, monkeypatch):
        engine = estimator._CutEngine(*deep_three_cut_case())
        requests = level_requests(engine, [()], 0)
        assert len(requests) == 6

        def no_state(*args):
            raise AssertionError("a state was built past the node cap")

        monkeypatch.setattr(estimator, "MAX_TRAJECTORY_NODES", 5)
        with monkeypatch.context() as mp:
            mp.setattr(dense, "insert_block", no_state)
            with pytest.raises(ResourceLimitError, match="node cap"):
                engine.children(requests)
        assert list(engine._states) == [()]
        monkeypatch.setattr(estimator, "MAX_TRAJECTORY_NODES", 6)
        assert engine.children(requests) == [path + (c, o, p) for path, c, o, p in requests]
        assert len(engine._states) == 7

    @settings(max_examples=40, deadline=None)
    @given(cut_circuits(max_width=5), st.data())
    def test_batched_nodes_equal_lone_nodes(self, case, data):
        """Nodes built a level at a time, in blocks of any size, equal bit for
        bit the nodes built one at a time."""
        batched, lone = estimator._CutEngine(*case), estimator._CutEngine(*case)
        state_bytes = 16 * 2 ** case[0].width
        paths = [()]
        with pytest.MonkeyPatch.context() as mp:
            for depth in range(len(batched.locations)):
                requests = level_requests(batched, paths, depth)
                columns = data.draw(st.integers(1, max(1, len(requests))))
                mp.setattr(estimator, "BLOCK_BYTES", columns * state_bytes)
                paths = batched.children(requests)
                assert paths == [lone.children([request])[0] for request in requests]
        assert lattice_bytes(batched) == lattice_bytes(lone)
