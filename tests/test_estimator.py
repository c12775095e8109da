"""Estimator tests: exact simulation oracle, unbiasedness, determinism, variance."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wirecut import dense, estimator
from wirecut.channels import (
    ChannelTerm,
    Decomposition,
    MPChannel,
    build_decomposition,
    build_mub_default,
    build_optimal_1q,
    build_peng_1q,
    tensor_decompositions,
)
from wirecut.errors import InvalidInputError, ResourceLimitError
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
    variance_probe,
)

H2 = np.kron(dense.H_1Q, np.eye(2))
BELL_MAKER = dense.CX_2Q @ H2


class TestExactExpectation:
    def test_empty_circuit_parity(self):
        circ = LayeredCircuit(2, ())
        assert exact_expectation(circ, PostProcess.parity(2)) == 1.0

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
        np.testing.assert_allclose(loc.prep_cums[-1][1], [1 / 3, 2 / 3, 1.0], atol=1e-12)

    @pytest.mark.parametrize(
        "method, n", [("peng", 1), ("randomized", 1), ("teleport", 2), ("mub", 3)]
    )
    def test_prep_tables_end_at_exactly_one(self, method, n):
        """Each outcome's prep row is exactly 1.0 from its last positive
        weight on, so a uniform in [0, 1) never draws a state past it."""
        loc = estimator._RealizedLocation(CutLocation(0, 1, build_decomposition(method, n)), n)
        for ch, cums in zip(loc.channels, loc.prep_cums):
            cols = np.arange(cums.shape[1])
            last = np.array([np.flatnonzero(w)[-1] for w in ch.prep_probs])
            assert np.all((cums == 1.0) == (cols >= last[:, None]))

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
            assert engine.final_dist(engine.child((), c, 0, 0))[0][-1] == 1.0


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


def deep_three_cut_case():
    """6 qubits, 15 fixed Haar layers in brickwork, two optimal1q cuts after
    layer 5 and one two-wire mub cut after layer 10."""
    rng = np.random.default_rng(2024)
    layers = tuple(CircuitLayer(q, dense.haar_unitary(4, rng)) for q in (1, 3, 5, 2, 4) * 3)
    one, two = build_optimal_1q(), build_mub_default(2)
    cuts = CutSpec((CutLocation(5, 2, one), CutLocation(5, 4, one), CutLocation(10, 2, two)))
    return LayeredCircuit(6, layers), cuts, PostProcess.parity(6)


class TestGoldenEstimates:
    """Reports pinned bit for bit; both shot counts span several chunks and
    end in a partial one."""

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


def split_depolarizing_product():
    """randomized x randomized, each with its depolarizing channel Tr[rho] I/2
    loaded from dense terms as: outcome 0 prepares I/2, outcome 1 is split in
    halves that prepare |0> and |1>.  Its rows hold 2, 1 and 1 prep states,
    so product rows such as [1/2, 0, 1/2, 0] have zero weights mid-row."""
    k0, k1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    terms = [ChannelTerm(1, k0, np.eye(2) / 2), ChannelTerm(1, k1 / 2, k0), ChannelTerm(1, k1 / 2, k1)]
    depol = MPChannel.from_terms(1, terms)
    rand = build_decomposition("randomized", 1)
    d = Decomposition(1, rand.channels[:-1] + ((rand.channels[-1][0], depol),), "split")
    return tensor_decompositions(d, d)


class TestUnbiasedness:
    def test_padded_prep_ensembles(self):
        d = split_depolarizing_product()
        loc = estimator._RealizedLocation(CutLocation(1, 2, d), 4)
        np.testing.assert_array_equal(loc.prep_cums[-1][1], [0.5, 0.5, 1.0, 1.0])
        rng = np.random.default_rng(5)
        layers = tuple(CircuitLayer(1, dense.haar_unitary(16, rng)) for _ in range(2))
        circ, f = LayeredCircuit(4, layers), PostProcess.parity(4)
        mean = enumerate_estimator_mean(circ, CutSpec((CutLocation(1, 2, d),)), f)
        assert abs(mean - exact_expectation(circ, f)) < 1e-10

    @pytest.mark.parametrize("build", [build_peng_1q, build_optimal_1q])
    def test_demo_zero_noise(self, build):
        circ = demo_circuit()
        f = PostProcess.parity(3)
        exact = exact_expectation(circ, f)
        mean = enumerate_estimator_mean(circ, demo_cut(build()), f)
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
            cum, amps = engine.outcomes((), c)
            for width, amp in zip(np.diff(cum, prepend=0.0), amps):
                if np.linalg.norm(amp) < estimator.MIN_RESIDUAL_NORM:
                    impossible += 1
                    assert width == 0.0
        assert impossible > 0


class TestVariance:
    def test_halves_when_shots_double(self):
        circ = demo_circuit()
        cuts = demo_cut(build_optimal_1q())
        f = PostProcess.parity(3)
        v1 = variance_probe(circ, cuts, f, trials=300, shots=400, seed0=100)
        v2 = variance_probe(circ, cuts, f, trials=300, shots=800, seed0=1000)
        assert 1.5 < v1 / v2 < 2.5

    def test_optimal_variance_within_gamma_square(self):
        circ = demo_circuit()
        f = PostProcess.parity(3)
        rep = run_monte_carlo(circ, demo_cut(build_optimal_1q()), f, 100000, seed=0)
        per_shot_var = rep.std_error**2 * rep.shots
        assert per_shot_var <= 9.0 + 0.5  # gamma^2 * max|f|^2 plus slack


@st.composite
def haar_circuits(draw):
    """Width <= 4 and at most 4 Haar layers on random contiguous qubits."""
    width = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        span = draw(st.integers(1, min(width, 3)))
        first = draw(st.integers(1, width - span + 1))
        layers.append(CircuitLayer(first, dense.haar_unitary(2**span, rng)))
    return LayeredCircuit(width, tuple(layers))


class TestJsonForms:
    @settings(max_examples=50, deadline=None)
    @given(haar_circuits(), st.sampled_from(["parity", "bit", "table"]), st.data())
    def test_circuit_round_trip_is_exact(self, circuit, kind, data):
        """Written and parsed back, a circuit keeps its width, its layer
        positions, every matrix bit and the postprocess table."""
        width = circuit.width
        if kind == "table":
            table = st.lists(st.floats(-1.0, 1.0), min_size=2**width, max_size=2**width)
            f = PostProcess(width, data.draw(table))
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
            lambda n: build_optimal_1q(),
        )
        assert spec.locations[0].first_wire == 2
        with pytest.raises(InvalidInputError):
            cuts_from_json(
                {"locations": [{"after_layer": 0, "wires": [1, 3]}]},
                lambda n: build_optimal_1q(),
            )

    @pytest.mark.parametrize("width", [0, 13, 2**40])
    def test_width_checked_before_postprocess_table(self, monkeypatch, width):
        def no_table(*args):
            raise AssertionError("postprocess table built before the width check")

        monkeypatch.setattr(PostProcess, "from_spec", no_table)
        with pytest.raises(InvalidInputError, match="width"):
            circuit_from_json({"width": width, "layers": []})

    @pytest.mark.parametrize("spec", ["bit:x", "bit:", "bit:1.5"])
    def test_bad_bit_spec(self, spec):
        with pytest.raises(InvalidInputError, match="bit index"):
            PostProcess.from_spec(spec, 3)

    def test_report_json(self):
        rep = run_monte_carlo(
            demo_circuit(), demo_cut(build_optimal_1q()), PostProcess.parity(3), 100
        )
        data = rep.to_json()
        assert data["shots"] == 100
        assert len(data["tallies"][0]) == 3


class TestParity:
    def test_matches_popcount(self):
        values = np.array([0, 1, 2, 3, 7, 2**31 + 1, 2**32, 2**40 + 2**33 + 5, 2**62 + 1])
        expect = [bin(int(v)).count("1") % 2 for v in values]
        assert dense.parity(values).tolist() == expect


DECOMPOSITIONS = {
    (method, n): build_decomposition(method, n)
    for method, n in (("optimal1q", 1), ("mub", 1), ("mub", 2))
}


@st.composite
def cut_circuits(draw):
    """A haar_circuits() circuit with one or two optimal1q / mub n <= 2 cuts."""
    circuit = draw(haar_circuits())
    width, layers = circuit.width, circuit.layers
    locations = []
    for _ in range(draw(st.integers(1, 2))):
        key = draw(st.sampled_from([k for k in DECOMPOSITIONS if k[1] <= width]))
        first = draw(st.integers(1, width - key[1] + 1))
        locations.append(CutLocation(draw(st.integers(0, len(layers))), first, DECOMPOSITIONS[key]))
    locations.sort(key=lambda loc: (loc.after_layer, loc.first_wire))
    for a, b in zip(locations, locations[1:]):
        assume(a.after_layer != b.after_layer or a.first_wire + a.decomposition.n <= b.first_wire)
    f = PostProcess.from_spec(draw(st.sampled_from(["parity", f"bit:{width}"])), width)
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
        stacked = dense.partial_inner(state, vecs, first, k, width)
        assert stacked.shape == (rows, 2 ** (first - 1), 2 ** (width - first + 1 - k))
        for vec, amp in zip(vecs, stacked):
            assert amp.tobytes() == dense.partial_inner(state, vec, first, k, width).tobytes()

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
