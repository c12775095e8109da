"""Synthesizer tests: known small circuits, dense conjugation oracle, bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import costs
from wirecut.errors import InvalidInputError, SynthesisError
from wirecut.families import CommutingFamily, generate_partition
from wirecut.pauli import PauliString
from wirecut.synth import (
    GATE_NAMES,
    CliffordCircuit,
    Gate,
    _conjugate_masks,
    circuit_unitary,
    edge_color_cz,
    gate_stats,
    synthesize,
    verify_diagonalizes_symplectic,
)

from oracles import (
    dense_circuit_unitary,
    dense_pauli,
    diagonalizes_dense,
    family_members,
    reference_synthesize,
)


def symplectic_conjugate(gate, p):
    """Phase-free action of conjugation by `gate` on a Pauli string."""
    return PauliString(p.n, *_conjugate_masks([gate], p.zbits, p.xbits))


def dagger_conjugate(circuit, p):
    """The string [U^dagger P U], phase dropped: the gates in reverse order,
    the loop verify_diagonalizes_symplectic runs."""
    return PauliString(p.n, *_conjugate_masks(circuit.gates[::-1], p.zbits, p.xbits))


def family_from_labels(*labels):
    """The family generated by the Pauli strings with these labels."""
    gens = tuple(PauliString.from_label(s) for s in labels)
    return CommutingFamily(gens[0].n, gens)


class TestKnownCircuits:
    def test_x_family_is_h(self):
        fam = family_from_labels("X")
        circ = synthesize(fam)
        assert [g.text() for g in circ.gates] == ["H 1"]
        assert diagonalizes_dense(circ, fam)

    def test_y_family_is_h_sdg(self):
        fam = family_from_labels("Y")
        circ = synthesize(fam)
        assert [g.text() for g in circ.gates] == ["H 1", "SDG 1"]
        assert diagonalizes_dense(circ, fam)

    def test_h_alone_fails_on_y(self):
        h_only = CliffordCircuit(1, [Gate("H", (1,))])
        assert diagonalizes_dense(h_only, family_from_labels("X"))
        assert not diagonalizes_dense(h_only, family_from_labels("Y"))

    def test_two_qubit_yz_zx(self):
        fam = CommutingFamily(
            2, (PauliString.from_label("YZ"), PauliString.from_label("ZX"))
        )
        circ = synthesize(fam)
        assert [g.text() for g in circ.gates] == ["H 1", "H 2", "SDG 1", "CZ 1 2"]
        assert diagonalizes_dense(circ, fam)

    def test_z_family_rejected(self):
        fam = generate_partition(2).families[-1]
        with pytest.raises(SynthesisError):
            synthesize(fam)


class TestSymplecticAction:
    def test_h_swaps_z_and_x(self):
        assert symplectic_conjugate(Gate("H", (1,)), PauliString(1, 1, 0)) == PauliString(1, 0, 1)

    def test_sdg_adds_x_to_z(self):
        assert symplectic_conjugate(Gate("SDG", (1,)), PauliString(1, 0, 1)) == PauliString(1, 1, 1)

    def test_cz_mixes_neighbours(self):
        # X on qubit 1 picks up Z on qubit 2: XI -> XZ up to phase
        out = symplectic_conjugate(Gate("CZ", (1, 2)), PauliString.from_label("XI"))
        assert out.label == "XZ"

    def test_cz_action_matches_dense(self):
        cz = circuit_unitary(CliffordCircuit(2, [Gate("CZ", (1, 2))]))
        for letters in itertools.product("IXYZ", repeat=2):
            p = PauliString.from_label("".join(letters))
            out = symplectic_conjugate(Gate("CZ", (1, 2)), p)
            conj = cz @ dense_pauli(p) @ cz.conj().T
            # agreement modulo a +-1 phase
            ratio = conj @ np.linalg.inv(dense_pauli(out))
            np.testing.assert_allclose(ratio, ratio[0, 0] * np.eye(4), atol=1e-12)
            assert abs(abs(ratio[0, 0]) - 1) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_circuit_conjugation_matches_dense(self, n):
        """Composed symplectic action == dense U^dagger P U modulo phase."""
        rng = np.random.default_rng(n)
        part = generate_partition(n)
        for fam in part.families[:-1][:4]:
            circ = synthesize(fam)
            u = circuit_unitary(circ)
            for z, x in rng.integers(0, 2**n, size=(10, 2)).tolist():
                p = PauliString(n, z, x)
                q = dagger_conjugate(circ, p)
                conj = u.conj().T @ dense_pauli(p) @ u
                ratio = conj @ np.linalg.inv(dense_pauli(q))
                np.testing.assert_allclose(
                    ratio, ratio[0, 0] * np.eye(2**n), atol=1e-10
                )


class TestEdgeColoring:
    def test_k2_single_layer(self):
        assert edge_color_cz({(1, 2)}, 2) == [[(1, 2)]]

    def test_k3_three_layers(self):
        layers = edge_color_cz({(1, 2), (1, 3), (2, 3)}, 3)
        assert len(layers) == 3

    def test_k4_three_layers(self):
        pairs = {(a, b) for a in range(1, 5) for b in range(a + 1, 5)}
        layers = edge_color_cz(pairs, 4)
        assert len(layers) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_full_graph_bound_and_disjointness(self, n):
        pairs = {(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)}
        layers = edge_color_cz(pairs, n)
        bound = n if n % 2 else n - 1
        assert len(layers) <= bound
        assert sorted(p for layer in layers for p in layer) == sorted(pairs)
        for layer in layers:
            qubits = [q for p in layer for q in p]
            assert len(qubits) == len(set(qubits))

    def test_subset_of_pairs(self):
        layers = edge_color_cz({(1, 2), (3, 4)}, 4)
        flat = [p for layer in layers for p in layer]
        assert sorted(flat) == [(1, 2), (3, 4)]

    def test_bad_pair_rejected(self):
        with pytest.raises(InvalidInputError):
            edge_color_cz({(1, 1)}, 2)

    @staticmethod
    def round_robin_oracle(pairs, n):
        """Build every round of the K_m round-robin, then keep the wanted pairs."""
        wanted = {(min(a, b), max(a, b)) for a, b in pairs}
        m = n if n % 2 == 0 else n + 1
        out = []
        for r in range(m - 1):
            layer = [(m - 1, r)]
            for i in range(1, m // 2):
                layer.append(((r + i) % (m - 1), (r - i) % (m - 1)))
            real = sorted(
                (min(a, b) + 1, max(a, b) + 1) for a, b in layer if a < n and b < n
            )
            chosen = [p for p in real if p in wanted]
            if chosen:
                out.append(chosen)
        return out

    @pytest.mark.parametrize("n", range(1, 13))
    def test_full_graph_matches_round_robin_oracle(self, n):
        pairs = {(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)}
        assert edge_color_cz(pairs, n) == self.round_robin_oracle(pairs, n)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pair_subsets_match_round_robin_oracle(self, data):
        n = data.draw(st.integers(2, 12))
        every = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        pairs = data.draw(st.lists(st.sampled_from(every), unique=True))
        flipped = [(b, a) if data.draw(st.booleans()) else (a, b) for a, b in pairs]
        assert edge_color_cz(flipped, n) == self.round_robin_oracle(pairs, n)


class TestGateStats:
    def test_single_h(self):
        circ = CliffordCircuit(1, [Gate("H", (1,))])
        s = gate_stats(circ)
        assert (s.n_h, s.n_s, s.n_cz, s.depth) == (1, 0, 0, 1)

    def test_h_then_sdg(self):
        circ = CliffordCircuit(1, [Gate("H", (1,)), Gate("SDG", (1,))])
        s = gate_stats(circ)
        assert (s.n_h, s.n_s, s.n_cz, s.depth) == (1, 1, 0, 2)


class TestSynthesizedPartitions:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_families_verify_dense(self, n):
        part = generate_partition(n)
        for fam in part.families[:-1]:
            circ = synthesize(fam)
            stats = gate_stats(circ)
            assert stats.n_h == n
            assert stats.n_s <= n
            assert stats.n_cz <= n * (n - 1) // 2
            assert circ.depth <= n + 2
            assert diagonalizes_dense(circ, fam)
            assert verify_diagonalizes_symplectic(circ, fam)

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_all_families_verify_symplectic(self, n):
        part = generate_partition(n)
        for fam in part.families[:-1]:
            circ = synthesize(fam)
            assert gate_stats(circ).n_cz <= n * (n - 1) // 2
            assert circ.depth <= n + 2
            assert verify_diagonalizes_symplectic(circ, fam)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_families_match_the_reference_schedule(self, n):
        for fam in generate_partition(n).families[:-1]:
            assert synthesize(fam) == reference_synthesize(fam)

    def test_gate_count_bench_counts_scheduled_circuits(self, monkeypatch):
        counted = []

        def recording_gate_stats(circuit):
            counted.append(circuit)
            return gate_stats(circuit)

        monkeypatch.setattr(costs, "gate_stats", recording_gate_stats)
        costs.gate_count_bench(5)
        assert len(counted) == sum(2**n for n in range(1, 6))
        for circ in counted:
            assert circ.depth <= circ.n + 2
            assert CliffordCircuit.parse(circ.text(), circ.n) == circ

    def test_dependent_generators_rejected(self):
        x1 = PauliString.from_label("XI")
        with pytest.raises(InvalidInputError):
            synthesize(CommutingFamily(2, (x1, x1)))

    def test_independent_x_strings_synthesize(self):
        fam = CommutingFamily(
            2, (PauliString.from_label("XI"), PauliString.from_label("IX"))
        )
        circ = synthesize(fam)
        assert diagonalizes_dense(circ, fam)


@st.composite
def regenerated_families(draw):
    """A partition family and the same family under another generating set."""
    n = draw(st.integers(1, 6))
    fam = draw(st.sampled_from(generate_partition(n).families[:-1]))
    gens = list(fam.generators)
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        if i != j:
            gens[i] = PauliString(n, gens[i].zbits ^ gens[j].zbits, gens[i].xbits ^ gens[j].xbits)
    gens = draw(st.permutations(gens))
    return fam, CommutingFamily(n, tuple(gens))


@st.composite
def one_gate_cases(draw):
    """A gate on n <= 6 qubits and a Pauli string, drawn as (z, x) masks, for it to act on."""
    n = draw(st.integers(1, 6))
    name = draw(st.sampled_from(GATE_NAMES if n > 1 else ("H", "SDG")))
    k = 2 if name == "CZ" else 1
    qubits = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
    masks = st.integers(0, 2**n - 1)
    return Gate(name, tuple(qubits)), PauliString(n, draw(masks), draw(masks))


class TestSynthesisProperties:
    @settings(max_examples=100, deadline=None)
    @given(regenerated_families())
    def test_circuit_depends_only_on_the_family(self, families):
        fam, regenerated = families
        circ = synthesize(regenerated)
        assert circ == synthesize(fam)
        assert circ == reference_synthesize(regenerated)
        assert verify_diagonalizes_symplectic(circ, regenerated)
        assert circ.depth <= fam.n + 2

    @settings(max_examples=200, deadline=None)
    @given(one_gate_cases())
    def test_bit_action_matches_circuit_action(self, case):
        """The one-gate bit action is the dense U^dagger P U, up to a phase."""
        gate, p = case
        u = circuit_unitary(CliffordCircuit(p.n, [gate]))
        conj = u.conj().T @ dense_pauli(p) @ u
        ratio = conj @ np.linalg.inv(dense_pauli(symplectic_conjugate(gate, p)))
        np.testing.assert_allclose(ratio, ratio[0, 0] * np.eye(2**p.n), atol=1e-12)
        assert abs(abs(ratio[0, 0]) - 1) < 1e-12


@st.composite
def packed_cases(draw):
    """n <= 6, a random H / SDG / CZ list on n qubits, and 1..n + 1 strings
    as (z, x) mask pairs."""
    n = draw(st.integers(1, 6))
    names = GATE_NAMES if n > 1 else ("H", "SDG")
    gates = []
    for name in draw(st.lists(st.sampled_from(names), max_size=4 * n)):
        k = 2 if name == "CZ" else 1
        qubits = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        gates.append(Gate(name, tuple(qubits)))
    masks = st.integers(0, 2**n - 1)
    return n, gates, draw(st.lists(st.tuples(masks, masks), min_size=1, max_size=n + 1))


class TestPackedConjugation:
    @settings(max_examples=300, deadline=None)
    @given(packed_cases())
    def test_k_strings_at_once_equal_k_single_runs(self, case):
        """String k in bits k n .. k n + n - 1, `ones` with bit k n set for each."""
        n, gates, strings = case
        z = x = ones = 0
        for k, (zk, xk) in enumerate(strings):
            z |= zk << k * n
            x |= xk << k * n
            ones |= 1 << k * n
        z, x = _conjugate_masks(gates, z, x, ones)
        low = (1 << n) - 1
        for k, (zk, xk) in enumerate(strings):
            assert ((z >> k * n) & low, (x >> k * n) & low) == _conjugate_masks(gates, zk, xk)
        assert (z | x) >> len(strings) * n == 0


class TestAsapPacking:
    @settings(max_examples=300, deadline=None)
    @given(packed_cases())
    def test_layers_are_the_asap_packing_of_the_gates(self, case):
        """Each gate sits one layer after the latest earlier gate on its
        qubits, so no layer repeats a qubit and each qubit keeps its order."""
        n, gates, _ = case
        circ = CliffordCircuit(n, gates)
        layer_of = {id(g): k for k, layer in enumerate(circ.layers) for g in layer}
        assert sorted(layer_of) == sorted(map(id, gates))
        for layer in circ.layers:
            qubits = [q for g in layer for q in g.qubits]
            assert len(set(qubits)) == len(qubits)
        last = {}  # qubit -> layer of its latest gate so far, in input order
        for g in gates:
            expected = 1 + max((last[q] for q in g.qubits if q in last), default=-1)
            assert layer_of[id(g)] == expected
            last.update((q, expected) for q in g.qubits)
        for q in range(1, n + 1):
            assert [id(g) for g in circ.gates if q in g.qubits] == [
                id(g) for g in gates if q in g.qubits
            ]
        assert CliffordCircuit(n, circ.gates) == circ
        assert CliffordCircuit.parse(circ.text(), n) == circ


class TestDenseRealization:
    """circuit_unitary against the product of its gates' krons, entry by
    entry: unlike U^dagger P U up to a phase, this tells S from S-dagger."""

    @settings(max_examples=200, deadline=None)
    @given(packed_cases().filter(lambda case: case[0] <= 5))
    def test_random_circuits_match_the_kron_product(self, case):
        n, gates, _ = case
        circ = CliffordCircuit(n, gates)
        np.testing.assert_allclose(
            circuit_unitary(circ), dense_circuit_unitary(circ), rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_synthesized_circuits_match_the_kron_product(self, n):
        for fam in generate_partition(n).families[:-1]:
            circ = synthesize(fam)
            np.testing.assert_allclose(
                circuit_unitary(circ), dense_circuit_unitary(circ), rtol=0, atol=1e-12
            )


def memberwise_verdict(circuit, family):
    """The reference the generator-wise check must equal: every member maps to x = 0."""
    return all(dagger_conjugate(circuit, p).xbits == 0 for p in family_members(family))


@st.composite
def verifier_cases(draw):
    """A family of generate_partition(n), n <= 5, and a circuit to check against it.

    The circuit is the family's own (verdict True unless it is the all-Z
    family), another family's, or a random H / SDG / CZ sequence.
    """
    n = draw(st.integers(1, 5))
    fams = generate_partition(n).families
    fam = draw(st.sampled_from(fams))
    kind = draw(st.sampled_from(("own", "other", "random")))
    if kind == "own" and not fam.is_z_family:
        return synthesize(fam), fam
    if kind == "other":
        return synthesize(draw(st.sampled_from(fams[:-1]))), fam
    names = GATE_NAMES if n > 1 else ("H", "SDG")
    gates = []
    for name in draw(st.lists(st.sampled_from(names), max_size=3 * n)):
        k = 2 if name == "CZ" else 1
        qubits = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        gates.append(Gate(name, tuple(qubits)))
    return CliffordCircuit(n, gates), fam


class TestGeneratorVerifier:
    """`verify_diagonalizes_symplectic` checks generators; members are the reference."""

    @settings(max_examples=300, deadline=None)
    @given(verifier_cases())
    def test_matches_memberwise_check(self, case):
        circ, fam = case
        assert verify_diagonalizes_symplectic(circ, fam) == memberwise_verdict(circ, fam)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_each_circuit_diagonalizes_only_its_family(self, n):
        """Both verdicts occur: True exactly on the (circuit, own family) pairs."""
        fams = generate_partition(n).families
        for i, source in enumerate(fams[:-1]):
            circ = synthesize(source)
            for j, fam in enumerate(fams):
                verdict = verify_diagonalizes_symplectic(circ, fam)
                assert verdict == memberwise_verdict(circ, fam) == (i == j)

    def test_random_circuit_true_on_z_family(self):
        circ = CliffordCircuit(3, [Gate("SDG", (2,)), Gate("CZ", (1, 3))])
        fam = generate_partition(3).families[-1]
        assert verify_diagonalizes_symplectic(circ, fam)
        assert memberwise_verdict(circ, fam)

    @pytest.mark.parametrize(
        "labels",
        [("XI", "XI"), ("II", "XX"), ("XI", "ZI"), ("XZ", "ZI")],
        ids=["repeated", "identity", "anticommuting", "anticommuting_mixed"],
    )
    def test_bad_generators_raise(self, labels):
        """As member expansion did.

        H on both qubits maps XI, II and XX to x = 0, so only the generator
        check, made when the family is built, rejects the dependent cases.
        """
        circ = CliffordCircuit(2, [Gate("H", (1,)), Gate("H", (2,))])
        with pytest.raises(InvalidInputError):
            fam = CommutingFamily(2, tuple(PauliString.from_label(s) for s in labels))
            verify_diagonalizes_symplectic(circ, fam)


class TestGateAndCircuitChecks:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Gate("T", (1,)), "unknown gate"),
            (lambda: Gate("H", (1, 2)), "H takes 1 qubit"),
            (lambda: Gate("CZ", (1,)), "CZ takes 2 qubit"),
            (lambda: Gate("CZ", (2, 2)), "CZ qubits must differ"),
            (lambda: Gate("SDG", (0,)), "1-based"),
            (lambda: Gate("CZ", (0, 1)), "1-based"),
            (lambda: CliffordCircuit(2, [Gate("H", (3,))]), "exceeds circuit width"),
            (lambda: CliffordCircuit(2, [Gate("CZ", (1, 3))]), "exceeds circuit width"),
            (lambda: CliffordCircuit.parse("", 0), "n must be at least 1, got 0"),
            (lambda: CliffordCircuit.parse("", -1), "n must be at least 1, got -1"),
        ],
        ids=[
            "unknown_name",
            "wrong_arity",
            "cz_one_qubit",
            "cz_same_qubit",
            "qubit_0",
            "cz_qubit_0",
            "qubit_above_n",
            "cz_qubit_above_n",
            "width_0",
            "width_negative",
        ],
    )
    def test_rejected(self, build, message):
        with pytest.raises(InvalidInputError, match=message):
            build()


class TestTextFormat:
    def test_round_trip(self):
        fam = generate_partition(3).families[0]
        circ = synthesize(fam)
        parsed = CliffordCircuit.parse(circ.text(), 3)
        assert parsed.gates == circ.gates

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            CliffordCircuit.parse("H one\n", 1)

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("T 1", "unknown gate 'T'"),
            ("H 1 2", "H takes 1 qubit(s)"),
            ("CZ 1 1", "CZ qubits must differ"),
            ("SDG 0", "qubit indices are 1-based"),
        ],
        ids=["unknown_name", "wrong_arity", "cz_same_qubit", "qubit_0"],
    )
    def test_parse_names_the_line_and_the_reason(self, line, reason):
        with pytest.raises(InvalidInputError) as info:
            CliffordCircuit.parse(f"H 1\n{line}\n", 2)
        assert str(info.value) == f"bad gate line {line!r}: {reason}"

    def test_parse_rejects_out_of_range_qubit(self):
        with pytest.raises(InvalidInputError):
            CliffordCircuit.parse("H 5\n", 1)

    def test_parse_ignores_comments_and_blanks(self):
        circ = CliffordCircuit.parse("# basis change\nH 1\n\nSDG 1\n", 1)
        assert [g.text() for g in circ.gates] == ["H 1", "SDG 1"]
