"""Unit tests for the binary-symplectic Pauli layer, checked against dense oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wirecut.errors import InvalidInputError
from wirecut.pauli import (
    PauliString,
    _gf2_pivots,
    gf2_basis,
    gf2_independent,
    gf2_rank,
    pauli_vector,
)

from oracles import commutes, dense_pauli, gf2_basis_all_pivots

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def all_strings(n):
    """All 4^n strings in base-4 order, qubit 1's letter most significant."""
    return [PauliString.from_label("".join(t)) for t in itertools.product("IXYZ", repeat=n)]


def trace_loop(mat, n):
    """Tr[sigma_k mat] 2^(-n/2) one string at a time, from the kron oracle."""
    strings = all_strings(n)
    return np.array([np.trace(dense_pauli(p.label) @ mat) for p in strings]) * 2.0 ** (-n / 2)


class TestEncoding:
    def test_bits_to_pauli_known_values(self):
        assert PauliString(1, 0, 0).label == "I"
        assert PauliString(1, 1, 1).label == "Y"
        assert PauliString(1, 1, 0).label == "Z"
        assert PauliString(1, 0, 1).label == "X"
        assert PauliString(3, 0, 0).label == "III"

    def test_pauli_to_bits_known_values(self):
        z = PauliString.from_label("Z")
        assert (z.zbits, z.xbits) == (1, 0)
        # X on qubit 1 (x bit 0), Y on qubit 2 (z and x bit 1)
        xy = PauliString.from_label("XY")
        assert (xy.zbits, xy.xbits) == (0b10, 0b11)

    def test_xy_bits_against_dense(self):
        p = PauliString(2, 0b10, 0b11)
        np.testing.assert_allclose(dense_pauli(p), np.kron(X, Y), atol=1e-14)

    def test_round_trip_exhaustive_small_n(self):
        for n in (1, 2):
            for z, x in itertools.product(range(2**n), repeat=2):
                p = PauliString(n, z, x)
                assert PauliString.from_label(p.label) == p

    def test_round_trip_randomized_larger_n(self):
        rng = np.random.default_rng(7)
        for n in range(3, 9):
            for z, x in rng.integers(0, 2**n, size=(50, 2)).tolist():
                p = PauliString(n, z, x)
                assert PauliString.from_label(p.label) == p

    def test_label_round_trip(self):
        for label in ("X", "ZZ", "XZI", "IYXZ"):
            assert PauliString.from_label(label).label == label

    def test_bad_label_rejected(self):
        with pytest.raises(InvalidInputError):
            PauliString.from_label("XQ")

    @pytest.mark.parametrize("z, x, message", [
        (-1, 0, "bit masks must be nonnegative"),
        (0, -4, "bit masks must be nonnegative"),
        (4, 0, "bit masks exceed qubit count"),
        (0, 0b111, "bit masks exceed qubit count"),
    ])
    def test_bad_masks_name_the_fault(self, z, x, message):
        """A negative mask is named as such, though it has bits above qubit 2."""
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            PauliString(2, z, x)


class TestCommutation:
    def test_x_z_anticommute(self):
        assert not commutes(PauliString.from_label("X"), PauliString.from_label("Z"))

    def test_disjoint_supports_commute(self):
        assert commutes(PauliString.from_label("XI"), PauliString.from_label("IX"))

    def test_mismatched_n_rejected(self):
        with pytest.raises(InvalidInputError):
            commutes(PauliString.from_label("X"), PauliString.from_label("XX"))

    def test_exhaustive_against_dense_commutator_n2(self):
        strings = all_strings(2)
        for p, q in itertools.product(strings, strings):
            comm = dense_pauli(p) @ dense_pauli(q) - dense_pauli(q) @ dense_pauli(p)
            assert commutes(p, q) == bool(np.max(np.abs(comm)) < 1e-12)


class TestDense:
    """The dense oracle itself: the matrices the other tests compare against."""

    def test_identity(self):
        np.testing.assert_allclose(dense_pauli(PauliString.from_label("I")), I2)

    def test_y_matrix(self):
        np.testing.assert_allclose(dense_pauli(PauliString.from_label("Y")), Y)

    def test_kron_structure(self):
        np.testing.assert_allclose(
            dense_pauli(PauliString.from_label("XZ")), np.kron(X, Z), atol=1e-14
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hermitian_unitary_traceless(self, n):
        for p in all_strings(n):
            mat = dense_pauli(p)
            np.testing.assert_allclose(mat, mat.conj().T, atol=1e-14)
            np.testing.assert_allclose(mat @ mat, np.eye(2**n), atol=1e-14)
            eig = np.linalg.eigvalsh(mat)
            np.testing.assert_allclose(np.abs(eig), np.ones(2**n), atol=1e-12)
            if p.label != "I" * n:
                assert abs(np.trace(mat)) < 1e-12
            # entries all real or all imaginary
            re = np.max(np.abs(mat.real))
            im = np.max(np.abs(mat.imag))
            assert min(re, im) < 1e-14


def square_matrices(max_magnitude):
    """Complex 2^n x 2^n matrices, n <= 4, with finite entries up to max_magnitude."""
    entries = st.complex_numbers(max_magnitude=max_magnitude, allow_nan=False, allow_infinity=False)
    return st.integers(1, 4).flatmap(lambda n: arrays(complex, (2**n, 2**n), elements=entries))


class TestPauliVector:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_trace_loop(self, n):
        rng = np.random.default_rng(n)
        mat = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        fast = pauli_vector(mat, n)
        np.testing.assert_allclose(fast, trace_loop(mat, n), atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(max_magnitude=1e6))
    def test_random_matrices_match_trace_loop(self, mat):
        n = mat.shape[0].bit_length() - 1
        scale = np.abs(mat).max()
        np.testing.assert_allclose(
            pauli_vector(mat, n), trace_loop(mat, n), rtol=0, atol=1e-10 * scale
        )

    @settings(max_examples=100, deadline=None)
    @given(square_matrices(max_magnitude=1))
    def test_hermitian_input_gives_real_vector(self, mat):
        n = mat.shape[0].bit_length() - 1
        herm = (mat + mat.conj().T) / 2
        assert np.abs(pauli_vector(herm, n).imag).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("lead", [(5,), (2, 3), (1,), (33,)])
    def test_stack_matches_single_calls_bitwise(self, n, lead):
        rng = np.random.default_rng(10 * n + len(lead))
        shape = lead + (2**n, 2**n)
        mats = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        stacked = pauli_vector(mats, n)
        assert stacked.shape == lead + (4**n,)
        for idx in np.ndindex(lead):
            assert stacked[idx].tobytes() == pauli_vector(mats[idx], n).tobytes()

    @pytest.mark.parametrize(
        "shape", [(2, 2), (3, 4, 8), (4, 4, 2), (4,), (2, 3, 4, 2)]
    )
    def test_wrong_trailing_shape_rejected(self, shape):
        with pytest.raises(InvalidInputError):
            pauli_vector(np.zeros(shape, dtype=complex), 2)


class TestBinaryMatrix:
    """GF(2) rank of bit matrices given as row masks."""

    def test_rank_full(self):
        assert gf2_rank([0b01, 0b10]) == 2

    def test_rank_deficient(self):
        assert gf2_rank([0b01, 0b10, 0b11]) == 2

    def test_gf2_rank_helpers(self):
        assert gf2_rank([0b1, 0b10, 0b11]) == 2
        assert gf2_independent([0b1, 0b10])
        assert not gf2_independent([0b1, 0b10, 0b11])


def _span(vectors):
    span = {0}
    for v in vectors:
        span |= {s ^ v for s in span}
    return span


row_masks = st.lists(st.integers(0, 2**12 - 1), max_size=8)


class TestGF2Properties:
    @settings(max_examples=200, deadline=None)
    @given(row_masks)
    def test_rank_is_log2_of_span_size(self, vectors):
        assert 2 ** gf2_rank(vectors) == len(_span(vectors))

    @settings(max_examples=200, deadline=None)
    @given(row_masks, st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7))), st.randoms())
    def test_basis_depends_only_on_span(self, vectors, row_ops, rnd):
        """Row additions, a shuffle and an added dependent vector keep the basis."""
        other = list(vectors)
        for i, j in row_ops:
            if i != j and max(i, j) < len(other):
                other[i] ^= other[j]
        other.append(0)
        for v in vectors:
            if rnd.random() < 0.5:
                other[-1] ^= v
        rnd.shuffle(other)
        basis = gf2_basis(vectors)
        assert gf2_basis(other) == basis
        assert basis == sorted(set(basis), reverse=True)
        assert _span(basis) == _span(vectors)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**24 - 1), max_size=14))
    def test_basis_equals_the_all_pivots_reduction(self, vectors):
        assert gf2_basis(vectors) == gf2_basis_all_pivots(vectors)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2**24 - 1), max_size=14))
    def test_rank_and_lowest_pivot_read_off_the_basis(self, vectors):
        """The forward elimination alone gives the rank, and at its lowest
        pivot the least basis vector."""
        basis = gf2_basis(vectors)
        assert gf2_rank(vectors) == len(basis)
        if basis:
            pivots = _gf2_pivots(vectors)
            assert pivots[min(pivots)] == min(basis)

    @settings(max_examples=300, deadline=None)
    @given(row_masks)
    def test_basis_is_fully_reduced(self, vectors):
        """Descending, no leading bit set in another vector, spanning the inputs."""
        basis = gf2_basis(vectors)
        assert all(a > b for a, b in zip(basis, basis[1:]))
        assert 0 not in basis
        for i, v in enumerate(basis):
            lead = 1 << (v.bit_length() - 1)
            assert all(not w & lead for j, w in enumerate(basis) if j != i)
        assert _span(basis) == _span(vectors)
        assert len(_span(basis)) == 2 ** len(basis)


@st.composite
def pauli_pairs(draw):
    """Two random strings on the same n <= 4 qubits."""
    n = draw(st.integers(1, 4))
    masks = st.integers(0, 2**n - 1)
    return tuple(PauliString(n, draw(masks), draw(masks)) for _ in range(2))


class TestDenseProperties:
    @settings(max_examples=300, deadline=None)
    @given(pauli_pairs())
    def test_commutes_matches_dense_commutator(self, pair):
        p, q = pair
        a, b = dense_pauli(p), dense_pauli(q)
        assert commutes(p, q) == bool(np.max(np.abs(a @ b - b @ a)) < 1e-12)
