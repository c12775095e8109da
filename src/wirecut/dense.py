"""Dense statevector / unitary helpers shared by the synthesizer and estimator;
a synthesized circuit's CZ signs are applied in synth.circuit_unitary.

Index convention: basis index bits are big-endian in the qubit number, so
qubit 1 is the most significant bit of a computational label.  This matches
the text form of Pauli strings (leftmost letter = qubit 1) and the kron
order used in :mod:`wirecut.pauli`.
"""

from __future__ import annotations

import numpy as np

SQRT2_INV = 1.0 / np.sqrt(2.0)

H_1Q = np.array([[1, 1], [1, -1]], dtype=complex) * SQRT2_INV
S_1Q = np.array([[1, 0], [0, 1j]], dtype=complex)
SDG_1Q = np.array([[1, 0], [0, -1j]], dtype=complex)
CX_2Q = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def apply_block(state: np.ndarray, gate: np.ndarray, first: int, k: int) -> np.ndarray:
    """Apply a 2^k x 2^k unitary on the contiguous qubits first..first+k-1.

    It acts along axis 0 of `state`, which may carry trailing axes (the
    columns of a unitary, say).
    """
    lead = 2 ** (first - 1)
    shaped = state.reshape(lead, 2**k, -1)
    out = np.einsum("ab,ibj->iaj", gate, shaped)
    return out.reshape(state.shape)


def partial_inner(state: np.ndarray, vec: np.ndarray, first: int, k: int) -> np.ndarray:
    """<vec| applied to the contiguous qubits first..first+k-1 of a pure state.

    Returns the (unnormalized) residual vector on the remaining qubits,
    shaped (2^(first-1), 2^(W-first+1-k)) for a W-qubit state.  A stack of
    vectors, shaped (..., 2^k), gives one residual per vector, stacked the
    same way.
    """
    lead = 2 ** (first - 1)
    shaped = state.reshape(lead, 2**k, -1)
    return np.einsum("...b,ibj->...ij", vec.conj(), shaped)


def insert_block(rest: np.ndarray, vec: np.ndarray, first: int, k: int) -> np.ndarray:
    """Inverse of :func:`partial_inner`: tensor `vec` back at the wire positions."""
    lead = 2 ** (first - 1)
    shaped = rest.reshape(lead, -1)
    out = np.einsum("ij,b->ibj", shaped, vec)
    return out.reshape(-1)


def basis_state(index: int, dim: int) -> np.ndarray:
    out = np.zeros(dim, dtype=complex)
    out[index] = 1.0
    return out


def is_unitary(mat: np.ndarray) -> bool:
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        return False
    dim = mat.shape[0]
    return bool(np.max(np.abs(mat.conj().T @ mat - np.eye(dim))) < 1e-10)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))
