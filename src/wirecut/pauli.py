"""Binary-symplectic algebra for n-qubit Pauli strings.

A Pauli string on n qubits is stored as two n-bit masks (``zbits``,
``xbits``); bit q-1 refers to qubit q.  The represented operator is the
hermitian tensor product of single-qubit letters

    (z, x) = (0,0) -> I, (0,1) -> X, (1,1) -> Y, (1,0) -> Z,

i.e. the phase (-i)^(z.x) of the Z^z X^x product is absorbed so every
string has eigenvalues +-1.  Commutation is the symplectic inner product
over GF(2).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

MAX_QUBITS = 16

# letter -> (z, x)
_LETTER_BITS = {"I": (0, 0), "X": (0, 1), "Y": (1, 1), "Z": (1, 0)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}


@dataclass(frozen=True)
class PauliString:
    """Immutable n-qubit Pauli string in binary-symplectic form."""

    n: int
    zbits: int
    xbits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_QUBITS:
            raise ResourceLimitError(f"qubit count {self.n} outside 1..{MAX_QUBITS}")
        if self.zbits < 0 or self.xbits < 0:
            raise InvalidInputError("bit masks must be nonnegative")
        if (self.zbits | self.xbits) >> self.n:
            raise InvalidInputError("bit masks exceed qubit count")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Parse text form, e.g. "XZI"; leftmost letter is qubit 1."""
        if not label or any(ch not in _LETTER_BITS for ch in label):
            raise InvalidInputError(f"invalid Pauli label {label!r}")
        z = x = 0
        for q, ch in enumerate(label):  # qubit q+1 -> bit q
            lz, lx = _LETTER_BITS[ch]
            z |= lz << q
            x |= lx << q
        return cls(len(label), z, x)

    @property
    def label(self) -> str:
        return "".join(
            _BITS_LETTER[((self.zbits >> q) & 1, (self.xbits >> q) & 1)]
            for q in range(self.n)
        )


@functools.cache
def _walsh_plan(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables :func:`pauli_vector` uses at width n, built on first use.

    (gather, hadamard, order, phase): gather[r, b] is the flat position of
    mat[r, r ^ b]; hadamard[a, r] = (-1)^(a.r); order[k] is string k's
    position in the row-major (a, b) grid; phase[k] = i^|a & b| 2^(-n/2).
    Qubit 1 is the most significant bit of a, b and r alike.  The arrays
    are shared by every call, so they are read-only.
    """
    dim = 2**n
    r = np.arange(dim)
    gather = r[:, None] * dim + (r[:, None] ^ r[None, :])
    k = np.arange(4**n)
    a = np.zeros_like(k)
    b = np.zeros_like(k)
    for q in range(n):  # base-4 digit q of k is qubit n - q: I, X, Y, Z = 0..3
        digit = (k >> 2 * q) & 3
        a |= (digit >> 1) << q
        b |= ((digit ^ (digit >> 1)) & 1) << q
    tables = (
        gather,
        1.0 - 2.0 * (np.bitwise_count(r[:, None] & r[None, :]) & 1),
        a * dim + b,
        np.array([1, 1j, -1, -1j])[np.bitwise_count(a & b) % 4] * 2.0 ** (-n / 2),
    )
    for t in tables:
        t.flags.writeable = False
    return tables


def pauli_vector(mat: np.ndarray, n: int) -> np.ndarray:
    """Coefficients Tr[sigma_k mat] in the normalized Pauli basis.

    sigma_k runs over the 4^n strings in base-4 order: the digits of k,
    most significant first, are the letters of qubits 1..n, with I, X, Y,
    Z = 0, 1, 2, 3 (so k = 1 is "I...IX").  Each string is normalized by
    2^(-n/2) so the basis is orthonormal under the Hilbert-Schmidt inner
    product.  A stack of shape (..., 2^n, 2^n) gives one vector per matrix,
    shape (..., 4^n), each equal bit for bit to the single-matrix call.

    Write a string with z-mask a and x-mask b as i^|a & b| X^b Z^a (Y = iXZ
    on each qubit).  Then Tr[sigma mat] = i^|a & b| sum_r (-1)^(a.r)
    mat[r, r ^ b], so one gather lays mat[r, r ^ b] out as a (r, b) grid,
    one real product with the +-1 Walsh-Hadamard matrix H^(x)n sums over r
    for every a at once (on the real and imaginary parts side by side),
    and one reorder into string order, times the phase, finishes.
    """
    if mat.shape[-2:] != (2**n, 2**n):
        raise InvalidInputError("matrix shape does not match qubit count")
    gather, hadamard, order, phase = _walsh_plan(n)
    lead = mat.shape[:-2]
    flat = np.asarray(mat, dtype=complex).reshape(lead + (4**n,))
    grid = np.take(flat, gather, axis=-1).view(float)  # (..., r, 2b): re, im interleaved
    sums = np.matmul(hadamard, grid).view(complex)  # (..., a, b)
    out = sums.reshape(lead + (4**n,))[..., order]
    out *= phase
    return out


def _gf2_pivots(vectors: Iterable[int]) -> dict[int, int]:
    """Forward GF(2) elimination: {leading bit: vector}, one per dimension of
    the span.  The vector at the lowest pivot has no other pivot bit, so it is
    the span's least non-zero member and already fully reduced."""
    pivots: dict[int, int] = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            b = pivots.get(top)
            if b is None:
                pivots[top] = v
                break
            v ^= b
    return pivots


def gf2_basis(vectors: Iterable[int]) -> list[int]:
    """Fully reduced GF(2) basis of int-mask vectors, sorted descending: no
    vector has another's leading bit set, so it is the reduced row echelon
    form of the span, the same list for any two generating sets of one span."""
    pivots = _gf2_pivots(vectors)
    order = sorted(pivots)
    # Ascending pivots: the lower vectors are already fully reduced, so each
    # carries exactly one pivot bit, and clearing the pivot bits v has below
    # its own (v & below) in any order never sets another.
    below = 0
    for p in order:
        v = pivots[p]
        hit = v & below
        while hit:
            low = hit & -hit
            v ^= pivots[low.bit_length() - 1]
            hit ^= low
        pivots[p] = v
        below |= 1 << p
    return [pivots[p] for p in reversed(order)]


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank over GF(2) of int-mask vectors."""
    return len(_gf2_pivots(vectors))


def gf2_independent(vectors: Sequence[int]) -> bool:
    return gf2_rank(vectors) == len(vectors)
