"""Dense references that the tests hold the library's bit-level code to.

Each one builds the full 2^n x 2^n matrices the library avoids, so they
serve small n only: a Pauli string's matrix, a circuit's matrix as the
product of its gates' krons, the check that a circuit turns every member
of a family into a signed Z-string, how far a set of bases is from
mutually unbiased, and a decomposition's transfer-matrix residual as one
product of two dense stacks.  Three are bit-level references instead:
the symplectic commutation test of two Pauli strings, the GF(2)
reduction that back-substitutes over every lower pivot, and the
synthesis schedule that reads the CZ pairs column by column and sorts
them through edge_color_cz.
"""

import numpy as np

from wirecut.errors import InvalidInputError, SynthesisError
from wirecut.pauli import PauliString, gf2_basis, pauli_vector
from wirecut.synth import CliffordCircuit, Gate, circuit_unitary, edge_color_cz

_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_pauli(p):
    """The matrix of a PauliString or label, as the kron of its letters;
    qubit 1 is the most significant factor."""
    label = p if isinstance(p, str) else p.label
    mat = _LETTERS[label[0]]
    for ch in label[1:]:
        mat = np.kron(mat, _LETTERS[ch])
    return mat


_ONE_QUBIT_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "SDG": np.diag([1, -1j]),
}


def _on_qubit(gate, q, n):
    """The 2 x 2 `gate` on qubit q of n, as I (x) gate (x) I."""
    return np.kron(np.kron(np.eye(2 ** (q - 1)), gate), np.eye(2 ** (n - q)))


def dense_circuit_unitary(circuit):
    """The product of the circuit's gate matrices, the first gate rightmost:
    each 1-qubit gate as a kron of I's and the gate, and CZ on (a, b) as
    I - (I - Z_a)(I - Z_b) / 2."""
    n = circuit.n
    eye = np.eye(2**n)
    out = eye.astype(complex)
    for g in circuit.gates:
        if g.name == "CZ":
            a, b = (eye - _on_qubit(_LETTERS["Z"], q, n) for q in g.qubits)
            mat = eye - a @ b / 2
        else:
            mat = _on_qubit(_ONE_QUBIT_GATES[g.name], g.qubits[0], n)
        out = mat @ out
    return out


def commutes(p, q):
    """True iff the symplectic form p.z*q.x + q.z*p.x vanishes mod 2."""
    if p.n != q.n:
        raise InvalidInputError("qubit counts differ")
    return ((p.zbits & q.xbits).bit_count() + (q.zbits & p.xbits).bit_count()) % 2 == 0


def family_members(family):
    """The 2^n - 1 member strings of a CommutingFamily, as a frozenset."""
    return frozenset(PauliString.from_label(s) for s in family.member_labels())


def _is_signed_z_string(mat, n):
    """True iff mat equals +-D for some D in {I,Z}^n, entrywise within 1e-10."""
    tol = 1e-10
    diag = np.diagonal(mat)
    if np.max(np.abs(mat - np.diag(diag))) > tol:
        return False
    if np.max(np.abs(np.abs(diag) - 1.0)) > tol or np.max(np.abs(diag.imag)) > tol:
        return False
    pattern = diag.real / (1.0 if diag[0].real > 0 else -1.0)
    s = 0
    for q in range(n):
        if pattern[1 << (n - 1 - q)] < 0:
            s |= 1 << (n - 1 - q)
    expect = np.where(np.bitwise_count(np.arange(2**n) & s) & 1, -1.0, 1.0)
    return bool(np.max(np.abs(pattern - expect)) <= tol)


def diagonalizes_dense(circuit, family):
    """True iff U^dagger P U is a signed {I,Z} string for every member P."""
    if circuit.n != family.n:
        return False
    u = circuit_unitary(circuit)
    udg = u.conj().T
    return all(
        _is_signed_z_string(udg @ dense_pauli(p) @ u, family.n) for p in family_members(family)
    )


def mub_overlap_deviation(bases):
    """Max | |<phi_i|psi_j>|^2 - 1/d | over distinct pairs of bases, each
    given as the unitary whose columns are its vectors; ValueError when one
    is not a unitary of the first one's shape."""
    dim = np.asarray(bases[0]).shape[0]
    mats = [np.asarray(b, dtype=complex) for b in bases]
    for b in mats:
        if b.shape != (dim, dim) or np.max(np.abs(b.conj().T @ b - np.eye(dim))) > 1e-10:
            raise ValueError("each basis must be a unitary of one square shape")
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            overlap = np.abs(mats[i].conj().T @ mats[j]) ** 2
            worst = max(worst, float(np.max(np.abs(overlap - 1.0 / dim))))
    return worst


def gf2_basis_all_pivots(vectors):
    """The fully reduced GF(2) basis, sorted descending, the plain way:
    eliminate by leading bit, then clear each lower pivot bit of every
    vector, testing all of the lower pivots one by one."""
    pivots = {}
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    order = sorted(pivots)
    for i, p in enumerate(order):
        v = pivots[p]
        for q in order[:i]:
            if v >> q & 1:
                v ^= pivots[q]
        pivots[p] = v
    return [pivots[p] for p in reversed(order)]


def single_product_residual(d):
    """max |sum_i c_i PTM(E_i) - I| as one real product: the Pauli vectors
    of every prep as a 4^n x T matrix times those of every effect, scaled by
    c_i * a, as a T x 4^n matrix, T the total term count; imaginary parts,
    which are rounding for hermitian terms, are dropped."""
    preps, effects = [], []
    for c, ch in d.channels:
        dense_effects, dense_preps = ch.dense_terms()
        preps.append(pauli_vector(dense_preps, d.n).real)
        effects.append(float(c) * ch.signs[:, None] * pauli_vector(dense_effects, d.n).real)
    total = np.concatenate(preps).T @ np.concatenate(effects)
    return float(np.max(np.abs(total - np.eye(4**d.n))))


def reference_synthesize(family):
    """The basis-change circuit of a family, the plain way: reduce the
    X-block to the identity, then H on every qubit, S-dagger where C's
    diagonal is 1, and a CZ per unit entry above it, the pairs read column
    by column and scheduled by edge_color_cz."""
    n = family.n
    basis = gf2_basis((g.xbits << n) | g.zbits for g in family.generators)
    if any(v >> n == 0 for v in basis):
        raise SynthesisError("X-block is rank deficient")
    cols = basis[::-1]  # column j: X part is qubit j + 1 alone; bit i is C[i][j]
    gates = [Gate("H", (q,)) for q in range(1, n + 1)]
    gates += [Gate("SDG", (k,)) for k in range(1, n + 1) if cols[k - 1] >> (k - 1) & 1]
    pairs = [(l, m) for m in range(2, n + 1) for l in range(1, m) if cols[m - 1] >> (l - 1) & 1]
    for layer in edge_color_cz(pairs, n):
        gates += [Gate("CZ", pair) for pair in layer]
    return CliffordCircuit(n, gates)
