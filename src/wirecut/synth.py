"""Clifford synthesis: map a commuting family's eigenbasis to the computational basis.

For a family disjoint from the all-Z strings the recipe is: write the
generators' bit vectors as columns of a 2n x n matrix, column-reduce the
X-block to the identity, then read gates off the (symmetric) Z-block C:
a full layer of H, one S-dagger per unit diagonal entry of C, and one CZ
per unit off-diagonal pair.  CZ gates are scheduled in parallel layers via
a round-robin edge coloring of the complete graph, so the depth never
exceeds n + 2 on a fully connected device.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass, field
from typing import Iterable

import numpy as np

from . import dense
from .errors import InvalidInputError, ResourceLimitError, SynthesisError
from .families import CommutingFamily
from .pauli import gf2_basis

MAX_DENSE_QUBITS = 10
_ARITY = {"H": 1, "SDG": 1, "CZ": 2}
GATE_NAMES = tuple(_ARITY)


@dataclass(frozen=True)
class Gate:
    """One elementary gate with 1-based qubit indices."""

    name: str
    qubits: tuple[int, ...]

    def __post_init__(self):
        arity = _ARITY.get(self.name)
        if arity is None:
            raise InvalidInputError(f"unknown gate {self.name!r}")
        if len(self.qubits) != arity:
            raise InvalidInputError(f"{self.name} takes {arity} qubit(s)")
        if arity == 2 and self.qubits[0] == self.qubits[1]:
            raise InvalidInputError("CZ qubits must differ")
        if min(self.qubits) < 1:
            raise InvalidInputError("qubit indices are 1-based")

    def text(self) -> str:
        return " ".join([self.name, *map(str, self.qubits)])


@functools.cache
def _gate(name: str, *qubits: int) -> Gate:
    """The Gate `name` on `qubits`, built and validated once per distinct gate:
    synthesize asks for at most n (n + 3) / 2 of them at width n."""
    return Gate(name, qubits)


@dataclass(frozen=True)
class CliffordCircuit:
    """Layered H / S-dagger / CZ circuit on qubits 1..n; layers[0] acts first.

    `CliffordCircuit(n, gates)` is the one way to build a circuit: the gate
    sequence is packed as soon as possible, each gate one layer after the
    latest earlier gate on its qubits.  So no layer uses a qubit twice and
    each qubit's gates keep their order, by construction.
    """

    n: int
    gate_sequence: InitVar[Iterable[Gate]]
    layers: tuple[tuple[Gate, ...], ...] = field(init=False)

    def __post_init__(self, gate_sequence: Iterable[Gate]):
        if self.n < 1:
            raise InvalidInputError(f"the circuit width n must be at least 1, got {self.n}")
        free: dict[int, int] = {}  # qubit -> index of the first layer it is free in
        get = free.get
        layers: list[list[Gate]] = []
        for g in gate_sequence:
            qs = g.qubits
            if len(qs) == 1:
                (q,) = qs
                at = get(q, 0)
                free[q] = at + 1
            else:
                a, b = qs
                at = get(a, 0)
                other = get(b, 0)
                if other > at:
                    at = other
                free[a] = free[b] = at + 1
            if at < len(layers):
                layers[at].append(g)
            else:
                layers.append([g])
        if max(free, default=0) > self.n:
            raise InvalidInputError("gate qubit index exceeds circuit width")
        object.__setattr__(self, "layers", tuple(map(tuple, layers)))

    @property
    def gates(self) -> tuple[Gate, ...]:
        return tuple(g for layer in self.layers for g in layer)

    @property
    def depth(self) -> int:
        return len(self.layers)

    def text(self) -> str:
        return "\n".join(g.text() for g in self.gates) + "\n"

    @classmethod
    def parse(cls, text: str, n: int) -> "CliffordCircuit":
        gates = []
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                gates.append(Gate(parts[0].upper(), tuple(int(p) for p in parts[1:])))
            except ValueError as exc:
                raise InvalidInputError(f"bad gate line {raw!r}: {exc}") from exc
        return cls(n, gates)


@dataclass(frozen=True)
class GateStats:
    n_h: int
    n_s: int
    n_cz: int
    depth: int


def gate_stats(circuit: CliffordCircuit) -> GateStats:
    names = [g.name for g in circuit.gates]
    return GateStats(
        n_h=names.count("H"),
        n_s=names.count("SDG"),
        n_cz=names.count("CZ"),
        depth=circuit.depth,
    )


def _conjugate_masks(gates: Iterable[Gate], z: int, x: int, ones: int = 1) -> tuple[int, int]:
    """Phase-free conjugation of the masks (z, x) by each of `gates` in turn.

    The masks pack one Pauli per block of equal width, bit q-1 of a block =
    qubit q; `ones` has bit 0 of every block set (1 for a single Pauli), so
    ones << (q - 1) selects qubit q of every block at once.  The gates'
    qubits are not checked against the block width; callers do that.
    """
    for gate in gates:
        i = gate.qubits[0]
        col = ones << (i - 1)
        if gate.name == "H":  # swap z_i and x_i
            swap = (z ^ x) & col
            z ^= swap
            x ^= swap
        elif gate.name == "SDG":  # z_i ^= x_i
            z ^= x & col
        else:  # CZ: z_i ^= x_j and z_j ^= x_i
            d = gate.qubits[1] - i
            if d < 0:
                d = -d
                col >>= d  # now the lower qubit's column
            z ^= ((x >> d) & col) ^ ((x & col) << d)
    return z, x


def edge_color_cz(pairs: Iterable[tuple[int, int]], n: int) -> list[list[tuple[int, int]]]:
    """Schedule CZ pairs into qubit-disjoint layers via K_n round-robin coloring.

    Uses at most chi'(K_n) layers: n for odd n, n - 1 for even n.  On the
    0-based vertices of K_m, m = n + n % 2, round r pairs m - 1 with r and
    a with b whenever a + b = 2r (mod m - 1).  As 2 (m/2) = 1 (mod m - 1),
    pair (a, b) falls in round a if b = m - 1, else (a + b) (m/2) mod (m - 1).
    Layers keep round order, each sorted, and empty rounds are dropped.
    """
    wanted = set()
    for a, b in pairs:
        if a == b or not (1 <= a <= n and 1 <= b <= n):
            raise InvalidInputError(f"bad qubit pair {(a, b)}")
        wanted.add((a, b) if a < b else (b, a))
    m = n + n % 2  # odd n gets a dummy vertex m - 1 that no pair touches
    half = m // 2
    rounds: list[list[tuple[int, int]]] = [[] for _ in range(m - 1)]
    for a, b in sorted(wanted):
        rounds[a - 1 if b == m else (a + b - 2) * half % (m - 1)].append((a, b))
    return [r for r in rounds if r]


def synthesize(family: CommutingFamily) -> CliffordCircuit:
    """Build the basis-change circuit for one family via Gaussian elimination.

    Column operations bring the X-block of the generator matrix to the
    identity; the residual Z-block C, symmetric as the (commuting) columns
    are, dictates the S-dagger and CZ gates.  Fails with SynthesisError when
    the X-block is rank deficient, which happens exactly when the family
    intersects the all-Z strings.
    """
    n = family.n
    # With the X bits high, a full-rank X-block puts every pivot in the X half,
    # so the reduced basis, reversed, has the identity as its X-block.
    basis = gf2_basis((g.xbits << n) | g.zbits for g in family.generators)
    if any(v >> n == 0 for v in basis):
        raise SynthesisError("X-block is rank deficient; family overlaps the all-Z strings")
    cols = basis[::-1]  # column j: X part is qubit j + 1 alone; bit i is C[i][j]

    gates = [_gate("H", q) for q in range(1, n + 1)]
    gates += [_gate("SDG", k) for k in range(1, n + 1) if cols[k - 1] >> (k - 1) & 1]
    cz_pairs = []  # (l, m) for l < m with C[l][m] = 1, read off column m's low bits
    for m in range(2, n + 1):
        below = cols[m - 1] & ((1 << (m - 1)) - 1)
        while below:
            low = below & -below
            cz_pairs.append((low.bit_length(), m))
            below ^= low
    for layer in edge_color_cz(cz_pairs, n):
        gates += [_gate("CZ", *pair) for pair in layer]
    circuit = CliffordCircuit(n, gates)
    if circuit.depth > n + 2:
        raise SynthesisError("depth bound n + 2 violated")
    return circuit


def circuit_unitary(circuit: CliffordCircuit) -> np.ndarray:
    """Dense matrix of the circuit (layers applied left to right in time):
    H and S-dagger as 1-qubit blocks, CZ as a +-1.0 factor on every row.  A
    factor of (1 + 0j), or flipping only the chosen rows, would move the
    signs of some zeros, and so the bytes of a saved decomposition."""
    n = circuit.n
    if n > MAX_DENSE_QUBITS:
        raise ResourceLimitError(f"dense circuit realization capped at {MAX_DENSE_QUBITS} qubits")
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1  # column q - 1: qubit q
    mat = np.eye(2**n, dtype=complex)
    for g in circuit.gates:
        if g.name == "CZ":
            a, b = g.qubits
            mat = mat * np.where(bits[:, a - 1] & bits[:, b - 1], -1.0, 1.0)[:, None]
        else:
            gate = dense.H_1Q if g.name == "H" else dense.SDG_1Q
            mat = dense.apply_block(mat, gate, g.qubits[0], 1)
    return mat


def verify_diagonalizes_symplectic(circuit: CliffordCircuit, family: CommutingFamily) -> bool:
    """Phase-free check that every member maps into the all-Z strings.

    Phase-free conjugation is GF(2)-linear on the (z, x) vectors and the
    all-Z strings (x = 0) form a subspace, so the span of the generators
    maps into it exactly when each generator does: checking the n
    generators is equivalent to checking all 2^n - 1 members.  They are
    conjugated together, generator k in bits k n .. k n + n - 1 of the masks.
    """
    n = family.n
    if circuit.n != n:
        return False
    z = x = 0
    for k, g in enumerate(family.generators):
        z |= g.zbits << k * n
        x |= g.xbits << k * n
    ones = ((1 << n * n) - 1) // ((1 << n) - 1)  # bit k n set for each k < n
    gates = circuit.gates[::-1]  # U^dagger P U; each gate's mask action is an involution
    return _conjugate_masks(gates, z, x, ones)[1] == 0
