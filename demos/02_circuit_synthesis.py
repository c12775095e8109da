"""Partition the Pauli strings and synthesize the basis-change circuits.

The 4^n - 1 non-identity Pauli strings split into 2^n + 1 maximally
commuting families.  For every family except the all-Z one, a short
Clifford circuit (H, S-dagger, CZ only) rotates its joint eigenbasis onto
the computational basis; those eigenbases are exactly a complete set of
mutually unbiased bases.  Depth stays below n + 2 thanks to a round-robin
edge coloring of the CZ layer.
"""

import numpy as np

from wirecut import (
    circuit_unitary,
    gate_stats,
    generate_partition,
    synthesize,
    verify_diagonalizes_symplectic,
)

N = 3
part = generate_partition(N)

print(f"n = {N}: {len(part.families)} families of {2**N - 1} commuting strings\n")
for idx, fam in enumerate(part.families, start=1):
    members = ", ".join(fam.member_labels())
    print(f"  G{idx}: {members}")

print("\nsynthesized circuits (H / SDG / CZ, one gate per line token):")
bases = []
for idx, fam in enumerate(part.families[:-1], start=1):
    circ = synthesize(fam)
    assert verify_diagonalizes_symplectic(circ, fam)
    stats = gate_stats(circ)
    gates = "; ".join(g.text() for g in circ.gates)
    print(f"  U{idx}: depth {stats.depth:>2}  [{gates}]")
    bases.append(circuit_unitary(circ))

bases.append(np.eye(2**N, dtype=complex))
deviation = max(
    float(np.max(np.abs(np.abs(a.conj().T @ b) ** 2 - 2.0**-N)))
    for i, a in enumerate(bases)
    for b in bases[i + 1 :]
)
print(f"\nmax deviation of |<phi_i|psi_j>|^2 from 2^-{N} across all basis pairs: {deviation:.2e}")
