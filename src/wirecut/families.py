"""Partitioning the non-identity Pauli strings into maximally commuting families.

For n qubits the 4^n - 1 non-identity strings split into 2^n + 1 disjoint
families of 2^n - 1 mutually commuting strings each; the joint eigenbases of
the families form a complete set of mutually unbiased bases.  The families
are built from the finite field GF(2^n): label a string by a pair of field
elements (alpha, beta) where alpha gives the X-part in the polynomial basis
and beta gives the Z-part in the dual (trace-orthogonal) basis.  Two strings
then commute iff Tr(beta alpha' + beta' alpha) = 0, so the lines
{(alpha, lambda*alpha) : alpha != 0} for each lambda, plus the all-Z line
{(0, beta) : beta != 0}, are exactly the families.

Families are ordered by the lexicographically smallest member's bit vector
(z_1..z_n, x_1..x_n), with the all-Z family forced last.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .pauli import (
    PauliString,
    commutes,
    gf2_basis,
    gf2_independent,
    gf2_rank,
)

MAX_PARTITION_QUBITS = 12

# Irreducible polynomials over GF(2), bit i = coefficient of x^i.
_IRREDUCIBLE = {
    1: 0b11,  # x + 1
    2: 0b111,  # x^2 + x + 1
    3: 0b1011,  # x^3 + x + 1
    4: 0b10011,  # x^4 + x + 1
    5: 0b100101,  # x^5 + x^2 + 1
    6: 0b1000011,  # x^6 + x + 1
    7: 0b10000011,  # x^7 + x + 1
    8: 0b100011011,  # x^8 + x^4 + x^3 + x + 1
    9: 0b1000010001,  # x^9 + x^4 + 1
    10: 0b10000001001,  # x^10 + x^3 + 1
    11: 0b100000000101,  # x^11 + x^2 + 1
    12: 0b1000001010011,  # x^12 + x^6 + x^4 + x + 1
}


def gf_mul(a: int, b: int, n: int) -> int:
    """Carry-less product of field elements modulo the degree-n polynomial."""
    poly = _IRREDUCIBLE[n]
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= poly
    return out


def _trace_by_squaring(a: int, n: int) -> int:
    acc = 0
    cur = a
    for _ in range(n):
        acc ^= cur
        cur = gf_mul(cur, cur, n)
    return acc & 1


@lru_cache(maxsize=None)
def _trace_mask(n: int) -> int:
    """Bit i set iff Tr(x^i) = 1; the trace is F_2-linear in the coordinates."""
    return sum(_trace_by_squaring(1 << i, n) << i for i in range(n))


@dataclass(frozen=True)
class CommutingFamily:
    """One family: n generators spanning 2^n - 1 commuting non-identity strings.

    Every instance has n independent, mutually commuting generators of width
    n, checked once here at construction; consumers do not check them again.
    """

    n: int
    generators: tuple[PauliString, ...]

    def __post_init__(self):
        if len(self.generators) != self.n:
            raise InvalidInputError("need exactly n generators")
        if any(g.n != self.n for g in self.generators):
            raise InvalidInputError("generator width mismatch")
        check_generators(self.generators)

    def member_keys(self) -> np.ndarray:
        """All 2^n - 1 member masks (z << n) | x as a uint32 array, no Paulis built."""
        n = self.n
        return _span_keys([(g.zbits << n) | g.xbits for g in self.generators])

    def member_labels(self) -> list[str]:
        """Sorted member labels, computed vectorized (cheap even at n = 12)."""
        n = self.n
        keys = self.member_keys()
        codes = np.empty((len(keys), n), dtype=np.uint8)
        letters = np.frombuffer(b"IXZY", dtype=np.uint8)
        for q in range(n):
            z = (keys >> np.uint32(n + q)) & 1
            x = (keys >> np.uint32(q)) & 1
            codes[:, q] = letters[(z << 1) | x]
        return sorted(codes.tobytes()[i * n : (i + 1) * n].decode() for i in range(len(keys)))

    @property
    def is_z_family(self) -> bool:
        return all(g.xbits == 0 for g in self.generators)


@dataclass(frozen=True)
class FamilyPartition:
    """The 2^n + 1 disjoint maximally commuting families covering all strings."""

    n: int
    families: tuple[CommutingFamily, ...]


def _vector_int(p: PauliString) -> int:
    """Bit vector (z_1..z_n,x_1..x_n) packed with position 1 most significant."""
    out = 0
    for bits in (p.zbits, p.xbits):  # bit q-1 is qubit q: reverse each mask
        for _ in range(p.n):
            out = (out << 1) | (bits & 1)
            bits >>= 1
    return out


def check_generators(generators: Sequence[PauliString]) -> list[int]:
    """Raise InvalidInputError unless the generators are independent and commute.

    Returns their packed vectors (z << n) | x.
    """
    gens = tuple(generators)
    if not gens:
        raise InvalidInputError("no generators")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise InvalidInputError("generator width mismatch")
    vecs = [(g.zbits << n) | g.xbits for g in gens]
    if not gf2_independent(vecs):
        raise InvalidInputError("generators are linearly dependent over GF(2)")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not commutes(gens[i], gens[j]):
                raise InvalidInputError("generators do not mutually commute")
    return vecs


def _span_keys(vecs: Sequence[int]) -> np.ndarray:
    """The 2^k - 1 non-zero GF(2) combinations of k independent packed vectors.

    Combination j XORs the vectors at the set bits of j, as uint32.
    """
    keys = np.zeros(1 << len(vecs), dtype=np.uint32)
    for k, v in enumerate(vecs):
        keys[1 << k : 2 << k] = keys[: 1 << k] ^ np.uint32(v)
    return keys[1:]


def _pauli_set(n: int, keys: np.ndarray) -> frozenset[PauliString]:
    mask = (1 << n) - 1
    return frozenset(PauliString(n, key >> n, key & mask) for key in keys.tolist())


def expand_family(generators: Sequence[PauliString]) -> frozenset[PauliString]:
    """All non-identity products of the generators, phases dropped."""
    gens = tuple(generators)
    vecs = check_generators(gens)
    return _pauli_set(gens[0].n, _span_keys(vecs))


def _line_family(n: int, lam: int) -> CommutingFamily:
    """Family of the line beta = lam * alpha; generators use alpha = x^k, k < n.

    Bit j of generator k's Z-part is Tr(lam * x^k * x^j) = Tr(lam * x^(k+j)),
    so the Z-block is the Hankel matrix of the 2n - 1 traces
    t_i = Tr(lam * x^i): with t = sum_i t_i 2^i, generator k has
    zbits = bits k..k+n-1 of t.  Stepping a = lam * x^i by one shift and
    reduction gives every t_i from one popcount each.
    """
    poly, trace_mask = _IRREDUCIBLE[n], _trace_mask(n)
    t = 0
    a = lam
    for i in range(2 * n - 1):
        t |= ((a & trace_mask).bit_count() & 1) << i
        a <<= 1
        if a >> n:
            a ^= poly
    low = (1 << n) - 1
    gens = tuple(PauliString(n, (t >> k) & low, 1 << k) for k in range(n))
    return CommutingFamily(n, gens)


def _z_family(n: int) -> CommutingFamily:
    return CommutingFamily(n, tuple(PauliString(n, 1 << k, 0) for k in range(n)))


def generate_partition(n: int) -> FamilyPartition:
    """The deterministic partition into 2^n + 1 families, all-Z family last."""
    if not 1 <= n <= MAX_PARTITION_QUBITS:
        raise ResourceLimitError(f"n must be in 1..{MAX_PARTITION_QUBITS}, got {n}")
    lines = [_line_family(n, lam) for lam in range(2**n)]
    lines.sort(
        key=lambda fam: min(gf2_basis(_vector_int(g) for g in fam.generators))
    )
    return FamilyPartition(n, tuple(lines) + (_z_family(n),))


def validate_partition(partition: FamilyPartition) -> None:
    """Raise InvalidInputError unless the partition satisfies all its invariants.

    Each family's members commute pairwise and number 2^n - 1, since its
    generators are independent and commute (checked when it was built).
    """
    n = partition.n
    fams = partition.families
    if len(fams) != 2**n + 1:
        raise InvalidInputError(f"expected {2**n + 1} families, got {len(fams)}")
    for fam in fams:
        if fam.n != n:
            raise InvalidInputError("family width mismatch")
    if not fams[-1].is_z_family:
        raise InvalidInputError("last family must be the all-Z family")
    for fam in fams[:-1]:
        # no member may fall in the all-Z strings: X-parts must be independent
        if gf2_rank([g.xbits for g in fam.generators]) != n:
            raise InvalidInputError("non-final family overlaps the all-Z strings")
    # members are non-zero keys below 4^n, so 4^n - 1 distinct ones cover all
    all_keys = np.sort(np.concatenate([fam.member_keys() for fam in fams]))
    if len(all_keys) != 4**n - 1 or np.any(all_keys[1:] == all_keys[:-1]):
        raise InvalidInputError("families do not disjointly cover all strings")
