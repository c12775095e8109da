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
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .pauli import PauliString, _gf2_pivots, gf2_independent, gf2_rank

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
        return _span_keys([(g.zbits << n) | g.xbits for g in self.generators])[1:]

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


@lru_cache(maxsize=None)
def _reversed_bits(n: int) -> tuple[int, ...]:
    """Entry v is the n-bit value v with its bits in reverse order."""
    return tuple(int(f"{v:0{n}b}"[::-1], 2) for v in range(1 << n))


def _sort_key(fam: CommutingFamily) -> int:
    """The family's smallest member as the bit vector (z_1..z_n, x_1..x_n),
    position 1 most significant: the vector at the lowest pivot."""
    n = fam.n
    rev = _reversed_bits(n)  # bit q-1 of a mask is qubit q
    pivots = _gf2_pivots((rev[g.zbits] << n) | rev[g.xbits] for g in fam.generators)
    return pivots[min(pivots)]


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
    # With the X bits high, independent X-parts (every line family) put each
    # vector's leading bit on its own pivot: one elimination step apiece.
    swapped = [(g.xbits << n) | g.zbits for g in gens]
    if not gf2_independent(swapped):
        raise InvalidInputError("generators are linearly dependent over GF(2)")
    # (z_p << n | x_p) & (x_q << n | z_q) holds z_p & x_q and x_p & z_q, so its
    # popcount's parity is the symplectic form of p and q.
    vecs = [(g.zbits << n) | g.xbits for g in gens]
    for i, v in enumerate(vecs):
        for w in swapped[i + 1 :]:
            if (v & w).bit_count() & 1:
                raise InvalidInputError("generators do not mutually commute")
    return vecs


def _span_keys(vecs: Sequence[int] | np.ndarray) -> np.ndarray:
    """The 2^k GF(2) combinations of k packed vectors, zero first, as uint32:
    k ints give a (2^k,) array, a (k, F) array the combinations of each of
    its F columns.

    Combination j XORs the vectors at the set bits of j.
    """
    vecs = np.asarray(vecs, dtype=np.uint32)
    keys = np.zeros((1 << len(vecs),) + vecs.shape[1:], dtype=np.uint32)
    for i, v in enumerate(vecs):
        keys[1 << i : 2 << i] = keys[: 1 << i] ^ v
    return keys


def _marks_every_key(key_blocks: Iterable[np.ndarray], n: int) -> bool:
    """True iff the blocks' keys, marked in a 4^n bitmap, include every
    non-zero key below 4^n."""
    seen = np.zeros(4**n, dtype=bool)
    for keys in key_blocks:
        seen[keys] = True
    return bool(seen[1:].all())


def _pauli_set(n: int, keys: np.ndarray) -> frozenset[PauliString]:
    mask = (1 << n) - 1
    return frozenset(PauliString(n, key >> n, key & mask) for key in keys.tolist())


def expand_family(generators: Sequence[PauliString]) -> frozenset[PauliString]:
    """All non-identity products of the generators, phases dropped."""
    gens = tuple(generators)
    vecs = check_generators(gens)
    return _pauli_set(gens[0].n, _span_keys(vecs)[1:])


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
    lines.sort(key=_sort_key)
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
    # The (2^n + 1)(2^n - 1) = 4^n - 1 members are non-zero (independent
    # generators), so they are distinct when they mark every non-zero key.
    # Keyed (x << n) | z, member (a << h) | b of each family, one per column,
    # is high[a] ^ low[b]; one row of high at a time marks 2^h members of
    # every family, and a line family's member j has x = j, so a block stays
    # within 2^h rows of the bitmap.  Row a = 0 also marks key 0 (b = 0).
    h = n // 2
    gens = np.transpose([[(g.xbits << n) | g.zbits for g in fam.generators] for fam in fams])
    low = _span_keys(gens[:h])
    if not _marks_every_key((row ^ low for row in _span_keys(gens[h:])), n):
        raise InvalidInputError("families do not disjointly cover all strings")
