"""Measure-and-prepare channels and the five identity-channel decompositions.

A measure-and-prepare channel is a POVM followed by a sign a = +-1 on the
classical record and preparation of a new state conditioned on the outcome:

    E(rho) = sum_mu  a_mu  Tr[E_mu rho]  rho_mu.

A decomposition is a weighted list (c_i, E_i) whose signed sum reproduces a
target channel; here the target is always the n-qubit identity.  Builders:

  * build_peng_1q       -- the original 8-channel single-wire cut, gamma = 4
  * build_optimal_1q    -- 3 channels, gamma = 3 (both lower bounds attained)
  * build_mub_nq        -- 2^n + 1 channels from MUB circuits, gamma = 2^(n+1)-1
  * build_randomized_nq -- 2-design randomized measurement, gamma = 2^(n+1)+1
  * build_teleport_nq   -- teleportation-based, gamma = 2^(n+1)-1, huge m

Every builder's channel has rank-1 effects |e><e| and re-prepares pure
states or mixtures of them, so an MPChannel stores the vectors e and the
prep ensembles; dense matrices appear only at the file boundary and in
the transfer-matrix checks.  Weights are exact `fractions.Fraction`s so
gamma and m assertions are exact; verification happens in double
precision through the Pauli transfer matrix.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dense import H_1Q, S_1Q, basis_state, is_unitary, parity
from .errors import (
    DesignViolationError,
    InvalidInputError,
    NumericFailureError,
    ResourceLimitError,
    WirecutError,
)
from .families import FamilyPartition
from .pauli import pauli_vector
from .synth import CliffordCircuit, circuit_unitary, verify_diagonalizes_symplectic

MAX_PTM_QUBITS = 6
PTM_TOL = 1e-10
PSD_FLOOR = -1e-10

Weight = Fraction | float


def _not_hermitian(mat: np.ndarray) -> bool:
    return np.abs(mat - mat.conj().T).max() > 1e-10


@dataclass(frozen=True, eq=False)
class ChannelTerm:
    """One dense term of a channel, as files store it: sign a, effect E,
    prepared state rho."""

    a: int
    effect: np.ndarray
    prep: np.ndarray

    def __post_init__(self):
        if self.a not in (1, -1):
            raise InvalidInputError("term sign must be +1 or -1")


@dataclass(frozen=True, eq=False)
class MPChannel:
    """Measure-and-prepare channel on n qubits, as stacked arrays, row o for outcome o.

    Outcome o has the rank-1 effect |e_o><e_o|, e_o = effects[o], and the sign
    signs[o]; it re-prepares the pure state preps[o, p] with weight
    prep_probs[o, p], with rows zero-padded to the largest ensemble.  So
    effects and preps are hermitian and positive by construction, and
    construction checks only, in order: shapes (O,), (O, 2^n), (O, P) and
    (O, P, 2^n), finite entries, signs +-1, prep weights >= 0 summing to 1,
    unit prep vectors (where the weight is positive), and effects summing
    to the identity, which an empty channel fails.  Dense matrices come in
    through :meth:`from_terms` and go out through :meth:`dense_terms`.
    """

    n: int
    signs: np.ndarray  # (O,)
    effects: np.ndarray  # (O, 2^n)
    prep_probs: np.ndarray  # (O, P)
    preps: np.ndarray  # (O, P, 2^n)

    def __post_init__(self):
        object.__setattr__(self, "signs", np.asarray(self.signs))
        for name, dtype in (("effects", complex), ("prep_probs", float), ("preps", complex)):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=dtype))
        dim = 2**self.n
        size = self.prep_probs.shape
        want = ((size[0],), (size[0], dim), size, (*size, dim)) if len(size) == 2 else None
        if (self.signs.shape, self.effects.shape, size, self.preps.shape) != want:
            raise InvalidInputError("channel arrays do not match each other or the qubit count")
        arrays = (self.signs, self.effects, self.prep_probs, self.preps)
        if not all(np.isfinite(a).all() for a in arrays):
            raise InvalidInputError("channel arrays must be finite")
        if not np.isin(self.signs, (1, -1)).all():
            raise InvalidInputError("outcome signs must be +1 or -1")
        if (self.prep_probs < 0).any():
            raise InvalidInputError("prep weights must be non-negative")
        if (np.abs(self.prep_probs.sum(axis=1) - 1.0) > 1e-10).any():
            raise InvalidInputError("prep weights must sum to 1")
        norms = np.linalg.norm(self.preps, axis=2)
        if (np.abs(norms - 1.0)[self.prep_probs > 0] > 1e-10).any():
            raise InvalidInputError("prep vectors must have unit norm")
        if np.max(np.abs(self.effects.T @ self.effects.conj() - np.eye(dim))) > 1e-10:
            raise InvalidInputError("POVM effects do not sum to the identity")

    @classmethod
    def from_terms(cls, n: int, terms: Sequence[ChannelTerm]) -> "MPChannel":
        """Channel from dense terms (a, E, rho), as files and hand-made cases give them.

        Checks the terms one by one and raises InvalidInputError naming the
        first failing check of the first failing term.  A term is checked for,
        in order: 2^n x 2^n effect and prep, finite entries, a hermitian
        effect, a hermitian prep, a positive semidefinite effect, a positive
        semidefinite prep (smallest eigh eigenvalue at least PSD_FLOOR), and a
        prep of unit trace.

        The same eigh factors the term.  Its effect gives one outcome
        sqrt(lam) v per eigenpair with lam > 1e-12, in ascending lam, with the
        term's sign and prep.  A diagonal prep becomes an ensemble of basis
        states, any other prep one of its eigenvectors, weighted by the
        normalized diagonal entries or eigenvalues above 1e-12.  The factored
        channel's own construction then checks that the effects sum to the
        identity, which an empty term list fails.
        """
        dim = 2**n
        effects, ensembles, rows = [np.zeros((0, dim), dtype=complex)], [], []
        for t, term in enumerate(terms):
            if not term.effect.shape == term.prep.shape == (dim, dim):
                raise InvalidInputError("term matrices do not match qubit count")
            effect = np.asarray(term.effect, dtype=complex)
            prep = np.asarray(term.prep, dtype=complex)
            if not (np.isfinite(effect).all() and np.isfinite(prep).all()):
                raise InvalidInputError("term matrices must be finite")
            if _not_hermitian(effect):
                raise InvalidInputError("POVM effect is not hermitian")
            if _not_hermitian(prep):
                raise InvalidInputError("prepared state is not hermitian")
            lam, vecs = np.linalg.eigh(effect)
            weights, states = np.linalg.eigh(prep)
            if lam[0] < PSD_FLOOR:
                raise InvalidInputError("POVM effect is not positive semidefinite")
            if weights[0] < PSD_FLOOR:
                raise InvalidInputError("prepared state is not positive semidefinite")
            if abs(np.trace(prep) - 1.0) > 1e-10:
                raise InvalidInputError("prepared state must have unit trace")
            kept = lam > 1e-12
            effects.append(np.sqrt(lam[kept])[:, None] * vecs[:, kept].T)
            rows += [t] * int(kept.sum())
            if np.abs(prep - np.diag(prep.diagonal())).max() < 1e-12:
                weights, states = prep.diagonal().real, np.eye(dim, dtype=complex)
            kept = weights > 1e-12
            ensembles.append((weights[kept] / weights[kept].sum(), states[:, kept].T))
        width = max((len(w) for w, _ in ensembles), default=1)
        probs = np.zeros((len(ensembles), width))
        preps = np.zeros((*probs.shape, dim), dtype=complex)
        for t, (w, chis) in enumerate(ensembles):
            probs[t, : len(w)], preps[t, : len(w)] = w, chis
        signs = np.array([term.a for term in terms], dtype=int)
        return cls(n, signs[rows], np.concatenate(effects), probs[rows], preps[rows])

    def dense_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """The stacks (effects, preps), each (O, 2^n, 2^n): row o is outcome
        o's effect |e><e| and prep sum_p w_p |chi_p><chi_p|, its sign signs[o].

        The products are np.outer's.  A weight scales real and imaginary parts
        apart and the sum starts from the first state, so a pure prep comes
        out bit for bit as np.outer(chi, chi.conj()), signed zeros included.
        """
        effects = self.effects[:, :, None] * self.effects[:, None, :].conj()
        preps = None
        for w, chi in zip(self.prep_probs.T, self.preps.transpose(1, 0, 2)):
            state = chi[:, :, None] * chi[:, None, :].conj()
            state.real *= w[:, None, None]
            state.imag *= w[:, None, None]
            preps = state if preps is None else preps + state
        return effects, preps


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Weighted measure-and-prepare channels realizing a target channel."""

    n: int
    channels: tuple[tuple[Weight, MPChannel], ...]
    label: str

    def __post_init__(self):
        if not self.channels:
            raise InvalidInputError("decomposition needs at least one channel")
        if any(ch.n != self.n for _, ch in self.channels):
            raise InvalidInputError("channel width mismatch")

    @property
    def gamma(self) -> Weight:
        """One-norm of the weights; exact when all weights are Fractions."""
        total = sum(abs(c) for c, _ in self.channels)
        return total

    @property
    def m(self) -> int:
        return len(self.channels)

    @property
    def probabilities(self) -> np.ndarray:
        g = float(self.gamma)
        return np.array([abs(float(c)) / g for c, _ in self.channels])


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Real 4^n x 4^n matrix of a channel in the normalized Pauli basis."""

    n: int
    entries: np.ndarray


def ptm(channel: MPChannel) -> TransferMatrix:
    """Pauli transfer matrix S[k, l] = Tr[sigma_k E(sigma_l)].

    For a measure-and-prepare channel this is a sum of outer products of
    the Pauli vectors of preps and effects.  Every term is hermitian, so the
    imaginary part is rounding and is dropped.
    """
    n = channel.n
    if n > MAX_PTM_QUBITS:
        raise ResourceLimitError(f"transfer matrices capped at {MAX_PTM_QUBITS} qubits")
    size = 4**n
    out = np.zeros((size, size), dtype=complex)
    effects, preps = channel.dense_terms()
    for a, effect, prep in zip(channel.signs, effects, preps):
        out += a * np.outer(pauli_vector(prep, n), pauli_vector(effect, n))
    return TransferMatrix(n, np.ascontiguousarray(out.real))


def identity_ptm(n: int) -> TransferMatrix:
    return TransferMatrix(n, np.eye(4**n))


def verify_decomposition(d: Decomposition) -> float:
    """Max-abs residual of sum_i c_i PTM(E_i) against the identity matrix.

    The weighted sum of per-term outer products is one real matrix product:
    the Pauli vectors of every prep form a 4^n x T matrix, those of every
    effect, scaled by c_i * a, a T x 4^n matrix, where T is the total term
    count.  Every dense term is hermitian by construction, so the imaginary
    parts of its Pauli vectors are rounding, and dropping them changes the
    real product by O(eps^2).
    Memory is two 4^n x T float64 stacks (about 8.6 MB each for mub at n = 5,
    T = 1056) plus the 4^n x 4^n product.
    """
    if d.n > MAX_PTM_QUBITS:
        raise ResourceLimitError(f"verification capped at {MAX_PTM_QUBITS} qubits")
    # Filled in place: collecting per-channel blocks and concatenating them
    # would hold every stack twice at the peak.
    rows = sum(len(ch.signs) for _, ch in d.channels)
    preps = np.empty((rows, 4**d.n))
    effects = np.empty((rows, 4**d.n))
    start = 0
    for c, ch in d.channels:
        stop = start + len(ch.signs)
        dense_effects, dense_preps = ch.dense_terms()
        preps[start:stop] = pauli_vector(dense_preps, d.n).real
        effects[start:stop] = float(c) * ch.signs[:, None] * pauli_vector(dense_effects, d.n).real
        start = stop
    total = preps.T @ effects
    total[np.diag_indices_from(total)] -= 1.0
    return float(np.max(np.abs(total)))


def rank_bound_check(target: TransferMatrix, n: int) -> int:
    """Lower bound on the channel count of any ancilla-free decomposition.

    ceil((rank - 1) / (2^n - 1)) with the numerical rank taken at singular
    value tolerance 1e-8; at least 1.
    """
    svals = np.linalg.svd(target.entries, compute_uv=False)
    rank = int(np.sum(svals > 1e-8))
    bound = -(-(rank - 1) // (2**n - 1)) if n >= 1 else 1
    return max(1, bound)


# single-qubit states used by the 1-wire builders
_K0 = basis_state(0, 2)
_K1 = basis_state(1, 2)
_PLUS = (_K0 + _K1) / np.sqrt(2)
_MINUS = (_K0 - _K1) / np.sqrt(2)
_PLUS_I = (_K0 + 1j * _K1) / np.sqrt(2)
_MINUS_I = (_K0 - 1j * _K1) / np.sqrt(2)


def _pure_channel(n: int, outcomes) -> MPChannel:
    """Channel from (a, e, chi) triples: outcome |e><e|, sign a, re-prepare |chi>."""
    signs, effects, preps = zip(*outcomes)
    return MPChannel(n, np.array(signs), np.array(effects), np.ones((len(signs), 1)),
                     np.array(preps)[:, None, :])


def _basis_channel(n: int, u: np.ndarray) -> MPChannel:
    """Measure in the basis of u's columns and re-prepare the outcome."""
    return _pure_channel(n, [(1, v, v) for v in u.T])


def _computational_channel(n: int, exclude_outcome: bool) -> MPChannel:
    """Measure in the computational basis and re-prepare a uniform mixture
    of basis states: all of them, or all but the outcome."""
    dim = 2**n
    basis = np.eye(dim, dtype=complex)
    if exclude_outcome:
        preps = np.array([np.delete(basis, j, axis=0) for j in range(dim)])
    else:
        preps = np.broadcast_to(basis, (dim, dim, dim))
    probs = np.full(preps.shape[:2], 1.0 / preps.shape[1])
    return MPChannel(n, np.ones(dim, dtype=int), basis, probs, preps)


def build_peng_1q() -> Decomposition:
    """The original single-wire cut: one channel per signed observable eigenpair."""
    half = Fraction(1, 2)
    rows = [
        (half, [(1, _K0, _K0), (1, _K1, _K0)]),
        (half, [(1, _K0, _K1), (1, _K1, _K1)]),
        (half, [(1, _PLUS, _PLUS), (-1, _MINUS, _PLUS)]),
        (-half, [(1, _PLUS, _MINUS), (-1, _MINUS, _MINUS)]),
        (half, [(1, _PLUS_I, _PLUS_I), (-1, _MINUS_I, _PLUS_I)]),
        (-half, [(1, _PLUS_I, _MINUS_I), (-1, _MINUS_I, _MINUS_I)]),
        (half, [(1, _K0, _K0), (-1, _K1, _K0)]),
        (-half, [(1, _K0, _K1), (-1, _K1, _K1)]),
    ]
    channels = tuple((c, _pure_channel(1, terms)) for c, terms in rows)
    return Decomposition(1, channels, "peng")


def build_optimal_1q() -> Decomposition:
    """Three channels: X and Y eigenbasis measure-and-reprepare, minus a bit flip."""
    one = Fraction(1)
    channels = (
        (one, _pure_channel(1, [(1, _PLUS, _PLUS), (1, _MINUS, _MINUS)])),
        (one, _pure_channel(1, [(1, _PLUS_I, _PLUS_I), (1, _MINUS_I, _MINUS_I)])),
        (-one, _pure_channel(1, [(1, _K0, _K1), (1, _K1, _K0)])),
    )
    return Decomposition(1, channels, "optimal1q")


def build_mub_nq(
    n: int,
    partition: FamilyPartition,
    circuits: Sequence[CliffordCircuit],
) -> Decomposition:
    """The MUB decomposition: one channel per basis-change circuit plus one
    computational channel that prepares a uniform mixture excluding the outcome."""
    if n > MAX_PTM_QUBITS:
        raise ResourceLimitError(f"builder capped at {MAX_PTM_QUBITS} qubits")
    if partition.n != n or len(circuits) != 2**n:
        raise InvalidInputError("need one circuit per non-Z family")
    for circ, fam in zip(circuits, partition.families[: 2**n]):
        if not verify_diagonalizes_symplectic(circ, fam):
            raise InvalidInputError(
                "circuit does not diagonalize its family; refuse to build"
            )
    channels = [(Fraction(1), _basis_channel(n, circuit_unitary(circ))) for circ in circuits]
    channels.append((Fraction(-(2**n - 1)), _computational_channel(n, exclude_outcome=True)))
    return Decomposition(n, tuple(channels), "mub")


def build_mub_default(n: int) -> Decomposition:
    """Partition, synthesize and assemble the MUB decomposition in one call."""
    from .families import generate_partition
    from .synth import synthesize

    part = generate_partition(n)
    circuits = [synthesize(f) for f in part.families[:-1]]
    return build_mub_nq(n, part, circuits)


def single_qubit_clifford_group() -> list[np.ndarray]:
    """The 24 single-qubit Cliffords (up to phase), generated by H and S."""

    def canon(mat: np.ndarray) -> np.ndarray:
        flat = mat.reshape(-1)
        k = next(i for i, v in enumerate(flat) if abs(v) > 1e-9)
        return mat * (abs(flat[k]) / flat[k])

    def key(mat: np.ndarray) -> bytes:
        return (np.round(canon(mat), 9) + 0.0).tobytes()  # +0.0 folds -0.0

    seen = {}
    frontier = [np.eye(2, dtype=complex)]
    seen[key(frontier[0])] = canon(frontier[0])
    while frontier:
        nxt = []
        for mat in frontier:
            for gen in (H_1Q, S_1Q):
                cand = gen @ mat
                k = key(cand)
                if k not in seen:
                    seen[k] = canon(cand)
                    nxt.append(cand)
        frontier = nxt
    group = sorted(seen.values(), key=lambda m: (np.round(m, 9) + 0.0).tobytes())
    if len(group) != 24:
        raise NumericFailureError("Clifford group closure failed")
    return group


def build_randomized_nq(
    n: int, unitary_set: Sequence[tuple[np.ndarray, Weight]]
) -> Decomposition:
    """Randomized-measurement decomposition from a weighted unitary 2-design.

    One channel per unitary (measure in its basis, re-prepare the outcome)
    plus one computational channel preparing the maximally mixed state.
    Raises DesignViolationError when the set is not a 2-design, detected by
    the transfer-matrix residual.
    """
    if n > MAX_PTM_QUBITS:
        raise ResourceLimitError(f"builder capped at {MAX_PTM_QUBITS} qubits")
    if not unitary_set:
        raise InvalidInputError("empty unitary set")
    dim = 2**n
    probs = [p for _, p in unitary_set]
    if abs(float(sum(probs)) - 1.0) > 1e-12:
        raise InvalidInputError("unitary probabilities must sum to one")
    channels: list[tuple[Weight, MPChannel]] = []
    for u, p in unitary_set:
        u = np.asarray(u, dtype=complex)
        if not is_unitary(u) or u.shape != (dim, dim):
            raise InvalidInputError("non-unitary matrix in the ensemble")
        channels.append(((dim + 1) * p, _basis_channel(n, u)))
    channels.append((Fraction(-dim) if isinstance(probs[0], Fraction) else -float(dim),
                     _computational_channel(n, exclude_outcome=False)))
    out = Decomposition(n, tuple(channels), "randomized")
    residual = verify_decomposition(out)
    if residual > PTM_TOL:
        raise DesignViolationError(
            f"unitary set is not a 2-design (residual {residual:.3e})"
        )
    return out


def _bell_basis_vector(a: int, b: int) -> np.ndarray:
    """(|0,b> + (-1)^a |1, 1-b>)/sqrt(2) on one (sender, ancilla) qubit pair."""
    out = np.zeros(4, dtype=complex)
    out[b] = 1.0
    out[2 + (1 - b)] = (-1.0) ** a
    return out / np.sqrt(2.0)


def build_teleport_nq(n: int) -> Decomposition:
    """Teleportation-based decomposition with the ancilla legs absorbed.

    The Bell pairs behind n parallel teleportations are replaced by a signed
    separable mixture; folding the Bell measurement and the Pauli correction
    into effects and preparations leaves plain n-qubit channels.  The channel
    count 2^(2^n) + 4^n - 2^n - 1 explodes, hence the n <= 2 guard.
    """
    if n > 2:
        raise ResourceLimitError("teleport builder limited to n <= 2")
    dim = 2**n
    big = 2**dim - 1  # number of phase-ladder states
    # phase-ladder states e_r and their conjugates
    ladder = np.array(
        [
            [
                np.exp(2j * np.pi * r * (2**j - 1) / big) / np.sqrt(dim)
                for j in range(dim)
            ]
            for r in range(1, big + 1)
        ]
    )
    # Bell-measurement vectors for every outcome mu, arranged as a matrix
    # mat[sender_index, ancilla_index]
    bell_mats = []
    corrections = []
    for mu in range(4**n):
        per_pair = []
        z_mask = x_mask = 0
        for l in range(n):
            a = (mu >> (2 * (n - 1 - l) + 1)) & 1
            b = (mu >> (2 * (n - 1 - l))) & 1
            per_pair.append(_bell_basis_vector(a, b))
            z_mask |= a << (n - 1 - l)
            x_mask |= b << (n - 1 - l)
        tensor = per_pair[0].reshape(2, 2)
        for vec in per_pair[1:]:
            tensor = np.tensordot(tensor, vec.reshape(2, 2), axes=0)
        # axes are (A_1, C_1, A_2, C_2, ...); regroup into (A..., C...)
        order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        mat = np.transpose(tensor, order).reshape(dim, dim)
        bell_mats.append(mat)
        # correction V_mu = prod Z^a X^b on the receiving qubits (global phase free)
        idx = np.arange(dim)
        signs = np.where(parity(idx & z_mask), -1.0, 1.0)
        corr = np.zeros((dim, dim), dtype=complex)
        corr[idx ^ x_mask, idx] = signs
        corrections.append(corr)

    channels: list[tuple[Weight, MPChannel]] = []
    for r in range(big):
        e_conj = ladder[r].conj()
        terms = [(1, bell_mats[mu] @ e_conj, corrections[mu] @ e_conj) for mu in range(4**n)]
        channels.append((Fraction(dim, big), _pure_channel(n, terms)))
    for j in range(dim):
        for k in range(dim):
            if j == k:
                continue
            terms = [
                (1, bell_mats[mu][:, j], corrections[mu] @ basis_state(k, dim))
                for mu in range(4**n)
            ]
            channels.append((Fraction(-1, dim), _pure_channel(n, terms)))
    return Decomposition(n, tuple(channels), "teleport")


def tensor_decompositions(d1: Decomposition, d2: Decomposition) -> Decomposition:
    """Product decomposition on n1 + n2 qubits; weights and channels multiply."""
    n = d1.n + d2.n
    channels = []
    # outcome pairs (o1, o2) and prep pairs (p1, p2) in row-major order, as kron orders them
    for c1, ch1 in d1.channels:
        for c2, ch2 in d2.channels:
            outcomes = len(ch1.signs) * len(ch2.signs)
            product = MPChannel(
                n,
                np.outer(ch1.signs, ch2.signs).ravel(),
                np.einsum("ai,bj->abij", ch1.effects, ch2.effects).reshape(outcomes, -1),
                np.einsum("ap,bq->abpq", ch1.prep_probs, ch2.prep_probs).reshape(outcomes, -1),
                np.einsum("api,bqj->abpqij", ch1.preps, ch2.preps).reshape(
                    outcomes, ch1.preps.shape[1] * ch2.preps.shape[1], -1
                ),
            )
            channels.append((c1 * c2, product))
    return Decomposition(n, tuple(channels), f"{d1.label}x{d2.label}")


# ---------------------------------------------------------------------------
# JSON wire format


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _matrix_from_json(data) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in data])


def _field(obj, key: str, where: str):
    """obj[key] of a parsed JSON object; `where` prefixes the field name."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where.rstrip('.') or 'top level'} must be a JSON object")
    if key not in obj:
        raise InvalidInputError(f"missing field {where}{key}")
    return obj[key]


def _int_field(obj, key: str, where: str) -> int:
    value = _field(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"field {where}{key} must be an integer")
    return value


def _list_field(obj, key: str, where: str) -> list:
    value = _field(obj, key, where)
    if not isinstance(value, list):
        raise InvalidInputError(f"field {where}{key} must be a list")
    return value


def _matrix_field(obj, key: str, where: str, dim: int) -> np.ndarray:
    """A dim x dim matrix stored as rows of [re, im] pairs."""
    value = _field(obj, key, where)
    try:
        matrix = _matrix_from_json(value)
    except (TypeError, ValueError, OverflowError):
        matrix = None
    if matrix is None or matrix.shape != (dim, dim):
        raise InvalidInputError(
            f"field {where}{key} must be a {dim} x {dim} matrix of [re, im] pairs"
        )
    return matrix


def _load_json(path, parse):
    """parse() of the JSON document in the file at `path`; errors name the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
            raise InvalidInputError(f"{path}: not valid JSON ({exc})") from None
    try:
        return parse(data)
    except WirecutError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def decomposition_to_json(d: Decomposition) -> dict:
    return {
        "label": d.label,
        "n": d.n,
        "gamma": float(d.gamma),
        "m": d.m,
        "channels": [
            {
                "weight": float(c),
                "terms": [
                    {"a": a, "effect": _matrix_to_json(e), "prep": _matrix_to_json(p)}
                    for a, e, p in zip(ch.signs.tolist(), *ch.dense_terms())
                ],
            }
            for c, ch in d.channels
        ],
    }


def decomposition_from_json(data: dict) -> Decomposition:
    """Decomposition from the JSON wire format.

    Malformed input raises InvalidInputError naming the field; `n` is checked
    against MAX_PTM_QUBITS before any matrix is parsed.
    """
    n = _int_field(data, "n", "")
    if not 1 <= n <= MAX_PTM_QUBITS:
        raise InvalidInputError(f"field n must lie in [1, {MAX_PTM_QUBITS}], got {n}")
    channels = []
    for i, entry in enumerate(_list_field(data, "channels", "")):
        where = f"channels[{i}]."
        weight = _field(entry, "weight", where)
        if type(weight) not in (int, float) or not abs(weight) <= sys.float_info.max:
            raise InvalidInputError(f"field {where}weight must be a finite number")
        terms = []
        for j, term in enumerate(_list_field(entry, "terms", where)):
            at = f"{where}terms[{j}]."
            terms.append(
                (
                    _int_field(term, "a", at),
                    _matrix_field(term, "effect", at, 2**n),
                    _matrix_field(term, "prep", at, 2**n),
                )
            )
        try:
            channel = MPChannel.from_terms(n, [ChannelTerm(*t) for t in terms])
        except InvalidInputError as exc:
            raise InvalidInputError(f"field {where.rstrip('.')}: {exc}") from None
        channels.append((float(weight), channel))
    if not channels:
        raise InvalidInputError("field channels must not be empty")
    return Decomposition(n, tuple(channels), str(data.get("label", "custom")))


def save_decomposition(d: Decomposition, path) -> None:
    with open(path, "w") as fh:
        json.dump(decomposition_to_json(d), fh)


def load_decomposition(path) -> Decomposition:
    return _load_json(path, decomposition_from_json)


BUILDERS = {
    "peng": lambda n: _fixed_width(build_peng_1q(), n),
    "optimal1q": lambda n: _fixed_width(build_optimal_1q(), n),
    "mub": build_mub_default,
    "randomized": lambda n: _randomized_default(n),
    "teleport": build_teleport_nq,
}


def _fixed_width(d: Decomposition, n: int) -> Decomposition:
    if n != d.n:
        raise InvalidInputError(f"method {d.label!r} is single-wire only")
    return d


def _randomized_default(n: int) -> Decomposition:
    if n != 1:
        raise ResourceLimitError(
            "default randomized ensemble (24 Cliffords) is single-qubit only"
        )
    group = single_qubit_clifford_group()
    p = Fraction(1, len(group))
    return build_randomized_nq(1, [(u, p) for u in group])


def build_decomposition(method: str, n: int) -> Decomposition:
    if method not in BUILDERS:
        raise InvalidInputError(
            f"unknown method {method!r}; choose from {sorted(BUILDERS)}"
        )
    return BUILDERS[method](n)
