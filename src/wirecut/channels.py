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
prep ensembles, and decomposition files store exactly those arrays; dense
matrices appear only in the transfer-matrix checks.  Weights are exact
`fractions.Fraction`s so gamma and m assertions are exact; verification
happens in double precision through the Pauli transfer matrix.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dense import H_1Q, S_1Q, SQRT2_INV, basis_state, is_unitary
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

Weight = Fraction | float


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
    to the identity, which an empty channel fails.  These checks are the
    only ones a loaded decomposition file gets.  Dense matrices exist only
    as the output of :meth:`dense_terms`.
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
        if not ((self.signs == 1) | (self.signs == -1)).all():
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
        # sampling divides by float(gamma), so it must be a positive double
        gamma = self.gamma
        if not (0 < gamma <= sys.float_info.max and float(gamma) > 0):
            raise InvalidInputError(
                f"the one-norm of the channels' weights must be finite and non-zero, got {gamma}"
            )

    @property
    def gamma(self) -> Weight:
        """One-norm of the weights; exact when all weights are Fractions."""
        return sum(abs(c) for c, _ in self.channels)

    @property
    def m(self) -> int:
        return len(self.channels)


def ptm(channel: MPChannel) -> np.ndarray:
    """Pauli transfer matrix S[k, l] = Tr[sigma_k E(sigma_l)], a real 4^n x 4^n
    array in the normalized Pauli basis.

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
    effect_vecs, prep_vecs = pauli_vector(effects, n), pauli_vector(preps, n)
    for a, effect, prep in zip(channel.signs, effect_vecs, prep_vecs):
        out += a * np.outer(prep, effect)
    return np.ascontiguousarray(out.real)


def _pauli_rows(ch: MPChannel) -> tuple[np.ndarray, np.ndarray]:
    """The real Pauli vectors of a channel's preps and of its effects, one
    row per outcome.  A channel that re-prepares exactly the state it
    measured (one prep of weight 1, equal to the effect, as in every basis
    channel) has equal dense stacks bit for bit, so its one stack of vectors
    serves as both."""
    if ch.prep_probs.shape[1] == 1 and (ch.prep_probs == 1).all() and np.array_equal(
        ch.preps[:, 0], ch.effects
    ):
        rows = pauli_vector(ch.effects[:, :, None] * ch.effects[:, None, :].conj(), ch.n).real
        return rows, rows
    dense_effects, dense_preps = ch.dense_terms()
    return pauli_vector(dense_preps, ch.n).real, pauli_vector(dense_effects, ch.n).real


# bytes of the row block in which verify_decomposition sweeps the residual
_BLOCK_BYTES = 1 << 20


def verify_decomposition(d: Decomposition) -> float:
    """Max-abs residual of sum_i c_i PTM(E_i) against the identity matrix,
    over all 16^n entries.

    Channel i's transfer matrix is sum_o P_o E_o^T over its outcomes o, with
    P_o the Pauli vector of the prep and E_o that of the effect scaled by
    c_i * a_o.  Every dense term is hermitian by construction, so the
    imaginary parts of those vectors are rounding, and dropping them changes
    the real sum by O(eps^2).

    A channel touches only the rows where some P_o is nonzero and the
    columns where some E_o is: for a MUB basis channel, the identity and its
    own commuting family, 2^n of the 4^n strings (up to 144 of 1,024 at
    n = 5, where rounding leaves tiny entries for zeros).  So each channel
    keeps the exact-nonzero rows of P and columns of E, channels with the
    same (rows, cols) supports are stacked, and channels with full supports
    (a Haar-rotated file) are stacked in place.  The dropped entries are
    exact zeros times finite numbers, so the sum is the same and only its
    rounding order moves.

    The sum is never held whole: its rows are swept in blocks of at most
    _BLOCK_BYTES through one buffer.  A block starts as its rows of the
    full-support product, each group adds its product over its rows in the
    block (a slice, as its rows are sorted), the identity's ones are taken
    off the diagonal, and the largest absolute entry joins a running max.
    Each group's product is taken per block, over a slice of its stacked
    rows, rather than whole and then sliced: whole products would hold
    |rows| x |cols| doubles per group until the sweep ends, up to 16^n for a
    file whose supports are nearly full, more than the 4^n x 4^n sum this
    sweep avoids.  The price is rounding: BLAS sums a product over a few
    rows in another order than over all of them, so the residual's last
    bits move (mub at n = 6: 2.13e-14 to 1.07e-13, still far below PTM_TOL).

    Memory is the block (1 MiB), one channel's dense terms and complex
    Pauli stacks at a time, and the kept rows and columns: 14% of the two
    4^n x T stacks, T the term count, for mub at n = 5, and all of them when
    every support is full.  Verifying mub at n = 6 takes about 1.1 s in an
    88 MiB process; holding the sum whole took 1.6 s and 203 MiB.
    """
    if d.n > MAX_PTM_QUBITS:
        raise ResourceLimitError(f"verification capped at {MAX_PTM_QUBITS} qubits")
    size, terms = 4**d.n, sum(len(ch.signs) for _, ch in d.channels)
    full, used = None, 0  # the stacks of full-support channels, filled in place
    groups: dict[tuple[bytes, bytes], tuple] = {}  # (rows, cols) -> their kept entries
    for c, ch in d.channels:
        preps, effects = _pauli_rows(ch)
        effects = float(c) * ch.signs[:, None] * effects
        rows = np.flatnonzero(preps.any(axis=0))
        cols = np.flatnonzero(effects.any(axis=0))
        if len(rows) == len(cols) == size:
            if full is None:
                full = np.empty((terms, size)), np.empty((terms, size))
            stop = used + len(effects)
            full[0][used:stop], full[1][used:stop] = preps, effects
            used = stop
            continue
        group = groups.setdefault((rows.tobytes(), cols.tobytes()), (rows, cols, [], []))
        group[2].append(preps[:, rows])
        group[3].append(effects[:, cols])
    for key, (rows, cols, preps, effects) in groups.items():  # one group's copies at a time
        groups[key] = rows, cols, np.concatenate(preps), np.concatenate(effects)
        preps.clear()
        effects.clear()
    step = max(1, min(size, _BLOCK_BYTES // (8 * size)))
    buffer, worst = np.empty((step, size)), np.float64(0.0)
    for start in range(0, size, step):
        stop = min(start + step, size)
        block = buffer[: stop - start]
        if full is None:
            block.fill(0.0)
        else:
            np.matmul(full[0][:used, start:stop].T, full[1][:used], out=block)
        for rows, cols, preps, effects in groups.values():
            lo, hi = np.searchsorted(rows, (start, stop))
            if lo < hi:
                block[rows[lo:hi, None] - start, cols] += preps[:, lo:hi].T @ effects
        diag = np.arange(stop - start)
        block[diag, diag + start] -= 1.0
        worst = np.maximum(worst, np.max(np.abs(block, out=block)))  # NaN carries through
    return float(worst)


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
    return MPChannel(n, np.ones(len(u), dtype=int), u.T, np.ones((len(u), 1)), u.T[:, None, :])


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


def _check_builder_width(n: int) -> None:
    if n < 1:
        raise InvalidInputError(f"the cut width must be at least 1, got {n}")
    if n > MAX_PTM_QUBITS:
        raise ResourceLimitError(f"builder capped at {MAX_PTM_QUBITS} qubits")


def build_mub_nq(
    n: int,
    partition: FamilyPartition,
    circuits: Sequence[CliffordCircuit],
) -> Decomposition:
    """The MUB decomposition: one channel per basis-change circuit plus one
    computational channel that prepares a uniform mixture excluding the outcome."""
    _check_builder_width(n)
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
    """Partition, synthesize and assemble the MUB decomposition in one call;
    the width cap is checked before the partition."""
    from .families import generate_partition
    from .synth import synthesize

    _check_builder_width(n)
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
    group = [seen[k] for k in sorted(seen)]
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
    _check_builder_width(n)
    if not unitary_set:
        raise InvalidInputError("empty unitary set")
    dim = 2**n
    if abs(float(sum(p for _, p in unitary_set)) - 1.0) > 1e-12:
        raise InvalidInputError("unitary probabilities must sum to one")
    channels: list[tuple[Weight, MPChannel]] = []
    for u, p in unitary_set:
        u = np.asarray(u, dtype=complex)
        if not is_unitary(u) or u.shape != (dim, dim):
            raise InvalidInputError("non-unitary matrix in the ensemble")
        channels.append(((dim + 1) * p, _basis_channel(n, u)))
    channels.append((-dim, _computational_channel(n, exclude_outcome=False)))
    out = Decomposition(n, tuple(channels), "randomized")
    residual = verify_decomposition(out)
    if residual > PTM_TOL:
        raise DesignViolationError(
            f"unitary set is not a 2-design (residual {residual:.3e})"
        )
    return out


def build_teleport_nq(n: int) -> Decomposition:
    """Teleportation-based decomposition with the ancilla legs absorbed.

    The Bell pairs behind n parallel teleportations are replaced by a signed
    separable mixture; folding the Bell measurement and the Pauli correction
    into effects and preparations leaves plain n-qubit channels.  Bell
    outcome mu = (z, x), with bits 2k + 1 and 2k of mu giving bit k of z and
    x, pairs sender basis state i with ancilla state i ^ x at amplitude
    (-1)^(i.z) s^n, s = 1/sqrt(2), and is corrected by Z^z X^x, which sends
    |i> to (-1)^(i.z) |i ^ x>.  So ancilla state e gives the effect
    (-1)^(i.z) s^n conj(e)[i ^ x] and the prep conj(e) scattered to i ^ x
    with sign (-1)^(i.z).  The channel count 2^(2^n) + 4^n - 2^n - 1
    explodes, hence the n <= 2 guard.
    """
    _check_builder_width(n)
    if n > 2:
        raise ResourceLimitError("teleport builder limited to n <= 2")
    dim = 2**n
    big = 2**dim - 1  # number of phase-ladder states
    # phase-ladder states e_r, row r - 1 for r = 1..big
    ladder = np.exp(2j * np.pi * np.arange(1, big + 1)[:, None] * (2 ** np.arange(dim) - 1) / big)
    mu = np.arange(4**n)[:, None]
    z = sum(((mu >> (2 * k + 1)) & 1) << k for k in range(n))
    x = sum(((mu >> (2 * k)) & 1) << k for k in range(n))
    idx = np.arange(dim)
    signs = np.where(np.bitwise_count(idx & z) & 1, -1.0, 1.0)  # row mu: (-1)^(i.z) over i
    amp = math.prod([SQRT2_INV] * n)  # one factor per pair

    def scatter(at, values) -> np.ndarray:
        out = np.zeros((4**n, dim), dtype=complex)
        out[mu, at] = values
        return out

    def channel(effects, preps) -> MPChannel:
        return MPChannel(n, np.ones(4**n, dtype=int), effects, np.ones((4**n, 1)), preps[:, None])

    channels: list[tuple[Weight, MPChannel]] = []
    for e_conj in (ladder / np.sqrt(dim)).conj():
        preps = scatter(idx ^ x, signs * e_conj)
        channels.append((Fraction(dim, big), channel(signs * amp * e_conj[idx ^ x], preps)))
    for j in range(dim):
        for k in range(dim):
            if j != k:
                effects = scatter(j ^ x, signs[mu, j ^ x] * amp)
                preps = scatter(k ^ x, signs[:, [k]])
                channels.append((Fraction(-1, dim), channel(effects, preps)))
    return Decomposition(n, tuple(channels), "teleport")


# ---------------------------------------------------------------------------
# JSON wire format


def _array_to_json(array: np.ndarray) -> list:
    """A complex array as nested lists whose innermost entries are [re, im] pairs."""
    array = np.asarray(array, dtype=complex)
    return np.stack((array.real, array.imag), axis=-1).tolist()


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


# how _array_field's messages name the entries of each dtype kind
_ELEMENTS = {"i": "integers", "f": "numbers", "c": "[re, im] pairs"}


def _array_field(
    obj, key: str, where: str, kind: str, shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """obj[key] as a numpy array of dtype kind `kind`: "i" integers, "f"
    floats, or "c" complex numbers written as [re, im] pairs, the form of
    _array_to_json.  When `shape` is given, the array must have it.

    The value must be non-empty rectangular nested lists of JSON numbers:
    ragged lists, text, null, booleans, objects and integers beyond 64 bits
    are rejected.  Pairs are copied into the real and imaginary parts as they
    are, so every double, signed zeros included, comes back bit for bit.
    """
    value = _field(obj, key, where)
    try:
        array = np.array(value)
    except (ValueError, OverflowError):  # ragged, or nested past numpy's rank limit
        array = np.empty(0)
    # numpy reads [true, 1] as [1, 1], so booleans are looked for entry by entry
    if array.dtype.kind in "iuf" and bool in map(type, np.array(value, dtype=object).flat):
        array = np.empty(0)
    if array.dtype.kind in "iuf":
        if kind == "c" and array.shape[-1:] == (2,):
            array = np.ascontiguousarray(array, dtype=float).view(complex)[..., 0]
        elif kind == "f":
            array = array.astype(float)
    wrong_shape = shape is not None and array.shape != shape
    if not array.size or array.dtype.kind != kind or wrong_shape:
        size = "" if shape is None else " x ".join(map(str, shape)) + " "
        raise InvalidInputError(f"field {where}{key} must be an array of {size}{_ELEMENTS[kind]}")
    return array


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


# the arrays of a channel entry, in MPChannel's order, with their dtype kinds
_CHANNEL_ARRAYS = (("signs", "i"), ("effects", "c"), ("prep_probs", "f"), ("preps", "c"))


def decomposition_to_json(d: Decomposition) -> dict:
    """The JSON wire format: each channel's weight and its four arrays as
    the channel holds them, so a loaded file gives the same arrays bit for bit."""
    return {
        "label": d.label,
        "n": d.n,
        "gamma": float(d.gamma),
        "m": d.m,
        "channels": [
            {"weight": float(c)}
            | {
                key: _array_to_json(getattr(ch, key)) if kind == "c" else getattr(ch, key).tolist()
                for key, kind in _CHANNEL_ARRAYS
            }
            for c, ch in d.channels
        ],
    }


def decomposition_from_json(data: dict) -> Decomposition:
    """Decomposition from the JSON wire format.

    Malformed input raises InvalidInputError naming the field; `n` is checked
    against MAX_PTM_QUBITS before any array is parsed, and each channel's
    arrays are checked by MPChannel's construction.  `gamma` and `m` may be
    left out; when present they must equal the loaded channels' one-norm
    (to a relative 1e-12) and count.
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
        arrays = [_array_field(entry, key, where, kind) for key, kind in _CHANNEL_ARRAYS]
        try:
            channel = MPChannel(n, *arrays)
        except InvalidInputError as exc:
            raise InvalidInputError(f"field {where.rstrip('.')}: {exc}") from None
        channels.append((float(weight), channel))
    if not channels:
        raise InvalidInputError("field channels must not be empty")
    d = Decomposition(n, tuple(channels), str(data.get("label", "custom")))
    if "m" in data and _int_field(data, "m", "") != d.m:
        raise InvalidInputError(f"field m is {data['m']}, but the file has {d.m} channels")
    if "gamma" in data:
        gamma = data["gamma"]
        finite = type(gamma) in (int, float) and abs(gamma) <= sys.float_info.max
        if not (finite and math.isclose(gamma, d.gamma, rel_tol=1e-12)):
            raise InvalidInputError(
                f"field gamma is {gamma!r}, but the channels' weights give {float(d.gamma)!r}"
            )
    return d


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
    """The `method` decomposition of the n-wire identity.  A width below 1 is
    refused here, for every method alike; each builder keeps its own cap."""
    if method not in BUILDERS:
        raise InvalidInputError(
            f"unknown method {method!r}; choose from {sorted(BUILDERS)}"
        )
    if n < 1:
        _check_builder_width(n)
    return BUILDERS[method](n)
