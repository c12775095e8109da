"""Exact and Monte-Carlo simulation of circuits with cut wires.

A circuit is a sequence of unitary layers on contiguous qubit ranges,
starting from |0...0> and ending in a computational measurement whose
outcome feeds a postprocessing function f.  A cut replaces the identity
on a set of wires (at a chosen point) by a decomposition into
measure-and-prepare channels: per shot a channel is drawn with probability
|c_i|/gamma, the POVM outcome is sampled from the exact upstream
distribution, the prepared state is fed downstream, and the signed,
gamma-scaled average of f over terminal samples estimates the uncut
expectation.

Only the classical record (channel index, outcome, prepared label) crosses
a cut; the severed wires' quantum state is rebuilt from that record alone.

Each shot consumes one row of 3L + 1 uniforms (channel, outcome and prep
per cut location, then the terminal outcome) from a Philox generator keyed
by the seed.  The rows are drawn in chunks of CHUNK_SHOTS; successive
draws continue one counter stream, so a chunk holds exactly the rows a
single shots x (3L + 1) draw would, and memory stays flat in the shot
count.  Within a chunk, each cut level is a fixed number of array passes
over all its shots: the (lattice node, channel) keys are ranked by counting,
not sorting; the cached outcome tables of the distinct keys are stacked; and
every draw is the count of table entries <= its uniform, as from
searchsorted(side="right"), by one branch-free binary search over all shots.
Every cumulative table, of channels, outcomes, preps or terminal outcomes,
comes from _draw_table: only its entries of probability > 0 are drawable,
and it is exactly 1.0 from the last of them on.  Every uniform is < 1, so the
search leaves each table's last entry out: a 2-entry table is one gather
and one compare.  The child nodes are numbered by ranking (key, outcome)
and then, unless every channel of the location prepares one state per
outcome, drawing the prep and ranking (pair, prep), so no count array
exceeds CHUNK_SHOTS x max(channels, outcomes, preps) bins.  The terminal
draw counts in the cumulative terminal rows of the chunk's leaves, leaves
x 2^W doubles stacked from the lattice's rows.  A shot's value depends only
on its own uniforms, so results are reproducible and independent of the
chunk size.

The lattice of distinct intermediate states is built one cut level at a
time: the level's missing child nodes are stacked as the columns of
(2^W, K) blocks of at most BLOCK_BYTES, and each downstream layer is one
contraction per block rather than one per node.  The contraction acts on
each column exactly as on a lone state, so a node's state is the same bit
for bit whatever block it was built in; exact_expectation uses the same
kernel.  A finished block becomes one (K, 2^W) array whose rows are its
nodes' states.  A node's outcome table for a channel is built when first
asked for, with the norm of each outcome row, which conditioning on that
outcome divides by.  Each block of the last level also gets its leaves'
cumulative terminal rows, one (K, 2^W) array made by a few array operations
over the whole block that give each row what its state alone would; each
row is stored by its leaf's path in place of its state.  The node cap
MAX_TRAJECTORY_NODES is checked before a level's blocks are allocated, and
every new node is one dense.insert_block call.

enumerate_estimator_mean weights each path of the same lattice by the steps
of the same tables and sign factors, so it is the exact mean of what the
sampler draws; only _RealizedLocation reads a decomposition's weights.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from . import dense
from .channels import (
    Decomposition,
    _array_field,
    _array_to_json,
    _int_field,
    _list_field,
    _load_json,
)
from .errors import InvalidInputError, NumericFailureError, ResourceLimitError

MAX_SIM_QUBITS = 12
MAX_TRAJECTORY_NODES = 1 << 18
# one block of new lattice states: 1024 states at 6 qubits, 16 at 12
BLOCK_BYTES = 1 << 20
# a conditioned state below this norm came from a zero-probability outcome
MIN_RESIDUAL_NORM = 1e-15
CHUNK_SHOTS = 1 << 16
# run_monte_carlo keeps one float64 value per shot: 2^27 shots is 1 GiB
MAX_SHOTS = 1 << 27


@dataclass(frozen=True, eq=False)
class CircuitLayer:
    """One unitary on the contiguous qubits first..first+k-1 (1-based)."""

    first: int
    matrix: np.ndarray

    def __post_init__(self):
        if not dense.is_unitary(self.matrix):
            raise InvalidInputError("layer matrix is not unitary")
        dim = len(self.matrix)
        if dim < 2 or dim & (dim - 1):
            raise InvalidInputError(f"layer matrix dimension {dim} is not 2^k, k >= 1")
        if self.first < 1:
            raise InvalidInputError("layer support out of range")

    @property
    def span(self) -> int:
        return len(self.matrix).bit_length() - 1


@dataclass(frozen=True, eq=False)
class LayeredCircuit:
    width: int
    layers: tuple[CircuitLayer, ...]

    def __post_init__(self):
        if self.width < 1:
            raise InvalidInputError(f"the circuit width must be at least 1, got {self.width}")
        for layer in self.layers:
            if layer.first + layer.span - 1 > self.width:
                raise InvalidInputError("layer support exceeds circuit width")


@dataclass(frozen=True, eq=False)
class CutLocation:
    """Cut the wires first_wire..first_wire+n-1 right after `after_layer` layers."""

    after_layer: int
    first_wire: int
    decomposition: Decomposition


@dataclass(frozen=True, eq=False)
class CutSpec:
    locations: tuple[CutLocation, ...]

    def __post_init__(self):
        order = [(loc.after_layer, loc.first_wire) for loc in self.locations]
        if order != sorted(order):
            raise InvalidInputError("cut locations must be sorted by layer then wire")
        for a, b in zip(self.locations, self.locations[1:]):
            if a.after_layer == b.after_layer:
                if a.first_wire + a.decomposition.n > b.first_wire:
                    raise InvalidInputError("overlapping cuts at one layer boundary")
        if not math.isfinite(self.gamma_total):
            raise InvalidInputError(
                f"the product of the cut gammas, {self.gamma_total}, is not finite"
            )

    @property
    def gamma_total(self) -> float:
        out = 1.0
        for loc in self.locations:
            out *= float(loc.decomposition.gamma)
        return out


class PostProcess:
    """Terminal postprocessing f: outcomes {0,1}^L -> [-1, 1], tabulated."""

    def __init__(self, width: int, table: np.ndarray, name: str = "table"):
        table = np.asarray(table, dtype=float)
        if table.shape != (2**width,):
            raise InvalidInputError("postprocess table must cover all outcomes")
        if not (np.abs(table) <= 1.0 + 1e-12).all():  # NaN fails too
            raise InvalidInputError("postprocess values must lie in [-1, 1]")
        self.width = width
        self.table = table
        self.name = name

    @classmethod
    def parity(cls, width: int) -> "PostProcess":
        return cls(width, np.where(np.bitwise_count(np.arange(2**width)) & 1, -1.0, 1.0), "parity")

    @classmethod
    def bit(cls, k: int, width: int) -> "PostProcess":
        if not 1 <= k <= width:
            raise InvalidInputError("bit index out of range")
        idx = np.arange(2**width)
        return cls(width, ((idx >> (width - k)) & 1).astype(float), f"bit:{k}")


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    shots: int
    gamma_total: float
    std_error: float
    seed: int
    tallies: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {**asdict(self), "tallies": [list(t) for t in self.tallies]}


def _apply_layers(state: np.ndarray, circuit: LayeredCircuit, lo: int, hi: int) -> np.ndarray:
    for layer in circuit.layers[lo:hi]:
        state = dense.apply_block(state, layer.matrix, layer.first, layer.span)
    return state


def _simulate_from_zero(circuit: LayeredCircuit, f: PostProcess, hi: int) -> np.ndarray:
    """|0...0> through the first `hi` layers, after both width checks."""
    if circuit.width > MAX_SIM_QUBITS:
        raise ResourceLimitError(f"simulation capped at {MAX_SIM_QUBITS} qubits")
    if f.width != circuit.width:
        raise InvalidInputError("postprocess width mismatch")
    return _apply_layers(dense.basis_state(0, 2**circuit.width), circuit, 0, hi)


def exact_expectation(circuit: LayeredCircuit, f: PostProcess) -> float:
    """Full statevector expectation of f over the terminal distribution."""
    state = _simulate_from_zero(circuit, f, len(circuit.layers))
    return float(np.sum(np.abs(state) ** 2 * f.table))


def _draw_table(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums of `probs` along the last axis, exactly 1.0 from each
    row's last entry of probability > 0 on (the last entry when none is), so
    a uniform in [0, 1) draws no entry of probability 0, however the sum rounds."""
    cum = np.cumsum(probs, axis=-1)
    last = cum.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0, axis=-1)
    cum[np.arange(cum.shape[-1]) >= last[..., None]] = 1.0
    return cum


class _RealizedLocation:
    """Sampling tables for one cut location, state-independent parts: the
    channel table, the MPChannels, and two tables padded to (m, O, P) and
    (m, O) over the m channels, O outcomes and P preps: the cumulative prep
    weights (padding 1.0, never counted) and channel sign x outcome sign."""

    def __init__(self, loc: CutLocation, width: int):
        d = loc.decomposition
        self.first = loc.first_wire
        self.span = d.n
        if loc.first_wire < 1 or loc.first_wire + d.n - 1 > width:
            raise InvalidInputError("cut wires lie outside the circuit")
        gamma = float(d.gamma)
        self.channel_cum = _draw_table(np.array([abs(float(c)) / gamma for c, _ in d.channels]))
        self.signs = [1 if float(c) >= 0 else -1 for c, _ in d.channels]
        self.channels = [ch for _, ch in d.channels]
        shapes = [ch.prep_probs.shape for ch in self.channels]
        self.prep_cum = np.ones((len(shapes), *np.max(shapes, axis=0)))
        self.factors = np.zeros(self.prep_cum.shape[:2])
        for c, (ch, (o, p)) in enumerate(zip(self.channels, shapes)):
            self.prep_cum[c, :o, :p] = _draw_table(ch.prep_probs)
            self.factors[c, :o] = self.signs[c] * ch.signs


class _CutEngine:
    """Trajectory lattice shared by the Monte-Carlo sampler and the exact
    enumeration: nodes are distinct intermediate states, memoized by path.

    A path is (channel, outcome, prep) per cut passed.  `_states` maps each
    path to one row of its block's array: an interior node's entry is its
    state, and a leaf's entry is its cumulative terminal row.  `_outcomes`
    maps (path, channel) to that node's outcome table with its row norms,
    computed once by outcomes().
    """

    def __init__(self, circuit: LayeredCircuit, cuts: CutSpec, f: PostProcess):
        for loc in cuts.locations:
            if not 0 <= loc.after_layer <= len(circuit.layers):
                raise InvalidInputError("cut layer index out of range")
        self.circuit = circuit
        self.locations = [_RealizedLocation(loc, circuit.width) for loc in cuts.locations]
        # the layers after cut d are boundaries[d]:boundaries[d + 1], the last ending the circuit
        self.boundaries = [loc.after_layer for loc in cuts.locations] + [len(circuit.layers)]
        self.gamma_total = cuts.gamma_total
        root = _simulate_from_zero(circuit, f, self.boundaries[0])
        self._states: dict[tuple, np.ndarray] = {(): root}
        self._outcomes: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def outcomes(self, path: tuple, chan: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cumulative probabilities, amplitudes, norms) of channel `chan`'s
        outcomes at node `path`.  Amplitude row o is the node's state with
        outcome o's effect vector applied to the cut wires: the unnormalized
        state of the other wires; norms[o] is its np.linalg.norm.  Outcomes
        of norm < MIN_RESIDUAL_NORM get probability 0: none can draw them."""
        key = path + (chan,)
        cached = self._outcomes.get(key)
        if cached is not None:
            return cached
        loc = self.locations[len(path) // 3]
        effects = loc.channels[chan].effects
        amps = dense.partial_inner(self._states[path], effects, loc.first, loc.span)
        probs = np.sum(np.abs(amps.reshape(len(amps), -1)) ** 2, axis=1)
        total = probs.sum()
        if not np.isfinite(total) or total <= 0:
            raise NumericFailureError("outcome probabilities degenerate")
        norms = np.array([np.linalg.norm(amp) for amp in amps])
        cum = _draw_table(np.where(norms >= MIN_RESIDUAL_NORM, probs / total, 0.0))
        self._outcomes[key] = (cum, amps, norms)
        return cum, amps, norms

    def children(self, requests: Sequence[tuple[tuple, int, int, int]]) -> list[tuple]:
        """Path keys of the nodes reached by distinct (path, channel, outcome,
        prep) requests whose paths all lie at one depth.

        The missing nodes are built together: each conditioned state gets its
        prepared state inserted, and the states, stacked as the columns of
        (2^W, K) blocks of at most BLOCK_BYTES, pass through the layers down
        to the next cut as one block per layer.  At the last cut level each
        leaf keeps its terminal row in place of its state.  The node cap is
        checked before any block exists.
        """
        keys = [path + (chan, outcome, prep) for path, chan, outcome, prep in requests]
        new = [key for key in keys if key not in self._states]
        if not new:
            return keys
        # the cap counts the nodes below the root
        if len(self._states) - 1 + len(new) > MAX_TRAJECTORY_NODES:
            raise ResourceLimitError("trajectory lattice exceeded the node cap")
        depth = len(new[0]) // 3 - 1
        loc = self.locations[depth]
        lo, hi = self.boundaries[depth], self.boundaries[depth + 1]
        last_level = depth == len(self.locations) - 1
        dim = 2**self.circuit.width
        columns = max(1, BLOCK_BYTES // (16 * dim))
        for start in range(0, len(new), columns):
            batch = new[start : start + columns]
            block = np.empty((dim, len(batch)), dtype=complex)
            for j, key in enumerate(batch):
                chan, outcome, prep = key[-3:]
                _, amps, norms = self.outcomes(key[:-3], chan)
                norm = norms[outcome]
                if norm < MIN_RESIDUAL_NORM:
                    raise NumericFailureError("conditioned on a zero-probability outcome")
                chi = loc.channels[chan].preps[outcome, prep]
                block[:, j] = dense.insert_block(amps[outcome] / norm, chi, loc.first, loc.span)
            # one contiguous row per node, so later contractions see the
            # memory layout a lone state has
            states = np.ascontiguousarray(_apply_layers(block, self.circuit, lo, hi).T)
            del block
            if last_level:
                # row for row what a lone state's abs, square, sum and cumsum
                # give, each step in place where it can be
                probs = np.abs(states)
                del states
                probs **= 2
                probs /= probs.sum(axis=1, keepdims=True)
                states = _draw_table(probs)
            self._states.update(zip(batch, states))
        return keys

    def terminal_cums(self, paths: Sequence[tuple]) -> np.ndarray:
        """The cumulative terminal rows of the leaves `paths`, stacked in order."""
        return np.stack([self._states[path] for path in paths])


def _rank(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values of `keys` (all in [0, size)), ascending, each key's
    index among them and np.bincount(keys, minlength=size): np.unique(keys,
    return_inverse=True) and the counts, counted in `size` bins, not sorted."""
    counts = np.bincount(keys, minlength=size)
    present = counts > 0
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys], counts


def _count_le(tables: np.ndarray, rows: np.ndarray | int, u: np.ndarray) -> np.ndarray:
    """For each i, the number of entries <= u[i] in the non-decreasing row
    tables[rows[i]] (rows may be one int for all i), which is
    searchsorted(side="right") when every row ends at exactly 1.0 and every
    u[i] lies in [0, 1).  That last entry is then never counted, so a
    branch-free binary search for all i at once covers the other width - 1
    entries (a width-1 row reads its 1.0 and counts 0): one gather for
    width 1 or 2, ceil(log2(width - 1)) + 1 beyond.  Past width 3 u, often
    a strided column of the uniform rows, is first made contiguous, and the
    search steps in place, so the copy adds no array to the peak."""
    flat, width = tables.ravel(), tables.shape[1]
    if width > 3:
        u = np.ascontiguousarray(u)
    base, size = rows * width, width - 1
    while size > 1:
        half = size // 2
        base += half * (flat[half:].take(base) <= u)
        size -= half
    return base + (flat.take(base) <= u) - rows * width


def _sample_chunk(
    engine: _CutEngine, u: np.ndarray, tallies: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Signs and terminal outcomes of the shots whose uniform rows are `u`.

    Adds each location's channel counts to `tallies`.  Node ids index this
    chunk's per-level path list.  Each level ranks (node, channel), then
    (row, outcome), then, when P > 1, (pair, prep), so it asks for its
    children in ascending (node, channel, outcome, prep) order and no
    bincount has more than len(u) x max(m, O, P) bins, (m, O, P) being the
    prep table's shape.  With P = 1 every prep is 0 and the prep uniform is
    not read.
    """
    k = len(u)
    nodes = np.zeros(k, dtype=np.int64)
    paths: list[tuple] = [()]
    signs = np.ones(k)
    # _count_le needs every table to end at exactly 1.0: the cumulative
    # tables do, and the outcome rows are padded with 1.0
    for l_idx, loc in enumerate(engine.locations):
        m, n_out, n_prep = loc.prep_cum.shape
        chan = _count_le(loc.channel_cum[None], 0, u[:, 3 * l_idx])
        keys, row, counts = _rank(nodes * m + chan, len(paths) * m)
        tallies[l_idx] += counts.reshape(-1, m).sum(axis=0)
        cums = np.ones((len(keys), n_out))
        for i, key in enumerate(keys.tolist()):
            cum = engine.outcomes(paths[key // m], key % m)[0]
            cums[i, : len(cum)] = cum
        out = _count_le(cums, row, u[:, 3 * l_idx + 1])
        chan_out = chan * n_out + out
        signs *= loc.factors.ravel()[chan_out]
        pairs, nodes, _ = _rank(row * n_out + out, len(keys) * n_out)
        preps = np.zeros_like(pairs)
        if n_prep > 1:
            prep_rows = loc.prep_cum.reshape(m * n_out, n_prep)
            prep = _count_le(prep_rows, chan_out, u[:, 3 * l_idx + 2])
            found, nodes, _ = _rank(nodes * n_prep + prep, len(pairs) * n_prep)
            pairs, preps = pairs[found // n_prep], found % n_prep
        parent = keys[pairs // n_out]
        columns = (parent // m, parent % m, pairs % n_out, preps)
        requests = zip(*(a.tolist() for a in columns))
        paths = engine.children([(paths[n], c, o, p) for n, c, o, p in requests])
    return signs, _count_le(engine.terminal_cums(paths), nodes, u[:, -1])


def run_monte_carlo(
    circuit: LayeredCircuit,
    cuts: CutSpec,
    f: PostProcess,
    shots: int,
    seed: int = 0,
) -> EstimateReport:
    """Unbiased quasiprobability estimate of the uncut expectation of f."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise InvalidInputError(f"shots {shots!r} must be an integer")
    if shots < 1:
        raise InvalidInputError("need at least one shot")
    if shots > MAX_SHOTS:
        raise ResourceLimitError(f"shots capped at {MAX_SHOTS}, got {shots}")
    if not cuts.locations:
        raise InvalidInputError("no cut locations; use exact_expectation instead")
    # Philox keys are 128-bit unsigned integers
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
        raise InvalidInputError(f"seed {seed!r} must be an integer in [0, 2^128)")
    engine = _CutEngine(circuit, cuts, f)
    gen = np.random.Generator(np.random.Philox(key=seed))
    columns = 3 * len(engine.locations) + 1
    tallies = [np.zeros(len(loc.signs), dtype=np.int64) for loc in engine.locations]
    values = np.empty(shots)
    for lo in range(0, shots, CHUNK_SHOTS):
        hi = min(lo + CHUNK_SHOTS, shots)
        signs, y = _sample_chunk(engine, gen.random((hi - lo, columns)), tallies)
        values[lo:hi] = engine.gamma_total * signs * f.table[y]
    estimate = float(values.mean())
    std_error = float("inf")
    if shots > 1:
        # values.std(ddof=1) step for step, in place: a second shots-sized
        # array would make the peak memory hang on how the heap was left
        np.square(np.subtract(values, estimate, out=values), out=values)
        std_error = float(np.sqrt(values.sum() / (shots - 1)) / np.sqrt(shots))
    return EstimateReport(
        estimate=estimate,
        shots=int(shots),
        gamma_total=engine.gamma_total,
        std_error=std_error,
        seed=int(seed),
        tallies=tuple(tuple(t.tolist()) for t in tallies),
    )


def _steps(cum: list[float]) -> list[float]:
    """The steps of a cumulative row, the first from 0.0: the subtractions
    np.diff(cum, prepend=0.0) makes, as Python floats."""
    return [b - a for a, b in zip([0.0, *cum], cum)]


def enumerate_estimator_mean(circuit: LayeredCircuit, cuts: CutSpec, f: PostProcess) -> float:
    """Zero-sampling-noise mean of the Monte-Carlo estimator: gamma * sign * f
    summed over every channel, outcome, prep and terminal outcome, each
    weighted by its step in the table run_monte_carlo draws it from, so an
    entry it never draws is skipped and builds no node.  Must agree with
    exact_expectation for any valid decomposition.
    """
    if not cuts.locations:
        return exact_expectation(circuit, f)
    engine = _CutEngine(circuit, cuts, f)
    # each level's paths, with the product of the signed probabilities along each
    paths, weights = [()], [1.0]
    for loc in engine.locations:
        chan_probs = _steps(loc.channel_cum.tolist())
        prep_probs = [[_steps(row) for row in rows] for rows in loc.prep_cum.tolist()]
        factors = loc.factors.tolist()
        requests, next_weights = [], []
        for path, weight in zip(paths, weights):
            for c, chan_prob in enumerate(chan_probs):
                if not chan_prob > 0:
                    continue
                for o, out_prob in enumerate(_steps(engine.outcomes(path, c)[0].tolist())):
                    if not out_prob > 0:
                        continue
                    w_out = weight * chan_prob * factors[c][o] * out_prob
                    for p, prep_prob in enumerate(prep_probs[c][o]):
                        if prep_prob > 0:
                            requests.append((path, c, o, p))
                            next_weights.append(w_out * prep_prob)
        paths, weights = engine.children(requests), next_weights
    # leaf by leaf, so no leaves x 2^W stack exists and no product's rounding
    # hangs on its row count; a plain loop, not sum(), which compensates in 3.12
    total = 0.0
    for path, weight in zip(paths, weights):
        row = engine._states[path]  # the leaf's cumulative terminal row
        probs = row.copy()
        probs[1:] -= row[:-1]
        total += weight * float(np.dot(probs, f.table))
    return engine.gamma_total * total


def demo_circuit(
    u12: np.ndarray | None = None, u23: np.ndarray | None = None
) -> LayeredCircuit:
    """The 3-qubit two-layer demo: u12 on qubits (1,2), then u23 on (2,3)."""
    u12 = dense.CX_2Q if u12 is None else np.asarray(u12, dtype=complex)
    u23 = dense.CX_2Q if u23 is None else np.asarray(u23, dtype=complex)
    return LayeredCircuit(3, (CircuitLayer(1, u12), CircuitLayer(2, u23)))


def demo_cut(decomposition: Decomposition) -> CutSpec:
    """Cut wire 2 of the demo circuit between its two layers."""
    if decomposition.n != 1:
        raise InvalidInputError("demo cut severs a single wire")
    return CutSpec((CutLocation(1, 2, decomposition),))


# ---------------------------------------------------------------------------
# JSON circuit / cut formats


def circuit_to_json(circuit: LayeredCircuit, f: PostProcess) -> dict:
    out = {
        "width": circuit.width,
        "layers": [
            {
                "qubits": list(range(l.first, l.first + l.span)),
                "matrix": _array_to_json(l.matrix),
            }
            for l in circuit.layers
        ],
        "f": f.name,
    }
    if f.name == "table":
        out["table"] = f.table.tolist()
    return out


def _range_field(obj, key: str, where: str) -> list[int]:
    """A non-empty list of contiguous ascending 1-based indices (qubits or wires)."""
    value = _list_field(obj, key, where)
    if (
        not value
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
        or value != list(range(value[0], value[0] + len(value)))
        or value[0] < 1
    ):
        raise InvalidInputError(
            f"field {where}{key} must be a non-empty list of contiguous ascending "
            "integers from 1"
        )
    return value


def circuit_from_json(data: dict) -> tuple[LayeredCircuit, PostProcess]:
    """Circuit and postprocess from the JSON circuit format, whose `f` is
    "parity" (the default), "bit:k" or "table", with a `table` of 2^width numbers.

    Malformed input raises InvalidInputError naming the field; the width is
    checked against MAX_SIM_QUBITS before anything of size 2^width exists.
    """
    width = _int_field(data, "width", "")
    if not 1 <= width <= MAX_SIM_QUBITS:
        raise InvalidInputError(f"field width must lie in [1, {MAX_SIM_QUBITS}], got {width}")
    layers = []
    for i, entry in enumerate(_list_field(data, "layers", "")):
        where = f"layers[{i}]."
        qubits = _range_field(entry, "qubits", where)
        if qubits[-1] > width:
            raise InvalidInputError(f"field {where}qubits must lie in [1, {width}]")
        dim = 2 ** len(qubits)
        matrix = _array_field(entry, "matrix", where, "c", (dim, dim))
        try:
            layers.append(CircuitLayer(qubits[0], matrix))
        except InvalidInputError as exc:
            raise InvalidInputError(f"field {where}matrix: {exc}") from None
    circuit = LayeredCircuit(width, tuple(layers))
    spec = data.get("f", "parity")
    bits = [f"bit:{k}" for k in range(1, width + 1)]
    if spec == "parity":
        return circuit, PostProcess.parity(width)
    if spec in bits:
        return circuit, PostProcess.bit(bits.index(spec) + 1, width)
    if spec != "table":
        raise InvalidInputError(
            f'field f must be "parity", "bit:k" with k in [1, {width}], or "table"'
        )
    table = _array_field(data, "table", "", "f", (2**width,))
    try:
        return circuit, PostProcess(width, table)
    except InvalidInputError as exc:
        raise InvalidInputError(f"field table: {exc}") from None


def load_circuit(path) -> tuple[LayeredCircuit, PostProcess]:
    return _load_json(path, circuit_from_json)


def cuts_from_json(
    data: dict, circuit: LayeredCircuit, builder: Callable[[int], Decomposition]
) -> CutSpec:
    """Attach decompositions (per wire-set width) to the JSON cut locations.

    Every location's wires and layer are checked against `circuit` before
    the builder is called for any of them; it is called once per distinct
    width, and the locations of one width share its decomposition.
    """
    parsed = []
    for i, entry in enumerate(_list_field(data, "locations", "")):
        where = f"locations[{i}]."
        wires = _range_field(entry, "wires", where)
        if wires[-1] > circuit.width:
            raise InvalidInputError(f"field {where}wires must lie in [1, {circuit.width}]")
        after_layer = _int_field(entry, "after_layer", where)
        if not 0 <= after_layer <= len(circuit.layers):
            raise InvalidInputError(
                f"field {where}after_layer must lie in [0, {len(circuit.layers)}]"
            )
        parsed.append((after_layer, wires[0], len(wires)))
    parsed.sort()
    built = {k: builder(k) for k in dict.fromkeys(k for _, _, k in parsed)}
    locations = [CutLocation(layer, first, built[k]) for layer, first, k in parsed]
    return CutSpec(tuple(locations))


def load_cuts(path, circuit: LayeredCircuit, builder: Callable[[int], Decomposition]) -> CutSpec:
    return _load_json(path, lambda data: cuts_from_json(data, circuit, builder))
