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
count.  Within a chunk, each cut level regroups its shots by one sort on
the packed key (lattice node, channel): one pass per group draws outcomes
and preps from that node's cached distributions and maps each distinct
(outcome, prep) to its child node.  A last grouping by leaf node draws the
terminal outcomes.  A shot's value depends only on its own
uniforms, so results are reproducible and independent of the chunk size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import dense
from .channels import (
    Decomposition,
    _field,
    _int_field,
    _list_field,
    _load_json,
    _matrix_field,
    _matrix_to_json,
)
from .errors import InvalidInputError, NumericFailureError, ResourceLimitError

MAX_SIM_QUBITS = 12
MAX_TRAJECTORY_NODES = 1 << 18
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
        if np.max(np.abs(table)) > 1.0 + 1e-12:
            raise InvalidInputError("postprocess values must lie in [-1, 1]")
        self.width = width
        self.table = table
        self.name = name

    @classmethod
    def parity(cls, width: int) -> "PostProcess":
        return cls(width, np.where(dense.parity(np.arange(2**width)), -1.0, 1.0), "parity")

    @classmethod
    def bit(cls, k: int, width: int) -> "PostProcess":
        if not 1 <= k <= width:
            raise InvalidInputError("bit index out of range")
        idx = np.arange(2**width)
        return cls(width, ((idx >> (width - k)) & 1).astype(float), f"bit:{k}")

    @classmethod
    def from_spec(cls, spec: str | Sequence[float], width: int) -> "PostProcess":
        if isinstance(spec, str):
            if spec == "parity":
                return cls.parity(width)
            if spec.startswith("bit:"):
                try:
                    k = int(spec[4:])
                except ValueError:
                    raise InvalidInputError(f"bit index in {spec!r} is not an integer") from None
                return cls.bit(k, width)
            raise InvalidInputError(f"unknown postprocess {spec!r}")
        return cls(width, np.asarray(spec, dtype=float))


@dataclass(frozen=True)
class EstimateReport:
    estimate: float
    shots: int
    gamma_total: float
    std_error: float
    seed: int
    tallies: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "estimate": self.estimate,
            "shots": self.shots,
            "gamma_total": self.gamma_total,
            "std_error": self.std_error,
            "seed": self.seed,
            "tallies": [list(t) for t in self.tallies],
        }


def _initial_state(width: int) -> np.ndarray:
    return dense.basis_state(0, 2**width)


def _apply_layers(state: np.ndarray, circuit: LayeredCircuit, lo: int, hi: int) -> np.ndarray:
    for layer in circuit.layers[lo:hi]:
        state = dense.apply_block(state, layer.matrix, layer.first, layer.span, circuit.width)
    return state


def exact_expectation(circuit: LayeredCircuit, f: PostProcess) -> float:
    """Full statevector expectation of f over the terminal distribution."""
    if circuit.width > MAX_SIM_QUBITS:
        raise ResourceLimitError(f"simulation capped at {MAX_SIM_QUBITS} qubits")
    if f.width != circuit.width:
        raise InvalidInputError("postprocess width mismatch")
    state = _apply_layers(_initial_state(circuit.width), circuit, 0, len(circuit.layers))
    return float(np.sum(np.abs(state) ** 2 * f.table))


def _prep_cums(probs: np.ndarray) -> np.ndarray:
    """Cumulative prep weights per outcome row, 1.0 from its last positive
    weight on, so a uniform in [0, 1) counts no entry past it and a
    zero-weight state is never drawn."""
    cums = np.cumsum(probs, axis=1)
    last = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    cums[np.arange(probs.shape[1]) >= last[:, None]] = 1.0
    return cums


class _RealizedLocation:
    """Sampling tables for one cut location, state-independent parts: the
    channel table, and per channel its MPChannel and cumulative prep table."""

    def __init__(self, loc: CutLocation, width: int):
        d = loc.decomposition
        self.first = loc.first_wire
        self.span = d.n
        if loc.first_wire < 1 or loc.first_wire + d.n - 1 > width:
            raise InvalidInputError("cut wires lie outside the circuit")
        self.channel_cum = np.cumsum(d.probabilities)
        self.channel_cum[-1] = 1.0
        self.signs = [1 if float(c) >= 0 else -1 for c, _ in d.channels]
        self.channels = [ch for _, ch in d.channels]
        self.prep_cums = [_prep_cums(ch.prep_probs) for ch in self.channels]


class _CutEngine:
    """Trajectory lattice shared by the Monte-Carlo sampler and the exact
    enumeration: nodes are distinct intermediate states, memoized by path."""

    def __init__(self, circuit: LayeredCircuit, cuts: CutSpec, f: PostProcess):
        if circuit.width > MAX_SIM_QUBITS:
            raise ResourceLimitError(f"simulation capped at {MAX_SIM_QUBITS} qubits")
        if f.width != circuit.width:
            raise InvalidInputError("postprocess width mismatch")
        for loc in cuts.locations:
            if not 0 <= loc.after_layer <= len(circuit.layers):
                raise InvalidInputError("cut layer index out of range")
        self.circuit = circuit
        self.f = f
        self.locations = [_RealizedLocation(loc, circuit.width) for loc in cuts.locations]
        self.boundaries = [loc.after_layer for loc in cuts.locations]
        self.gamma_total = cuts.gamma_total
        root = _apply_layers(
            _initial_state(circuit.width),
            circuit,
            0,
            self.boundaries[0] if self.boundaries else len(circuit.layers),
        )
        self._states: dict[tuple, np.ndarray] = {(): root}
        self._outcomes: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._final: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _guard(self) -> None:
        if len(self._states) > MAX_TRAJECTORY_NODES:
            raise ResourceLimitError("trajectory lattice exceeded the node cap")

    def outcomes(self, path: tuple, chan: int) -> tuple[np.ndarray, np.ndarray]:
        """(cumulative probabilities, amplitudes) of channel `chan`'s outcomes
        at node `path`.  Amplitude row o is the node's state with outcome o's
        effect vector applied to the cut wires: the unnormalized state of the
        other wires."""
        key = path + (chan,)
        cached = self._outcomes.get(key)
        if cached is not None:
            return cached
        loc = self.locations[len(path) // 3]
        amps = dense.partial_inner(
            self._states[path], loc.channels[chan].effects, loc.first, loc.span, self.circuit.width
        )
        probs = np.sum(np.abs(amps.reshape(len(amps), -1)) ** 2, axis=1)
        total = probs.sum()
        if not np.isfinite(total) or total <= 0:
            raise NumericFailureError("outcome probabilities degenerate")
        cum = np.cumsum(probs / total)
        # the table reaches 1 at the last outcome child() can condition on, so
        # rounding leaves no mass on the impossible outcomes after it
        last = len(amps) - 1
        while last > 0 and np.linalg.norm(amps[last]) < MIN_RESIDUAL_NORM:
            last -= 1
        cum[last:] = 1.0
        self._outcomes[key] = (cum, amps)
        return cum, amps

    def child(self, path: tuple, chan: int, outcome: int, prep: int) -> tuple:
        """Path key of the node reached by (channel, outcome, prep) at `path`."""
        new_path = path + (chan, outcome, prep)
        if new_path in self._states:
            return new_path
        self._guard()
        depth = len(path) // 3
        loc = self.locations[depth]
        amp = self.outcomes(path, chan)[1][outcome]
        norm = np.linalg.norm(amp)
        if norm < MIN_RESIDUAL_NORM:
            raise NumericFailureError("conditioned on a zero-probability outcome")
        chi = loc.channels[chan].preps[outcome, prep]
        state = dense.insert_block(amp / norm, chi, loc.first, loc.span, self.circuit.width)
        lo = self.boundaries[depth]
        hi = self.boundaries[depth + 1] if depth + 1 < len(self.boundaries) else len(self.circuit.layers)
        state = _apply_layers(state, self.circuit, lo, hi)
        self._states[new_path] = state
        return new_path

    def final_dist(self, path: tuple) -> tuple[np.ndarray, np.ndarray]:
        """(cumulative, plain) terminal outcome distribution at a leaf node."""
        cached = self._final.get(path)
        if cached is not None:
            return cached
        probs = np.abs(self._states[path]) ** 2
        probs = probs / probs.sum()
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        out = (cum, probs)
        self._final[path] = out
        return out


def _groups(keys: np.ndarray):
    """(key, rows) per distinct key, ascending, from one sort of `keys`.

    The order of rows within a group is arbitrary: a shot's result depends
    only on its own uniforms, and the unstable sort is the fast one.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))
    ends = np.append(starts[1:], len(keys))
    for key, lo, hi in zip(ordered[starts].tolist(), starts.tolist(), ends.tolist()):
        yield key, order[lo:hi]


def _sample_chunk(
    engine: _CutEngine, u: np.ndarray, tallies: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Signs and terminal outcomes of the shots whose uniform rows are `u`.

    Adds each location's channel counts to `tallies`.  Node ids index this
    chunk's per-level path list, so the packed (node, channel) key stays
    below chunk size x channel count.
    """
    k = len(u)
    nodes = np.zeros(k, dtype=np.int64)
    paths: list[tuple] = [()]
    signs = np.ones(k)
    # Every cumulative table ends at exactly 1.0 and the uniforms are < 1, so
    # searchsorted(side="right") never returns the table length.
    for l_idx, loc in enumerate(engine.locations):
        u_out, u_prep = u[:, 3 * l_idx + 1], u[:, 3 * l_idx + 2]
        m = len(loc.signs)
        chan = np.searchsorted(loc.channel_cum, u[:, 3 * l_idx], side="right")
        tallies[l_idx] += np.bincount(chan, minlength=m)
        factors = np.empty(k)
        children = np.empty(k, dtype=np.int64)
        child_paths: list[tuple] = []
        for key, rows in _groups(nodes * m + chan):
            path, c = paths[key // m], key % m
            cum, _ = engine.outcomes(path, c)
            out = np.searchsorted(cum, u_out[rows], side="right")
            # each shot counts its outcome's table entries <= u, which is what
            # searchsorted(side="right") returns; the 1.0 tail never counts
            cums = loc.prep_cums[c]
            prep = (u_prep[rows, None] >= cums[out]).sum(axis=1)
            factors[rows] = loc.signs[c] * loc.channels[c].signs[out]
            # (outcome, prep) packs into an index of this channel's prep table,
            # so counting the packed values numbers the distinct pairs in order
            width = cums.shape[1]
            packed = out * width + prep
            present = np.bincount(packed, minlength=cums.size) > 0
            children[rows] = len(child_paths) + (np.cumsum(present) - 1)[packed]
            for pair in np.flatnonzero(present).tolist():
                child_paths.append(engine.child(path, c, *divmod(pair, width)))
        signs *= factors
        nodes, paths = children, child_paths
    y = np.empty(k, dtype=np.int64)
    for node, rows in _groups(nodes):
        cum, _ = engine.final_dist(paths[node])
        y[rows] = np.searchsorted(cum, u[rows, -1], side="right")
    return signs, y


def run_monte_carlo(
    circuit: LayeredCircuit,
    cuts: CutSpec,
    f: PostProcess,
    shots: int,
    seed: int = 0,
) -> EstimateReport:
    """Unbiased quasiprobability estimate of the uncut expectation of f."""
    if shots < 1:
        raise InvalidInputError("need at least one shot")
    if shots > MAX_SHOTS:
        raise ResourceLimitError(f"shots capped at {MAX_SHOTS}, got {shots}")
    if not cuts.locations:
        raise InvalidInputError("no cut locations; use exact_expectation instead")
    # Philox keys are 128-bit unsigned integers
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**128:
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
    std_error = float(values.std(ddof=1) / np.sqrt(shots)) if shots > 1 else float("inf")
    return EstimateReport(
        estimate=estimate,
        shots=shots,
        gamma_total=engine.gamma_total,
        std_error=std_error,
        seed=seed,
        tallies=tuple(tuple(t.tolist()) for t in tallies),
    )


def enumerate_estimator_mean(circuit: LayeredCircuit, cuts: CutSpec, f: PostProcess) -> float:
    """Zero-sampling-noise mean of the Monte-Carlo estimator.

    Sums sgn(c) * a * f over every channel, outcome, preparation and
    terminal outcome with their exact probabilities; must agree with
    exact_expectation for any valid decomposition.
    """
    if not cuts.locations:
        return exact_expectation(circuit, f)
    engine = _CutEngine(circuit, cuts, f)

    def walk(path: tuple, depth: int) -> float:
        if depth == len(engine.locations):
            _, probs = engine.final_dist(path)
            return float(np.dot(probs, f.table))
        loc = engine.locations[depth]
        chan_probs = np.diff(loc.channel_cum, prepend=0.0)
        total = 0.0
        for c, ch in enumerate(loc.channels):
            cum, amps = engine.outcomes(path, c)
            out_probs = np.diff(cum, prepend=0.0)
            for o, amp in enumerate(amps):
                # rounding in the cumulative table can leave a sliver of mass on
                # an outcome whose conditioned state is zero; it contributes nothing
                if out_probs[o] <= 0 or np.linalg.norm(amp) < MIN_RESIDUAL_NORM:
                    continue
                for p in np.flatnonzero(ch.prep_probs[o]).tolist():
                    child = engine.child(path, c, o, p)
                    total += (
                        chan_probs[c]
                        * loc.signs[c]
                        * ch.signs[o]
                        * out_probs[o]
                        * ch.prep_probs[o, p]
                        * walk(child, depth + 1)
                    )
        return total

    return engine.gamma_total * walk((), 0)


def variance_probe(
    circuit: LayeredCircuit,
    cuts: CutSpec,
    f: PostProcess,
    trials: int,
    shots: int,
    seed0: int = 0,
) -> float:
    """Sample variance of the estimate across independent-seed trials."""
    estimates = [
        run_monte_carlo(circuit, cuts, f, shots, seed=seed0 + t).estimate
        for t in range(trials)
    ]
    return float(np.var(estimates, ddof=1))


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
                "matrix": _matrix_to_json(l.matrix),
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
    """Circuit and postprocess from the JSON circuit format.

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
        matrix = _matrix_field(entry, "matrix", where, 2 ** len(qubits))
        layers.append(CircuitLayer(qubits[0], matrix))
    circuit = LayeredCircuit(width, tuple(layers))
    spec = data.get("f", "parity")
    if spec == "table":
        spec, key = _field(data, "table", ""), "table"
    else:
        key = "f"
    try:
        f = PostProcess.from_spec(spec, width)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"field {key}: {exc}") from None
    return circuit, f


def load_circuit(path) -> tuple[LayeredCircuit, PostProcess]:
    return _load_json(path, circuit_from_json)


def save_circuit(circuit: LayeredCircuit, f: PostProcess, path) -> None:
    with open(path, "w") as fh:
        json.dump(circuit_to_json(circuit, f), fh)


def cuts_from_json(data: dict, builder: Callable[[int], Decomposition]) -> CutSpec:
    """Attach decompositions (per wire-set width) to the JSON cut locations."""
    locations = []
    for i, entry in enumerate(_list_field(data, "locations", "")):
        where = f"locations[{i}]."
        wires = _range_field(entry, "wires", where)
        after_layer = _int_field(entry, "after_layer", where)
        locations.append(CutLocation(after_layer, wires[0], builder(len(wires))))
    locations.sort(key=lambda loc: (loc.after_layer, loc.first_wire))
    return CutSpec(tuple(locations))


def load_cuts(path, builder: Callable[[int], Decomposition]) -> CutSpec:
    return _load_json(path, lambda data: cuts_from_json(data, builder))
