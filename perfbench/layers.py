"""The per-layer metrics: wirecut's modules, timed from outside.

``install`` rebinds each traced public function in the module namespace its
callers look it up in; the span name is the metric prefix.  Every ``_s``
metric except ``estimator.run_s`` is attributed self time (see spans.py), so
the layer times plus ``bench.unattributed_s`` add up to
``bench.traced_pass_s``.  Counts come from the arguments or results of the
traced calls and repeat exactly for one seed.

Which end-to-end number each layer should move, and where:
  families.*, synth.synthesize_s, synth.verify_symplectic_s,
  costs.gate_count_bench_s         wall_s on synth_scale
  pauli.*, channels.*              wall_s (and ptm_bytes: peak_mem_mb) on decompose
  synth.circuit_unitary_s          wall_s on decompose (small share)
  dense.*, estimator.*             wall_s on mc_deep and mc_wide;
                                   estimator.uniform_bytes: peak_mem_mb on mc_wide
"""

from __future__ import annotations

from collections import defaultdict

from wirecut import channels, costs, dense, estimator, families, synth

import spans as spanlib

# metric prefix -> ((module, attribute), ...) it is looked up through
TRACED = {
    "pauli.pauli_vector": ((channels, "pauli_vector"),),
    "families.partition": ((families, "generate_partition"), (costs, "generate_partition")),
    "families.validate": ((families, "validate_partition"),),
    "families.expand": ((families, "expand_family"),),
    "synth.synthesize": ((synth, "synthesize"), (costs, "synthesize")),
    "synth.verify_symplectic": (
        (synth, "verify_diagonalizes_symplectic"),
        (channels, "verify_diagonalizes_symplectic"),
    ),
    "synth.circuit_unitary": ((channels, "circuit_unitary"),),
    "channels.build": ((channels, "build_decomposition"),),
    "channels.ptm": ((channels, "ptm"),),
    "channels.verify": ((channels, "verify_decomposition"),),
    "dense.apply_block": ((dense, "apply_block"),),
    "dense.partial_inner": ((dense, "partial_inner"),),
    "dense.insert_block": ((dense, "insert_block"),),
    "estimator.run": ((estimator, "run_monte_carlo"),),
    "costs.gate_count_bench": ((costs, "gate_count_bench"),),
}

# what a span keeps from its call, read when the pass is summarized
COUNTS = {
    "families.expand": lambda args, members: len(members),
    "synth.synthesize": lambda args, circuit: circuit,
    # computed bytes of the 4^n x 4^n complex accumulator, per term
    "channels.ptm": lambda args, tm: len(args[0].terms) * 16 * 16 ** args[0].n,
    # shots and cut count, for the shots x (3L + 1) float64 uniform buffer
    "estimator.run": lambda args, report: (report.shots, len(args[1].locations)),
}

SELF_TIMES = {
    "pauli.pauli_vector_s": "pauli.pauli_vector",
    "families.partition_s": "families.partition",
    "families.validate_s": "families.validate",
    "families.expand_s": "families.expand",
    "synth.synthesize_s": "synth.synthesize",
    "synth.verify_symplectic_s": "synth.verify_symplectic",
    "synth.circuit_unitary_s": "synth.circuit_unitary",
    "channels.build_s": "channels.build",
    "channels.ptm_s": "channels.ptm",
    "channels.verify_s": "channels.verify",
    "dense.apply_block_s": "dense.apply_block",
    "dense.partial_inner_s": "dense.partial_inner",
    "dense.insert_block_s": "dense.insert_block",
    "estimator.self_s": "estimator.run",
    "costs.gate_count_bench_s": "costs.gate_count_bench",
}

CALLS = {
    "pauli.pauli_vector_calls": "pauli.pauli_vector",
    "synth.synthesize_calls": "synth.synthesize",
    "channels.ptm_calls": "channels.ptm",
    "dense.apply_block_calls": "dense.apply_block",
    "dense.partial_inner_calls": "dense.partial_inner",
    "dense.insert_block_calls": "dense.insert_block",
}

# metrics that must repeat exactly for one seed
EXACT = (
    *CALLS,
    "families.paulis",
    "synth.gates",
    "synth.max_depth",
    "channels.ptm_bytes",
    "estimator.nodes",
    "estimator.shots",
    "estimator.uniform_bytes",
)


def install(tracer: spanlib.Tracer) -> None:
    for name, sites in TRACED.items():
        for module, attr in sites:
            tracer.patch(module, attr, name, COUNTS.get(name))


def summarize(spans: list[spanlib.Span], pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``pass_s`` seconds."""
    self_time = spanlib.attribute(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out: dict[str, float] = {
        "bench.traced_pass_s": pass_s,
        "bench.unattributed_s": pass_s - sum(self_time.values()),
    }
    for metric, name in SELF_TIMES.items():
        out[metric] = sum(self_time[s] for s in by_name[name])
    for metric, name in CALLS.items():
        out[metric] = len(by_name[name])
    out["families.paulis"] = sum(s.count for s in by_name["families.expand"])
    # every circuit synthesize returned, gate_count_bench's unscheduled ones included
    stats = [synth.gate_stats(s.count) for s in by_name["synth.synthesize"]]
    out["synth.gates"] = sum(g.n_h + g.n_s + g.n_cz for g in stats)
    out["synth.max_depth"] = max((g.depth for g in stats), default=0)
    out["channels.ptm_bytes"] = sum(s.count for s in by_name["channels.ptm"])
    runs = by_name["estimator.run"]
    run_s = sum(s.end - s.start for s in runs)
    shots = sum(s.count[0] for s in runs)
    out["estimator.run_s"] = run_s
    out["estimator.nodes"] = len(by_name["dense.insert_block"])
    out["estimator.shots"] = shots
    out["estimator.shots_per_s"] = shots / run_s if run_s else 0.0
    out["estimator.uniform_bytes"] = sum(s.count[0] * (3 * s.count[1] + 1) * 8 for s in runs)
    return out


def dense_s(m: dict[str, float]) -> float:
    return m["dense.apply_block_s"] + m["dense.partial_inner_s"] + m["dense.insert_block_s"]


def time_model(own: dict[str, float], other: dict[str, float]) -> dict[str, float]:
    """The paper's T = T_C + T_Q fitted on two Monte-Carlo shapes, checked on ``own``.

    T_C = nodes * t_c charges the dense kernels to lattice nodes and
    T_Q = shots * t_q charges the estimator's self time to shots; t_c and t_q
    are least-squares fits through the origin over both passes.  The error is
    that of ``costs.predict_time`` against the measured ``estimator.run_s``.
    """
    passes = (own, other)

    def fit(work: str, seconds) -> float:
        return sum(p[work] * seconds(p) for p in passes) / sum(p[work] ** 2 for p in passes)

    t_c = fit("estimator.nodes", dense_s)
    t_q = fit("estimator.shots", lambda p: p["estimator.self_s"])
    predicted = costs.predict_time(
        costs.TimeModelParams(own["estimator.nodes"], own["estimator.shots"], t_c, t_q)
    )
    return {
        "estimator.t_c_ms": t_c * 1e3,
        "estimator.t_q_us": t_q * 1e6,
        "costs.time_model_err": abs(predicted - own["estimator.run_s"]) / own["estimator.run_s"],
    }


def unit(metric: str) -> str:
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("shots_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("_s"):
        return "s"
    if metric in ("bench.trace_overhead", "costs.time_model_err"):
        return "ratio"
    return "count"
