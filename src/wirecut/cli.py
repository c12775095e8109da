"""Command-line front end.

Subcommands cover every experiment: family generation, circuit synthesis,
decomposition verification, exact and Monte-Carlo evaluation of cut
circuits, and the cost benchmarks.  Everything is deterministic under
fixed flags; --seed only affects Monte-Carlo sampling.

Exit codes: 0 success, 1 verification mismatch, 2 usage or resource errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .channels import (
    build_decomposition,
    load_decomposition,
    verify_decomposition,
)
from .costs import (
    TimeModelParams,
    _CLOSED_FORMS,
    gate_count_bench,
    gatecount_csv,
    overhead_csv,
    overhead_table,
    predict_time,
)
from .errors import InvalidInputError, WirecutError
from .estimator import load_circuit, load_cuts, exact_expectation, run_monte_carlo
from .families import generate_partition, validate_partition
from .synth import gate_stats, synthesize, verify_diagonalizes_symplectic

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_families(args) -> int:
    part = generate_partition(args.n)
    validate_partition(part)
    data = {
        "n": part.n,
        "families": [
            {
                "generators": [g.label for g in fam.generators],
                "members": fam.member_labels(),
            }
            for fam in part.families
        ],
    }
    _write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    part = generate_partition(args.n)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["index,file,NH,NS,NCZ,depth"]
    for idx, fam in enumerate(part.families[:-1], start=1):
        circ = synthesize(fam)
        if not verify_diagonalizes_symplectic(circ, fam) or circ.depth > args.n + 2:
            print(f"verification failed for circuit {idx}", file=sys.stderr)
            return EXIT_MISMATCH
        name = f"U{idx:03d}.txt"
        (out_dir / name).write_text(circ.text())
        s = gate_stats(circ)
        lines.append(f"{idx},{name},{s.n_h},{s.n_s},{s.n_cz},{s.depth}")
    (out_dir / "stats.csv").write_text("\n".join(lines) + "\n")
    print(f"wrote {2**args.n} circuits to {out_dir}")
    return EXIT_OK


def cmd_verify(args) -> int:
    d = build_decomposition(args.method, args.n)
    residual = verify_decomposition(d)
    gamma, m = d.gamma, d.m
    print(f"method={args.method} n={args.n} gamma={float(gamma)!r} m={m} residual={residual!r}")
    want_gamma, want_m = _CLOSED_FORMS[args.method](args.n)
    if args.method == "randomized":
        want_m = 25  # the default ensemble: 24 Cliffords + 1, above the 2-design bound
    if residual < 1e-10 and gamma == want_gamma and m == want_m:
        return EXIT_OK
    print("verification mismatch against closed forms", file=sys.stderr)
    return EXIT_MISMATCH


def _decomposition_builder(method: str):
    """Builder from a method name, or from an exported JSON decomposition
    via the `file:PATH` form."""
    if method.startswith("file:"):
        d = load_decomposition(method[5:])

        def from_file(n: int):
            if d.n != n:
                raise InvalidInputError(
                    f"decomposition width {d.n} does not match the cut width {n}"
                )
            return d

        return from_file
    return lambda n: build_decomposition(method, n)


def cmd_estimate(args) -> int:
    circuit, f = load_circuit(args.circuit)
    cuts = load_cuts(args.cuts, _decomposition_builder(args.method))
    report = run_monte_carlo(circuit, cuts, f, args.shots, seed=args.seed)
    text = json.dumps(report.to_json(), sort_keys=True) + "\n"
    _write_text(text, args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    circuit, f = load_circuit(args.circuit)
    value = exact_expectation(circuit, f)
    print(f"{value:.12f}")
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.bench == "overhead":
        _write_text(overhead_csv(overhead_table(args.nmax)), args.out)
    elif args.bench == "gatecount":
        rows = gate_count_bench(args.nmax, optimize_depth=args.optimize_depth)
        _write_text(gatecount_csv(rows), args.out)
    else:  # timemodel
        params = TimeModelParams(args.m, args.shots, args.tc, args.tq)
        print(repr(predict_time(params)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wirecut", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("families", help="generate and validate a family partition")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_families)

    p = sub.add_parser("synth", help="synthesize all basis-change circuits")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("verify", help="verify a decomposition against closed forms")
    p.add_argument(
        "--method",
        required=True,
        choices=["peng", "optimal1q", "mub", "randomized", "teleport"],
    )
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("estimate", help="Monte-Carlo estimate of a cut circuit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--cuts", required=True)
    p.add_argument(
        "--method",
        default="optimal1q",
        help="peng | optimal1q | mub | randomized | teleport | file:PATH "
        "(an exported decomposition JSON)",
    )
    p.add_argument("--shots", "--N", dest="shots", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("exact", help="exact expectation of an uncut circuit")
    p.add_argument("--circuit", required=True)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("bench", help="cost-model benchmarks")
    bench_sub = p.add_subparsers(dest="bench", required=True)
    b = bench_sub.add_parser("overhead")
    b.add_argument("--nmax", type=int, required=True)
    b.add_argument("--out", default=None)
    b = bench_sub.add_parser("gatecount")
    b.add_argument("--nmax", type=int, required=True)
    b.add_argument("--out", default=None)
    b.add_argument("--optimize-depth", action="store_true")
    b = bench_sub.add_parser("timemodel")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--tc", type=float, required=True)
    b.add_argument("--tq", type=float, required=True)
    b.add_argument("--shots", "--N", dest="shots", type=int, required=True)
    p.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except WirecutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
