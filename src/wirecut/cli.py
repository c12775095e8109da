"""Command-line front end.

Subcommands cover every experiment: family generation, circuit synthesis,
decomposition verification, exact and Monte-Carlo evaluation of cut
circuits, and the cost benchmarks.  Everything is deterministic under
fixed flags; --seed only affects Monte-Carlo sampling.

Exit codes: 0 success, 1 verification mismatch, 2 usage or resource errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import astuple
from pathlib import Path

from .channels import (
    BUILDERS,
    PTM_TOL,
    build_decomposition,
    load_decomposition,
    verify_decomposition,
)
from .costs import (
    TimeModelParams,
    _CLOSED_FORMS,
    gate_count_bench,
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


def _csv(header: list[str], rows) -> str:
    """CSV text of a header line and one line per dataclass row, fields in order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(map(astuple, rows))
    return buf.getvalue()


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
        if not verify_diagonalizes_symplectic(circ, fam):
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
    """Residual of a built or saved decomposition; a built one is also held
    to its closed-form (gamma, m), a saved one only to its residual."""
    from_file = args.method.startswith("file:")
    if from_file:
        d, residual = _load_verified(args.method[5:])
    else:
        d = _decomposition_builder(args.method)(args.n)
        residual = verify_decomposition(d)
    gamma, m = d.gamma, d.m
    print(f"method={args.method} n={d.n} gamma={float(gamma)!r} m={m} residual={residual!r}")
    if from_file:
        return EXIT_OK if residual < PTM_TOL else EXIT_MISMATCH
    want_gamma, want_m = _CLOSED_FORMS[args.method](args.n)
    if args.method == "randomized":
        want_m = 25  # the default ensemble: 24 Cliffords + 1, above the 2-design bound
    if residual < PTM_TOL and gamma == want_gamma and m == want_m:
        return EXIT_OK
    print("verification mismatch against closed forms", file=sys.stderr)
    return EXIT_MISMATCH


def _load_verified(path: str):
    """The decomposition saved at `path` and its residual against the
    identity, which goes to stderr, naming the file, when not below PTM_TOL."""
    d = load_decomposition(path)
    residual = verify_decomposition(d)
    if not residual < PTM_TOL:
        print(f"verification mismatch: {path}: the channels do not sum to the "
              f"identity (residual={residual!r})", file=sys.stderr)
    return d, residual


def _decomposition_builder(method: str):
    """Builder from a method name, or from an exported JSON decomposition
    via the `file:PATH` form; None, with the residual on stderr, when the
    file's channels do not sum to the identity.  A method name is checked
    here, before any file is read, so the error names the flag and not a file."""
    if method.startswith("file:"):
        d, residual = _load_verified(method[5:])
        if not residual < PTM_TOL:
            return None

        def from_file(n: int):
            if d.n != n:
                raise InvalidInputError(
                    f"decomposition width {d.n} does not match the cut width {n}"
                )
            return d

        return from_file
    if method not in BUILDERS:
        raise InvalidInputError(
            f"--method: unknown method {method!r}; choose from {sorted(BUILDERS)} or file:PATH"
        )
    return lambda n: build_decomposition(method, n)


def cmd_estimate(args) -> int:
    builder = _decomposition_builder(args.method)
    if builder is None:
        return EXIT_MISMATCH
    circuit, f = load_circuit(args.circuit)
    cuts = load_cuts(args.cuts, circuit, builder)
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
        header = ["method", "n", "gamma_sq", "m", "m_bound"]
        _write_text(_csv(header, overhead_table(args.nmax)), args.out)
    elif args.bench == "gatecount":
        header = ["n", "NS_max", "NCZ_max", "Nall_max", "bound_CZ", "bound_all"]
        _write_text(_csv(header, gate_count_bench(args.nmax)), args.out)
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
        help="peng | optimal1q | mub | randomized | teleport | file:PATH "
        "(an exported decomposition JSON: its residual only)",
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
    except (WirecutError, OSError, MemoryError) as exc:
        reason = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error: {reason}{exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
