"""Print SHA-256 digests of every lattice the estimator builds for nine cut
cases, and the reprs of enumerate_estimator_mean and exact_expectation for
each; exit 1 when the two differ by more than TOLERANCE in any case.

Run it with the package importable (an editable install or
PYTHONPATH=<tree>/src):

    python tools/lattice_hashes.py

The tree is the one `wirecut` is imported from: its tests and demos are
read from there, not from beside this file.  So one copy, kept anywhere,
compares two trees:

    PYTHONPATH=<tree>/src python lattice_hashes.py

Each case's lattice is built in full, level by level, from every request
the lattice can reach.  One line per case gives the digest of its interior
nodes' states, of its outcome tables (cumulative row, amplitudes and
norms), of its leaves' stacked terminal rows, the enumerated mean and the
exact expectation.  The states digest skips the leaves, the paths of 3 x
(number of cut locations) entries: a tree that keeps only a leaf's
terminal row in its node store, and one that keeps its state beside the
row, then print the same line for the same lattice.  Two trees that print
the same digests build the same lattices bit for bit.  The digests depend
on the BLAS and LAPACK the numpy build links, so compare them on one
machine.  The tool uses only names that older trees have too.
"""

import hashlib
import sys
from pathlib import Path

import wirecut

ROOT = Path(wirecut.__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from tests.test_estimator import deep_three_cut_case, level_requests, wide_mub_case  # noqa: E402
from wirecut import estimator  # noqa: E402
from wirecut.channels import build_decomposition  # noqa: E402

DEMOS = ROOT / "demos"
TOLERANCE = 1e-10


def demo_case(circuit_file: str, cuts_file: str, method: str):
    circuit, f = estimator.load_circuit(DEMOS / circuit_file)
    cuts = estimator.load_cuts(
        DEMOS / cuts_file, circuit, lambda n: build_decomposition(method, n)
    )
    return circuit, cuts, f


def cases():
    yield "deep_three_cut", deep_three_cut_case()
    yield "wide_mub", wide_mub_case()
    for method in ("mub", "peng", "optimal1q", "randomized", "teleport"):
        yield f"demo_cut:{method}", demo_case("demo_circuit.json", "demo_cut.json", method)
    for method in ("mub", "teleport"):
        yield f"ghz_2wire:{method}", demo_case("demo_ghz.json", "demo_cut_2wire.json", method)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def main() -> int:
    status = 0
    for name, case in cases():
        engine = estimator._CutEngine(*case)
        paths = [()]
        for depth in range(len(engine.locations)):
            paths = engine.children(level_requests(engine, paths, depth))
        leaf = 3 * len(engine.locations)
        interior = sorted(path for path in engine._states if len(path) < leaf)
        states = digest(engine._states[path] for path in interior)
        outcomes = digest(
            table for key in sorted(engine._outcomes) for table in engine._outcomes[key]
        )
        terminal = digest([engine.terminal_cums(paths)])
        mean = estimator.enumerate_estimator_mean(*case)
        exact = estimator.exact_expectation(case[0], case[2])
        print(
            f"{name} states={states} outcomes={outcomes} terminal={terminal} "
            f"mean={mean!r} exact={exact!r}"
        )
        gap = abs(mean - exact)
        if not gap <= TOLERANCE:
            print(f"{name}: |mean - exact| = {gap:.3g} > {TOLERANCE}", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
