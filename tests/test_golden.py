"""Golden-fixture tests: shipped generator tables and circuits for n = 1..4.

The fixtures pin one published choice of families and basis-change circuits.
Gate sequences are only asserted exactly where the construction forces them
(n <= 2); elsewhere the contract is that the golden circuit diagonalizes its
family and respects the gate-count and depth bounds.
"""

import hashlib
import json
from importlib import resources

import pytest

from wirecut.costs import gate_count_bench
from wirecut.families import CommutingFamily, expand_family, generate_partition
from wirecut.pauli import PauliString
from wirecut.synth import CliffordCircuit, gate_stats, synthesize

from oracles import diagonalizes_dense


def load_families(n):
    ref = resources.files("wirecut").joinpath(f"golden/families_n{n}.json")
    return json.loads(ref.read_text())


def load_circuit(n, idx):
    ref = resources.files("wirecut").joinpath(f"golden/circuit_n{n}_U{idx:02d}.txt")
    return CliffordCircuit.parse(ref.read_text(), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
class TestGoldenFixtures:
    def test_families_load_and_expand(self, n):
        data = load_families(n)
        assert data["n"] == n
        assert len(data["families"]) == 2**n
        seen = set()
        for entry in data["families"]:
            gens = [PauliString.from_label(g) for g in entry["generators"]]
            members = expand_family(gens)
            assert {p.label for p in members} == set(entry["members"])
            assert len(members) == 2**n - 1
            assert not seen & members
            seen |= members
        # the listed families are exactly the non-Z part of a full partition
        assert len(seen) == 2**n * (2**n - 1)
        assert all(p.xbits != 0 for p in seen)

    def test_circuits_diagonalize_their_families(self, n):
        data = load_families(n)
        for idx, entry in enumerate(data["families"], start=1):
            gens = tuple(PauliString.from_label(g) for g in entry["generators"])
            fam = CommutingFamily(n, gens)
            circ = load_circuit(n, idx)
            assert diagonalizes_dense(circ, fam)
            stats = gate_stats(circ)
            assert stats.n_h == n
            assert stats.n_s <= n
            assert stats.n_cz <= n * (n - 1) // 2
            assert circ.depth <= n + 2

    def test_gate_sets_match_synthesizer(self, n):
        data = load_families(n)
        for idx, entry in enumerate(data["families"], start=1):
            gens = tuple(PauliString.from_label(g) for g in entry["generators"])
            circ = load_circuit(n, idx)
            synth = synthesize(CommutingFamily(n, gens))
            assert sorted(g.text() for g in circ.gates) == sorted(
                g.text() for g in synth.gates
            )


@pytest.mark.parametrize(
    "n,idx,expected",
    [
        (1, 1, ["H 1"]),
        (1, 2, ["H 1", "SDG 1"]),
        (2, 1, ["H 1", "H 2"]),
        (2, 2, ["H 1", "H 2", "SDG 1", "CZ 1 2"]),
        (2, 3, ["H 1", "H 2", "SDG 2", "CZ 1 2"]),
        (2, 4, ["H 1", "H 2", "SDG 1", "SDG 2"]),
    ],
)
def test_exact_sequences_forced_for_small_n(n, idx, expected):
    data = load_families(n)
    gens = tuple(
        PauliString.from_label(g) for g in data["families"][idx - 1]["generators"]
    )
    synth = synthesize(CommutingFamily(n, gens))
    assert [g.text() for g in synth.gates] == expected
    assert [g.text() for g in load_circuit(n, idx).gates] == expected


def test_known_gate_counts_from_table():
    # the 3rd circuit at n = 4 carries 4 H, 2 S-dagger and 5 CZ gates
    stats = gate_stats(load_circuit(4, 3))
    assert (stats.n_h, stats.n_s, stats.n_cz) == (4, 2, 5)


def test_generated_partition_covers_same_strings_as_fixture():
    for n in (1, 2):
        data = load_families(n)
        fixture_strings = {m for e in data["families"] for m in e["members"]}
        part = generate_partition(n)
        ours = {label for f in part.families[:-1] for label in f.member_labels()}
        assert ours == fixture_strings


# sha256 of the generator table (one family per line, labels space-separated)
# of generate_partition(n) for n = 1..12, and of repr(gate_count_bench(11)).
# Recorded before the trace-sequence families, pivot-indexed elimination and
# generator-wise verifier were introduced; those rewrites keep every byte.
PARTITION_SHA256 = {
    1: "87f426396960f8e8e09a8a7a9a2f238b20f7abae8adb9ba09a33c6198c8d3699",
    2: "4902d53f6faf9b5b24174bb3d214ecd903c232730fea3e7c25631ad927834eeb",
    3: "7797ad670d43c1a6a22587032eff379a2e2e3abad99b280c2539644960436a43",
    4: "186f717a50d3bb395d9e6e802601d9e03a43c0eeb9460807c85bbe587223b7ee",
    5: "fbf9a49c0b6a922b95854aced54dde69cb2fe22953d4d32620e7e9942ffffd9e",
    6: "2ab58390b30364e915b4e1d085da2991326b1744697161d8be5faa72d72d6e60",
    7: "ea19e7c0b51395f0a9c7417b6a96c31176f9dd9ce25b493f7be707993dffa6f2",
    8: "b916aeefe5a2fa40b243d46027cc4108236889f4a854495f29ab5e645d9299df",
    9: "3584b903c0f31c304bf1abb70a01cd401c06e2ba507cf2f905e68021ec21c084",
    10: "37bf3050c1ea85131705a6b6b97f0c48fb01d89dc8edcf3462deb0045d308c5a",
    11: "34567eec98007ed5e252aaabedc475775a59a15d180f8b114ed9ec841112887e",
    12: "ecc62df263397f16c59d4cf909a54ac1f3bc232c45c9be9c1deac0b093c971cc",
}
GATE_COUNT_11_SHA256 = "8d2704109b2cadc103eae26c7b3761075234756d352f669f3023644408a96bd1"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n", range(1, 13))
def test_partition_generators_pinned(n):
    part = generate_partition(n)
    table = "\n".join(" ".join(g.label for g in fam.generators) for fam in part.families)
    assert _sha256(table) == PARTITION_SHA256[n]


def test_gate_count_rows_pinned():
    assert _sha256(repr(gate_count_bench(11))) == GATE_COUNT_11_SHA256


# sha256, over n = 1..10 in partition order, of every synthesized circuit's
# text() and of every family's member_keys() as little-endian uint32.
# Recorded before the packed-integer GF(2) kernels, which keep every byte.
CIRCUIT_TEXTS_SHA256 = "b114a3125f4660b631c887138a6255020ca15952b9dcd8f3c4d892b0e217478f"
MEMBER_KEYS_SHA256 = "86ce2e745dedf130616c829f34333d2f6b5295b851128066188d69af971a7143"
# and of every synthesized circuit's gate count per layer, comma-separated,
# one line per circuit: the text alone does not fix the depth.  Recorded
# before CliffordCircuit packed its layers in its constructor.
LAYER_COUNTS_SHA256 = "fd0a2717c3085ac6961e775aeb3eb8192653787170f54b0064910fa511d2c0b0"


def test_circuit_texts_and_member_keys_pinned_to_n10():
    texts, keys, counts = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for n in range(1, 11):
        part = generate_partition(n)
        for fam in part.families:
            keys.update(fam.member_keys().astype("<u4").tobytes())
        for fam in part.families[:-1]:
            circ = synthesize(fam)
            texts.update(circ.text().encode())
            counts.update((",".join(str(len(layer)) for layer in circ.layers) + "\n").encode())
    assert texts.hexdigest() == CIRCUIT_TEXTS_SHA256
    assert keys.hexdigest() == MEMBER_KEYS_SHA256
    assert counts.hexdigest() == LAYER_COUNTS_SHA256


# sha256 over n = 1..N of each width's generator table, one family per line,
# then of each synthesized circuit's depth and text(): integers and text only,
# so the same on every platform.  Recorded before synthesize read its CZ
# pairs off the rows of C; CI checks the N = 12 value, 765e7461...fe6.
PIPELINE_N10_SHA256 = "333d06db7af12448d02f3ecbd2e19eb5500f61cc602d0a1925ddf6d8585cd44b"


def test_pipeline_digest_pinned_to_n10():
    digest = hashlib.sha256()
    for n in range(1, 11):
        fams = generate_partition(n).families
        for fam in fams:
            digest.update((" ".join(g.label for g in fam.generators) + "\n").encode())
        for fam in fams[:-1]:
            circ = synthesize(fam)
            digest.update(f"{circ.depth}\n{circ.text()}".encode())
    assert digest.hexdigest() == PIPELINE_N10_SHA256
