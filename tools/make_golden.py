"""One-shot generator for the golden fixture files (run from the repo root)."""

import json
from pathlib import Path

from wirecut.families import CommutingFamily, expand_family
from wirecut.pauli import PauliString
from wirecut.synth import CliffordCircuit, synthesize, verify_diagonalizes_symplectic

# (generators, gate lines after the H layer on every qubit) per circuit,
# transcribed from the reference tables
TABLES = {
    1: [
        (["X"], []),
        (["Y"], ["SDG 1"]),
    ],
    2: [
        (["XI", "IX"], []),
        (["YZ", "ZX"], ["SDG 1", "CZ 1 2"]),
        (["XZ", "ZY"], ["SDG 2", "CZ 1 2"]),
        (["YI", "IY"], ["SDG 1", "SDG 2"]),
    ],
    3: [
        (["YZI", "ZXZ", "IZX"], ["SDG 1", "CZ 2 3", "CZ 1 2"]),
        (["XIZ", "IYZ", "ZZX"], ["SDG 2", "CZ 1 3", "CZ 2 3"]),
        (["YZZ", "ZYI", "ZIX"], ["SDG 1", "SDG 2", "CZ 1 2", "CZ 1 3"]),
        (["XZZ", "ZXI", "ZIY"], ["SDG 3", "CZ 1 2", "CZ 1 3"]),
        (["YIZ", "IXZ", "ZZY"], ["SDG 1", "SDG 3", "CZ 1 3", "CZ 2 3"]),
        (["XZI", "ZYZ", "IZY"], ["SDG 2", "SDG 3", "CZ 2 3", "CZ 1 2"]),
        (["YII", "IYI", "IIY"], ["SDG 1", "SDG 2", "SDG 3"]),
        (["XII", "IXI", "IIX"], []),
    ],
    4: [
        (["YZZI", "ZXZI", "ZZXZ", "IIZX"],
         ["SDG 1", "CZ 1 2", "CZ 3 4", "CZ 1 3", "CZ 2 3"]),
        (["XIIZ", "IYZZ", "IZXI", "ZZIX"],
         ["SDG 2", "CZ 2 3", "CZ 1 4", "CZ 2 4"]),
        (["YZZZ", "ZYIZ", "ZIXZ", "ZZZX"],
         ["SDG 1", "SDG 2", "CZ 1 2", "CZ 3 4", "CZ 1 3", "CZ 2 4", "CZ 1 4"]),
        (["XIZZ", "IXZI", "ZZYI", "ZIIX"],
         ["SDG 3", "CZ 1 3", "CZ 2 3", "CZ 1 4"]),
        (["YZIZ", "ZXII", "IIYZ", "ZIZX"],
         ["SDG 1", "SDG 3", "CZ 1 2", "CZ 3 4", "CZ 1 4"]),
        (["XIZI", "IYIZ", "ZIYI", "IZIX"],
         ["SDG 2", "SDG 3", "CZ 1 3", "CZ 2 4"]),
        (["YZII", "ZYZZ", "IZYZ", "IZZX"],
         ["SDG 1", "SDG 2", "SDG 3", "CZ 1 2", "CZ 3 4", "CZ 2 3", "CZ 2 4"]),
        (["XZII", "ZXZZ", "IZXZ", "IZZY"],
         ["SDG 4", "CZ 1 2", "CZ 3 4", "CZ 2 3", "CZ 2 4"]),
        (["YIZI", "IXIZ", "ZIXI", "IZIY"],
         ["SDG 1", "SDG 4", "CZ 1 3", "CZ 2 4"]),
        (["XZIZ", "ZYII", "IIXZ", "ZIZY"],
         ["SDG 2", "SDG 4", "CZ 1 2", "CZ 3 4", "CZ 1 4"]),
        (["YIZZ", "IYZI", "ZZXI", "ZIIY"],
         ["SDG 1", "SDG 2", "SDG 4", "CZ 1 3", "CZ 2 3", "CZ 1 4"]),
        (["XZZZ", "ZXIZ", "ZIYZ", "ZZZY"],
         ["SDG 3", "SDG 4", "CZ 1 2", "CZ 3 4", "CZ 1 3", "CZ 2 4", "CZ 1 4"]),
        (["YIIZ", "IXZZ", "IZYI", "ZZIY"],
         ["SDG 1", "SDG 3", "SDG 4", "CZ 2 3", "CZ 1 4", "CZ 2 4"]),
        (["XZZI", "ZYZI", "ZZYZ", "IIZY"],
         ["SDG 2", "SDG 3", "SDG 4", "CZ 1 2", "CZ 3 4", "CZ 1 3", "CZ 2 3"]),
        (["YIII", "IYII", "IIYI", "IIIY"], ["SDG 1", "SDG 2", "SDG 3", "SDG 4"]),
        (["XIII", "IXII", "IIXI", "IIIX"], []),
    ],
}


def main():
    out = Path(__file__).resolve().parent.parent / "src" / "wirecut" / "golden"
    out.mkdir(exist_ok=True)
    for n, rows in TABLES.items():
        families = []
        for idx, (gens, extra_gates) in enumerate(rows, start=1):
            gen_ps = tuple(PauliString.from_label(g) for g in gens)
            fam = CommutingFamily(n, gen_ps)
            members = sorted(p.label for p in expand_family(gen_ps))
            families.append({"generators": gens, "members": members})
            lines = [f"H {q}" for q in range(1, n + 1)] + extra_gates
            text = "\n".join(lines) + "\n"
            circ = CliffordCircuit.parse(text, n)
            # cross-checks: the printed circuit must diagonalize its family and
            # carry exactly the gate set the synthesizer derives
            assert verify_diagonalizes_symplectic(circ, fam), (n, idx, "diagonalization")
            synth = synthesize(fam)
            assert sorted(g.text() for g in circ.gates) == sorted(
                g.text() for g in synth.gates
            ), (n, idx, "gate set", sorted(g.text() for g in circ.gates),
                sorted(g.text() for g in synth.gates))
            (out / f"circuit_n{n}_U{idx:02d}.txt").write_text(text)
        (out / f"families_n{n}.json").write_text(
            json.dumps({"n": n, "families": families}, indent=1) + "\n"
        )
        print(f"n={n}: {len(rows)} circuits written and cross-checked")


if __name__ == "__main__":
    main()
