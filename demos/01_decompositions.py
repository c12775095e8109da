"""Build every identity-channel decomposition and verify it numerically.

Each method expresses the n-qubit identity channel as a signed mixture of
measure-and-prepare channels.  Two numbers summarize its cost: gamma^2, the
multiplicative sampling overhead, and m, the number of distinct channels
(which drives compilation time).  The check below multiplies everything out
in the Pauli transfer matrix representation: a valid decomposition must
reproduce the 4^n x 4^n identity to machine precision.
"""

from fractions import Fraction

from wirecut import (
    build_mub_default,
    build_optimal_1q,
    build_peng_1q,
    build_randomized_nq,
    build_teleport_nq,
    channel_count_bound,
    single_qubit_clifford_group,
    verify_decomposition,
)

print(f"{'method':<14}{'n':>3}{'gamma^2':>9}{'m':>5}   residual")

group = single_qubit_clifford_group()
uniform = Fraction(1, len(group))

builds = [
    ("peng", 1, build_peng_1q()),
    ("optimal1q", 1, build_optimal_1q()),
    ("randomized", 1, build_randomized_nq(1, [(u, uniform) for u in group])),
    ("teleport", 1, build_teleport_nq(1)),
    ("teleport", 2, build_teleport_nq(2)),
]
for n in (1, 2, 3, 4):
    builds.append(("mub", n, build_mub_default(n)))

for name, n, d in builds:
    residual = verify_decomposition(d)
    print(f"{name:<14}{n:>3}{int(d.gamma)**2:>9}{d.m:>5}   {residual:.2e}")

print()
print("channel-count lower bound, ceil((4^n - 1) / (2^n - 1)):")
for n in (1, 2, 3, 4):
    bound = channel_count_bound(n)
    print(f"  n={n}: bound {bound}, MUB decomposition uses exactly {2**n + 1}")
