"""Cost models: sampling overhead, channel counts, execution time, gate counts.

Total execution time is T = T_C + T_Q where T_C charges one compilation per
distinct sampled channel (at most m of them, and never more than the shot
count) and T_Q charges one unit per shot.  Small m moves the slope change
of T(N) earlier, which is why the channel count matters alongside gamma^2.
"""

from wirecut import (
    TimeModelParams,
    gate_count_bench,
    overhead_table,
    predict_time,
)

print("sampling overhead gamma^2 and channel count m:")
print(f"  {'method':<12}{'n=1':>14}{'n=2':>14}{'n=3':>14}")
rows = overhead_table(3)
for method in ("peng", "randomized", "mub", "teleport"):
    cells = [
        f"{r.gamma_sq}/{r.m}" for r in rows if r.method == method
    ]
    print(f"  {method:<12}{cells[0]:>14}{cells[1]:>14}{cells[2]:>14}")
print("  (cells are gamma^2/m; randomized m is its 2-design lower bound)\n")

print("independent single-wire cuts multiply the overhead:")
per_cut = {r.method: r.gamma_sq for r in overhead_table(1)}  # mub at n = 1 is optimal1q
for k in (1, 2, 3):
    print(
        f"  k={k}: original {per_cut['peng'] ** k:>6}   "
        f"optimal {per_cut['mub'] ** k:>5}"
    )

print("\nexecution time T = T_C + T_Q (t_c=1, t_q=0.01) around the m threshold:")
for m in (5, 100):
    marks = []
    for shots in (10, 100, 1000):
        t = predict_time(TimeModelParams(m, shots, 1.0, 0.01))
        marks.append(f"N={shots}: {t:7.2f}")
    print(f"  m={m:>3}:  " + "   ".join(marks))

print("\nmax gate counts over all synthesized circuits (vs bounds):")
print(f"  {'n':>2} {'NS_max':>7} {'NCZ_max':>8} {'Nall_max':>9} {'CZ bound':>9} {'all bound':>10}")
for row in gate_count_bench(8):
    print(
        f"  {row.n:>2} {row.n_s_max:>7} {row.n_cz_max:>8} {row.n_all_max:>9}"
        f" {row.bound_cz:>9} {row.bound_all:>10}"
    )
