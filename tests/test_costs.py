"""Cost-model tests: time-model branches, overhead tables, gate-count bounds."""

import pytest

from wirecut.costs import (
    GateCountRow,
    TimeModelParams,
    gate_count_bench,
    overhead_table,
    predict_time,
)
from wirecut.channels import build_decomposition
from wirecut.cli import main
from wirecut.errors import InvalidInputError, ResourceLimitError
from wirecut.estimator import CutLocation, CutSpec


class TestPredictTime:
    def test_small_m_branch(self):
        assert predict_time(TimeModelParams(5, 1000, 1.0, 0.01)) == 15.0

    def test_large_m_branch(self):
        assert predict_time(TimeModelParams(10**6, 100, 1.0, 0.01)) == 101.0

    def test_continuity_at_threshold(self):
        below = predict_time(TimeModelParams(50, 50, 2.0, 0.1))
        above = predict_time(TimeModelParams(50, 51, 2.0, 0.1))
        at = predict_time(TimeModelParams(50, 50, 2.0, 0.1))
        assert at == 50 * 2.0 + 50 * 0.1
        assert below <= above

    def test_monotone_in_each_parameter(self):
        base = TimeModelParams(10, 100, 1.0, 0.5)
        t0 = predict_time(base)
        assert predict_time(TimeModelParams(11, 100, 1.0, 0.5)) >= t0
        assert predict_time(TimeModelParams(10, 101, 1.0, 0.5)) >= t0
        assert predict_time(TimeModelParams(10, 100, 1.1, 0.5)) >= t0
        assert predict_time(TimeModelParams(10, 100, 1.0, 0.6)) >= t0

    def test_slope_change_at_m(self):
        p = lambda shots: predict_time(TimeModelParams(100, shots, 1.0, 0.01))
        slope_before = p(90) - p(89)
        slope_after = p(201) - p(200)
        assert slope_before == pytest.approx(1.01)
        assert slope_after == pytest.approx(0.01)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            TimeModelParams(-1, 10, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["t_compile", "t_shot"])
    def test_non_finite_unit_time_rejected(self, field, bad):
        times = {"t_compile": 1.0, "t_shot": 1.0, field: bad}
        with pytest.raises(InvalidInputError, match=field):
            TimeModelParams(3, 5, times["t_compile"], times["t_shot"])


class TestOverheadTable:
    def test_n1_row(self):
        rows = {r.method: r for r in overhead_table(1)}
        assert rows["peng"].gamma_sq == 16
        assert rows["randomized"].gamma_sq == 25
        assert rows["mub"].gamma_sq == 9
        assert rows["teleport"].gamma_sq == 9

    def test_mub_n3(self):
        rows = [r for r in overhead_table(3) if r.method == "mub"]
        assert [r.gamma_sq for r in rows] == [9, 49, 225]
        assert [r.m for r in rows] == [3, 5, 9]

    def test_teleport_m_values(self):
        rows = {(r.method, r.n): r for r in overhead_table(2)}
        assert rows[("teleport", 1)].m == 5
        assert rows[("teleport", 2)].m == 27

    def test_row_count(self):
        assert len(overhead_table(3)) == 12

    def test_closed_forms_up_to_12(self):
        for r in overhead_table(12):
            if r.method == "peng":
                assert r.gamma_sq == 16**r.n and r.m == 8**r.n
            elif r.method == "randomized":
                assert r.gamma_sq == (2 ** (r.n + 1) + 1) ** 2
                assert r.m == 2 ** (4 * r.n) - 2 * 2 ** (2 * r.n) + 3
            elif r.method == "mub":
                assert r.gamma_sq == (2 ** (r.n + 1) - 1) ** 2 and r.m == 2**r.n + 1
            else:
                assert r.gamma_sq == (2 ** (r.n + 1) - 1) ** 2
                assert r.m == 2 ** (2**r.n) + 4**r.n - 2**r.n - 1

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            overhead_table(13)

    @pytest.mark.parametrize("n_max", [0, 13])
    def test_guard_names_the_range(self, n_max):
        with pytest.raises(ResourceLimitError, match=rf"nmax must be in 1\.\.12, got {n_max}$"):
            overhead_table(n_max)

    def test_mub_rows_match_built_decompositions(self):
        from wirecut.channels import build_mub_default

        rows = {(r.method, r.n): r for r in overhead_table(4)}
        for n in (1, 2, 3, 4):
            d = build_mub_default(n)
            assert rows[("mub", n)].gamma_sq == int(d.gamma) ** 2
            assert rows[("mub", n)].m == d.m


def cuts_overhead(method, k_cuts):
    """gamma_total^2 of k one-wire `method` cuts side by side."""
    d = build_decomposition(method, 1)
    return CutSpec(tuple(CutLocation(0, w, d) for w in range(1, k_cuts + 1))).gamma_total ** 2


class TestMultiCut:
    """Independent cuts multiply: a CutSpec's gamma_total is the product of its cuts' gammas."""

    def test_three_optimal_cuts(self):
        assert cuts_overhead("optimal1q", 3) == 729
        assert cuts_overhead("mub", 3) == 729

    def test_two_peng_cuts(self):
        assert cuts_overhead("peng", 2) == 256

    def test_no_cuts(self):
        assert cuts_overhead("mub", 0) == 1

    @pytest.mark.parametrize("n_per_cut", [2, 3, 12])
    def test_optimal1q_cuts_one_wire(self, n_per_cut):
        with pytest.raises(InvalidInputError, match="single-wire only"):
            build_decomposition("optimal1q", n_per_cut)
        rows = {(r.method, r.n): r for r in overhead_table(n_per_cut)}
        assert rows[("mub", n_per_cut)].gamma_sq == (2 ** (n_per_cut + 1) - 1) ** 2


class TestGateCountBench:
    def test_n1(self):
        rows = gate_count_bench(1)
        assert rows[0] == GateCountRow(1, 1, 0, 2, 0, 2)

    def test_bounds_up_to_6(self):
        for row in gate_count_bench(6):
            n = row.n
            assert row.n_s_max <= n
            assert row.n_cz_max <= n * (n - 1) // 2 == row.bound_cz
            assert row.n_all_max <= 2 * n + row.bound_cz == row.bound_all

    def test_reproducible(self):
        assert gate_count_bench(4) == gate_count_bench(4)

    @pytest.mark.parametrize("n_max", [0, 13])
    def test_guard_names_the_range(self, n_max):
        with pytest.raises(ResourceLimitError, match=rf"nmax must be in 1\.\.12, got {n_max}$"):
            gate_count_bench(n_max)


class TestCsv:
    """The `wirecut bench` tables: a header, then one CRLF-ended line per row."""

    def bench(self, capsys, table):
        assert main(["bench", table, "--nmax", "2"]) == 0
        return capsys.readouterr().out

    def test_overhead_csv_shape(self, capsys):
        lines = self.bench(capsys, "overhead").split("\r\n")
        assert lines[:2] == ["method,n,gamma_sq,m,m_bound", "peng,1,16,8,3"]
        assert len(lines) == 10 and lines[-1] == ""

    def test_gatecount_csv_shape(self, capsys):
        lines = self.bench(capsys, "gatecount").split("\r\n")
        header = "n,NS_max,NCZ_max,Nall_max,bound_CZ,bound_all"
        assert lines == [header, "1,1,0,2,0,2", "2,2,1,4,1,5", ""]
