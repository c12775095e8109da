"""Decomposition builders: exact gamma/m values and transfer-matrix residuals."""

import hashlib
import json
import tracemalloc
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut import channels
from wirecut.channels import (
    ChannelTerm,
    Decomposition,
    MPChannel,
    build_decomposition,
    build_mub_default,
    build_mub_nq,
    build_optimal_1q,
    build_peng_1q,
    build_randomized_nq,
    build_teleport_nq,
    decomposition_from_json,
    decomposition_to_json,
    ptm,
    single_qubit_clifford_group,
    verify_decomposition,
)
from wirecut.costs import channel_count_bound
from wirecut.dense import basis_state, haar_unitary
from wirecut.errors import (
    DesignViolationError,
    InvalidInputError,
    ResourceLimitError,
)
from wirecut.families import generate_partition
from wirecut.synth import synthesize


def projector(vec):
    return np.outer(vec, np.conj(vec))


PLUS = np.array([1, 1]) / np.sqrt(2)
MINUS = np.array([1, -1]) / np.sqrt(2)


def rank_bound(transfer, n):
    """Oracle for channel_count_bound: ceil((rank - 1) / (2^n - 1)) with the
    numerical rank of a transfer matrix at singular value tolerance 1e-8;
    at least 1."""
    rank = int(np.sum(np.linalg.svd(transfer, compute_uv=False) > 1e-8))
    return max(1, -(-(rank - 1) // (2**n - 1)))


class TestPtm:
    def test_optimal_decomposition_sums_to_identity_matrix(self):
        d = build_optimal_1q()
        total = sum(float(c) * ptm(ch) for c, ch in d.channels)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_x_measure_plus_prepare_pattern(self):
        ch = MPChannel.from_terms(
            1,
            (
                ChannelTerm(1, projector(PLUS), projector(PLUS)),
                ChannelTerm(-1, projector(MINUS), projector(PLUS)),
            ),
        )
        mat = ptm(ch)
        expected = np.zeros((4, 4))
        expected[0, 1] = 1.0  # I-row hits the X column
        expected[1, 1] = 1.0  # X-row hits the X column
        np.testing.assert_allclose(mat, expected, atol=1e-12)

    def test_trace_preserving_channel_top_row(self):
        # all signs +1 makes the channel trace preserving: first row = e_1
        group = single_qubit_clifford_group()
        u = group[5]
        ch = MPChannel.from_terms(
            1,
            tuple(
                ChannelTerm(1, projector(u[:, j]), projector(u[:, j]))
                for j in range(2)
            ),
        )
        row = ptm(ch)[0]
        np.testing.assert_allclose(row, [1, 0, 0, 0], atol=1e-12)

    def test_resource_guard(self):
        dim = 2**7
        ident = np.eye(dim, dtype=complex)
        ch = MPChannel.from_terms(7, (ChannelTerm(1, ident, projector(basis_state(0, dim))),))
        with pytest.raises(ResourceLimitError):
            ptm(ch)


def _reference_residual(d):
    """max |sum c PTM - I| through the sum-of-outer-products ptm()."""
    total = sum(float(c) * ptm(ch) for c, ch in d.channels)
    return float(np.max(np.abs(total - np.eye(4**d.n))))


REFERENCE_CASES = [
    pytest.param(partial(build_decomposition, method, n), id=f"{method}-{n}")
    for method, n in [("peng", 1), ("optimal1q", 1), ("randomized", 1), ("teleport", 1),
                      ("teleport", 2), ("mub", 1), ("mub", 2), ("mub", 3), ("mub", 4)]
]


class TestVerifyDecomposition:
    @pytest.mark.parametrize("build", REFERENCE_CASES)
    def test_matches_reference_sum(self, build):
        d = build()
        assert abs(verify_decomposition(d) - _reference_residual(d)) <= 1e-12

    def test_residual_needs_one_product_sized_array(self):
        """Beyond the two 4^n x T stacks, the 4^n x 4^n product is the only
        large array: np.abs into a new array would add a second one (numpy
        reports its buffers to tracemalloc)."""
        d = build_decomposition("mub", 5)
        rows = sum(len(ch.signs) for _, ch in d.channels)
        tracemalloc.start()
        try:
            verify_decomposition(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 4**5 * (2 * rows + 4**5) + (4 << 20)

    def test_perturbed_weight_matches_reference(self):
        channels = list(build_peng_1q().channels)
        c3, ch3 = channels[2]
        channels[2] = (float(c3) + 0.01, ch3)
        bad = Decomposition(1, tuple(channels), "peng-perturbed")
        residual = verify_decomposition(bad)
        assert abs(residual - _reference_residual(bad)) <= 1e-12
        assert residual >= 0.005

    def test_anti_hermitian_input_part_is_dropped(self):
        # i*X is anti-hermitian; at 3e-11 it passes the 1e-10 hermitian check,
        # and factoring reads one triangle, so the channel does not keep it.
        eps_ix = 3e-11j * np.array([[0, 1], [1, 0]])
        k0, k1 = projector(basis_state(0, 2)), projector(basis_state(1, 2))
        ch = MPChannel.from_terms(
            1, (ChannelTerm(1, k0 + eps_ix, k0), ChannelTerm(1, k1 - eps_ix, k1))
        )
        effects, _ = ch.dense_terms()
        assert np.max(np.abs(effects - effects.conj().transpose(0, 2, 1))) < 1e-15
        assert np.max(np.abs(ptm(ch) - ptm(MPChannel.from_terms(
            1, (ChannelTerm(1, k0, k0), ChannelTerm(1, k1, k1)))))) < 1e-10


class TestPeng:
    def test_gamma_and_m(self):
        d = build_peng_1q()
        assert d.gamma == Fraction(4)
        assert d.m == 8

    def test_residual(self):
        assert verify_decomposition(build_peng_1q()) < 1e-10

    def test_perturbed_weight_detected(self):
        d = build_peng_1q()
        channels = list(d.channels)
        c3, ch3 = channels[2]
        channels[2] = (float(c3) + 0.01, ch3)
        bad = Decomposition(1, tuple(channels), "peng-perturbed")
        assert verify_decomposition(bad) >= 0.005


class TestOptimal1q:
    def test_gamma_and_m(self):
        d = build_optimal_1q()
        assert d.gamma == Fraction(3)
        assert d.m == 3

    def test_third_channel_is_bit_flip(self):
        c, ch = build_optimal_1q().channels[2]
        assert c == Fraction(-1)
        effects, preps = ch.dense_terms()
        np.testing.assert_allclose(effects, [projector(basis_state(j, 2)) for j in (0, 1)])
        np.testing.assert_allclose(preps, [projector(basis_state(j, 2)) for j in (1, 0)])

    def test_residual(self):
        assert verify_decomposition(build_optimal_1q()) < 1e-10


class TestMub:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_gamma_m_residual(self, n):
        d = build_mub_default(n)
        assert d.gamma == Fraction(2 ** (n + 1) - 1)
        assert d.m == 2**n + 1
        assert verify_decomposition(d) < 1e-10

    def test_n1_matches_optimal_up_to_ordering(self):
        mub = build_mub_default(1)
        opt = build_optimal_1q()
        assert mub.gamma == opt.gamma and mub.m == opt.m

        def channel_key(pair):
            c, ch = pair
            return (float(c), np.round(ptm(ch), 9).tobytes())

        assert sorted(map(channel_key, mub.channels)) == sorted(
            map(channel_key, opt.channels)
        )

    def test_saturates_rank_bound(self):
        for n in (1, 2, 3):
            d = build_mub_default(n)
            total = sum(float(c) * ptm(ch) for c, ch in d.channels)
            assert d.m == rank_bound(total, n) == channel_count_bound(n)

    def test_rejects_unverified_circuits(self):
        part = generate_partition(2)
        circuits = [synthesize(f) for f in part.families[:-1]]
        circuits[0], circuits[1] = circuits[1], circuits[0]  # wrong pairing
        with pytest.raises(InvalidInputError):
            build_mub_nq(2, part, circuits)


class TestRandomized:
    def test_clifford_group_has_24_elements(self):
        group = single_qubit_clifford_group()
        assert len(group) == 24
        for u in group:
            np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-10)

    def test_clifford_ensemble(self):
        group = single_qubit_clifford_group()
        p = Fraction(1, 24)
        d = build_randomized_nq(1, [(u, p) for u in group])
        assert d.gamma == Fraction(5)
        assert d.m == 25
        assert verify_decomposition(d) < 1e-10
        # 2-design size lower bound for d=2: 2^4 - 2*2^2 + 3
        assert d.m >= 2**4 - 2 * 2**2 + 3

    def test_non_design_rejected(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        with pytest.raises(DesignViolationError):
            build_randomized_nq(1, [(np.eye(2, dtype=complex), 0.5), (h, 0.5)])


class TestTeleport:
    def test_n1(self):
        d = build_teleport_nq(1)
        assert d.m == 5
        assert d.gamma == Fraction(3)
        assert verify_decomposition(d) < 1e-10

    def test_n2(self):
        d = build_teleport_nq(2)
        assert d.m == 27
        assert d.gamma == Fraction(7)
        assert verify_decomposition(d) < 1e-10

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            build_teleport_nq(3)

    @pytest.mark.parametrize("n, digest, length", [
        (1, "efae5d89cbe3a85032337e0796a11567feb580a6264d6f15cb7270eb7ead3aea", 5868),
        (2, "47c8ff44a340e6505ffbc8a4da3fcaf442f99cd40ae244a6f5de124326c33935", 421950),
    ])
    def test_json_bytes_pinned(self, n, digest, length):
        """Every effect, prep, sign and signed zero, as the exported JSON
        text; the digests were taken from the per-pair Bell-vector builder."""
        text = json.dumps(decomposition_to_json(build_teleport_nq(n)))
        assert (hashlib.sha256(text.encode()).hexdigest(), len(text)) == (digest, length)


class TestRankBound:
    def test_identity_bounds(self):
        for n in (1, 2, 3):
            assert channel_count_bound(n) == rank_bound(np.eye(4**n), n)
        assert [channel_count_bound(n) for n in range(1, 13)] == [
            2**n + 1 for n in range(1, 13)
        ]

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_width_below_one(self, n):
        with pytest.raises(InvalidInputError, match=f"at least 1, got {n}"):
            channel_count_bound(n)

    def test_rank_one_channel(self):
        # replacement channel rho -> Tr[rho] |0><0| has a rank-1 transfer matrix
        k0, k1 = basis_state(0, 2), basis_state(1, 2)
        prep = projector(k0)
        ch = MPChannel.from_terms(
            1, (ChannelTerm(1, projector(k0), prep), ChannelTerm(1, projector(k1), prep))
        )
        assert np.linalg.matrix_rank(ptm(ch)) == 1
        assert rank_bound(ptm(ch), 1) == 1


ZERO = projector(basis_state(0, 2))
ONE = projector(basis_state(1, 2))


def term(effect, prep=ZERO):
    return ChannelTerm(1, np.asarray(effect, dtype=complex), np.asarray(prep, dtype=complex))


# case -> (terms of a one-qubit channel, the exact message MPChannel raises)
REJECTED = {
    "shape_mismatch": ((term(np.eye(4)),), "term matrices do not match qubit count"),
    "nan": ((term([[np.nan, 0], [0, 1]]),), "term matrices must be finite"),
    "inf": ((term(np.eye(2), [[1, 0], [0, np.inf]]),), "term matrices must be finite"),
    "effect_not_hermitian": ((term([[1, 1], [0, 0]]),), "POVM effect is not hermitian"),
    "prep_not_hermitian": (
        (term(np.eye(2), [[1, 0.5j], [0.5j, 0]]),), "prepared state is not hermitian"
    ),
    "effect_not_psd": (
        (term([[2, 0], [0, -1]], [[2, 0], [0, -1]]),),
        "POVM effect is not positive semidefinite",
    ),
    "prep_not_psd": (
        (term(np.eye(2), [[3, 0], [0, -1]]),), "prepared state is not positive semidefinite"
    ),
    "trace_not_one": (
        (term(np.eye(2), 2 * projector(PLUS)),), "prepared state must have unit trace"
    ),
    "effects_not_summing_to_identity": (
        (term(projector(PLUS)),), "POVM effects do not sum to the identity"
    ),
    "terms_empty": ((), "POVM effects do not sum to the identity"),
    # term 0 fails the trace check, term 1 the earlier hermitian check
    "first_failing_term_wins": (
        (term(ZERO, 2 * ONE), term([[1, 1], [0, 0]])), "prepared state must have unit trace"
    ),
    # term 1 fails the hermitian check, term 2 the later trace check
    "earlier_failure_kept": (
        (term(ZERO), term([[1, 1], [0, 0]]), term(ONE, 2 * ONE)), "POVM effect is not hermitian"
    ),
    # the non-finite term 1 must not reach the eigensolver
    "nan_after_a_valid_term": (
        (term(ZERO), term(ONE, [[np.nan, 0], [0, 1]])), "term matrices must be finite"
    ),
    # term 1 cannot be stacked, but term 0 fails first
    "failing_term_before_a_shape_mismatch": (
        (term([[np.nan, 0], [0, 1]]), term(np.eye(4))), "term matrices must be finite"
    ),
    # nested lists that are not a numeric matrix: ragged rows, text, a mapping
    "ragged_effect": (
        (ChannelTerm(1, [[1, 0], [0]], ZERO),), "term matrices must be numeric arrays"
    ),
    "text_prep": (
        (ChannelTerm(1, np.eye(2), [["1", "0"], ["0", "x"]]),),
        "term matrices must be numeric arrays",
    ),
    "mapping_effect": ((ChannelTerm(1, {}, ZERO),), "term matrices must be numeric arrays"),
    "nested_list_of_wrong_shape": (
        (ChannelTerm(1, [1, 0, 0, 1], ZERO),), "term matrices do not match qubit count"
    ),
}


def x_basis_arrays():
    """The arrays of a valid one-qubit channel: measure X, then re-prepare
    |+> after outcome +, an even mixture of |0> and |1> after outcome -."""
    return {
        "signs": np.array([1, 1]),
        "effects": np.array([PLUS, MINUS], dtype=complex),
        "prep_probs": np.array([[1.0, 0.0], [0.5, 0.5]]),
        "preps": np.array([[PLUS, [0, 0]], [[1, 0], [0, 1]]], dtype=complex),
    }


def edit(name, index, value):
    def apply(arrays):
        arrays[name][index] = value

    return apply


# case -> (edit of x_basis_arrays(), the exact message MPChannel raises)
ARRAY_REJECTED = {
    "shape_mismatch": (
        lambda arrays: arrays.update(effects=np.eye(4, dtype=complex)[:2]),
        "channel arrays do not match each other or the qubit count",
    ),
    "non_finite": (edit("effects", (0, 0), np.nan), "channel arrays must be finite"),
    "sign_not_unit": (edit("signs", 0, 2), "outcome signs must be +1 or -1"),
    "negative_prep_weight": (
        edit("prep_probs", 1, [1.5, -0.5]), "prep weights must be non-negative"
    ),
    "prep_weights_not_summing_to_one": (
        edit("prep_probs", 1, [0.5, 0.6]), "prep weights must sum to 1"
    ),
    "non_unit_prep_vector": (edit("preps", (1, 0), [2, 0]), "prep vectors must have unit norm"),
    "effects_not_summing_to_identity": (
        edit("effects", 1, PLUS), "POVM effects do not sum to the identity"
    ),
}


# the builders and widths the benchmark's decompose workload runs
DECOMPOSE_CASES = [
    ("peng", 1), ("optimal1q", 1), ("randomized", 1), ("teleport", 1), ("teleport", 2)
] + [("mub", n) for n in range(1, 6)]
built = cache(build_decomposition)


@st.composite
def exported_decompositions(draw):
    """One or two channels of a builder's output, optionally with every
    matrix conjugated by one Haar unitary so their entries are arbitrary
    doubles rather than short fractions."""
    d = built(*draw(st.sampled_from(DECOMPOSE_CASES)))
    picked = draw(st.lists(st.integers(0, d.m - 1), min_size=1, max_size=2, unique=True))
    chosen = [d.channels[i] for i in picked]
    if draw(st.booleans()):
        u = haar_unitary(2**d.n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        chosen = [
            (c, MPChannel.from_terms(d.n, tuple(
                ChannelTerm(a, u @ effect @ u.conj().T, u @ prep @ u.conj().T)
                for a, effect, prep in zip(ch.signs.tolist(), *ch.dense_terms())
            )))
            for c, ch in chosen
        ]
    return Decomposition(d.n, tuple(chosen), d.label)


class TestValidationAndJson:
    @pytest.mark.parametrize("weights", [
        (0.0, 0.0, -0.0),
        (1e308, -1e308, 1.0),
        (float("nan"), 1.0, 1.0),
        (Fraction(10**400), 1, 1),
        (Fraction(1, 10**400), 0, 0),
    ])
    def test_one_norm_must_be_a_positive_double(self, weights):
        """Sampling divides by float(gamma): zero, overflowing, NaN and
        underflowing one-norms are rejected when the decomposition is built."""
        rows = build_optimal_1q().channels
        with pytest.raises(InvalidInputError, match="one-norm of the channels' weights"):
            Decomposition(1, tuple((w, ch) for w, (_, ch) in zip(weights, rows)), "bad")

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected(self, case):
        terms, message = REJECTED[case]
        with pytest.raises(InvalidInputError) as excinfo:
            MPChannel.from_terms(1, terms)
        assert str(excinfo.value) == message

    def test_nested_lists_give_the_array_channel(self):
        lists = [
            ChannelTerm(1, [[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]),
            ChannelTerm(-1, [[0.5, -0.5], [-0.5, 0.5]], [[1, 0], [0, 0]]),
        ]
        arrays = [
            ChannelTerm(t.a, np.asarray(t.effect, dtype=complex), np.asarray(t.prep, dtype=complex))
            for t in lists
        ]
        a, b = MPChannel.from_terms(1, lists), MPChannel.from_terms(1, arrays)
        for name in ("signs", "effects", "prep_probs", "preps"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("case", sorted(ARRAY_REJECTED))
    def test_array_rejected(self, case):
        change, message = ARRAY_REJECTED[case]
        arrays = x_basis_arrays()
        change(arrays)
        with pytest.raises(InvalidInputError) as excinfo:
            MPChannel(1, **arrays)
        assert str(excinfo.value) == message

    def test_dense_terms_of_arrays(self):
        effects, preps = MPChannel(1, **x_basis_arrays()).dense_terms()
        assert effects.shape == preps.shape == (2, 2, 2)
        np.testing.assert_array_equal(effects[0], projector(PLUS))
        np.testing.assert_array_equal(effects[1], projector(MINUS))
        np.testing.assert_array_equal(preps[0], projector(PLUS))
        np.testing.assert_array_equal(preps[1], np.eye(2) / 2)

    def test_json_terms_carry_int_signs(self):
        d = Decomposition(1, ((1.0, MPChannel(1, **x_basis_arrays())),), "x")
        terms = decomposition_to_json(d)["channels"][0]["terms"]
        assert [t["a"] for t in terms] == [1, 1] and all(type(t["a"]) is int for t in terms)

    @pytest.mark.parametrize("method, n", [("peng", 1), ("teleport", 1), ("mub", 2)])
    def test_pure_preps_are_outer_products_bit_for_bit(self, method, n):
        """Dense terms of a builder's pure preps equal np.outer to the last
        bit, signed zeros included, so exported files keep their bytes."""
        for _, ch in build_decomposition(method, n).channels:
            for effect, prep, e, w, chis in zip(
                *ch.dense_terms(), ch.effects, ch.prep_probs, ch.preps
            ):
                assert effect.tobytes() == np.outer(e, e.conj()).tobytes()
                if w[0] == 1.0:
                    assert prep.tobytes() == np.outer(chis[0], chis[0].conj()).tobytes()

    def test_bad_sign_rejected(self):
        with pytest.raises(InvalidInputError):
            ChannelTerm(2, projector(PLUS), projector(PLUS))

    def test_json_round_trip(self):
        d = build_optimal_1q()
        data = decomposition_to_json(d)
        back = decomposition_from_json(data)
        assert back.m == d.m
        assert abs(float(back.gamma) - 3.0) < 1e-12
        assert verify_decomposition(back) < 1e-10
        assert data["gamma"] == 3.0 and data["m"] == 3

    @settings(max_examples=30, deadline=None)
    @given(exported_decompositions())
    def test_json_round_trip_is_exact(self, d):
        """Every matrix written parses back to the same doubles."""
        for _, ch in d.channels:
            for stack in ch.dense_terms():
                for mat in stack:
                    text = json.dumps(channels._matrix_to_json(mat))
                    assert channels._matrix_from_json(json.loads(text)).tobytes() == mat.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(exported_decompositions())
    def test_json_round_trip_keeps_terms(self, d):
        """A loaded channel, factored again, gives back the terms written."""
        back = decomposition_from_json(json.loads(json.dumps(decomposition_to_json(d))))
        assert back.n == d.n and back.m == d.m
        assert abs(float(back.gamma) - float(d.gamma)) < 1e-12
        for (_, ch), (_, ch_back) in zip(d.channels, back.channels):
            np.testing.assert_array_equal(ch_back.signs, ch.signs)
            for stack, stack_back in zip(ch.dense_terms(), ch_back.dense_terms()):
                assert stack_back.shape == stack.shape
                assert np.max(np.abs(stack_back - stack)) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(exported_decompositions())
    def test_verify_matches_reference_sum(self, d):
        """Loaded and Haar-rotated channels, whose Pauli vectors carry
        imaginary rounding, verify as the per-term ptm() sum does."""
        assert abs(verify_decomposition(d) - _reference_residual(d)) <= 1e-12

    @pytest.mark.parametrize("n", [-1, 0, 7])
    def test_width_checked_before_matrices(self, monkeypatch, n):
        def no_matrix(data):
            raise AssertionError("matrix parsed before the width check")

        monkeypatch.setattr(channels, "_matrix_from_json", no_matrix)
        data = decomposition_to_json(build_optimal_1q())
        data["n"] = n
        with pytest.raises(InvalidInputError, match="field n"):
            decomposition_from_json(data)

    def test_build_decomposition_dispatch(self):
        assert build_decomposition("peng", 1).label == "peng"
        with pytest.raises(InvalidInputError):
            build_decomposition("nope", 1)
        with pytest.raises(InvalidInputError):
            build_decomposition("optimal1q", 2)


@st.composite
def planted_stacks(draw):
    """A hermitian (T, d, d) stack whose smallest eigenvalues sit at
    PSD_FLOOR (1 +- delta), PSD_FLOOR / 2 (1 +- delta) or 0, to be used as
    effects or as preps.  Preps get unit trace, so the later trace check
    cannot mask the verdict; effects may be `big`, with the eigenvalue 2d,
    so a diagonal entry exceeds 1."""
    dim = draw(st.sampled_from([2, 4, 8, 16, 32]))
    as_prep = draw(st.booleans())
    big = not as_prep and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(draw(st.integers(1, 3))):
        anchor = draw(st.sampled_from([1.0, 0.5, 0.0])) * channels.PSD_FLOOR
        delta = draw(st.sampled_from([1e-1, 1e-3, 1e-6])) * draw(st.sampled_from([1, -1]))
        eig = np.concatenate([[anchor * (1 + delta)], rng.uniform(0, 1, dim - 1)])
        if big:
            eig[-1] = 2 * dim
        if as_prep:
            eig[1:] *= (1 - eig[0]) / eig[1:].sum()
        u = haar_unitary(dim, rng)
        mat = (u * eig) @ u.conj().T
        stack.append((mat + mat.conj().T) / 2)
    return np.array(stack), as_prep, big


class TestPsdVerdict:
    @settings(max_examples=200, deadline=None)
    @given(planted_stacks())
    def test_matches_eigvalsh_per_term(self, case):
        """The dense constructor rejects a stack exactly when one matrix's own
        eigh spectrum dips below PSD_FLOOR."""
        stack, as_prep, _ = case
        dim = stack.shape[-1]
        expected = any(np.linalg.eigh(m)[0].min() < channels.PSD_FLOOR for m in stack)
        if as_prep:
            terms = [ChannelTerm(1, np.eye(dim) / len(stack), m) for m in stack]
            failure = "prepared state is not positive semidefinite"
        else:
            terms = [ChannelTerm(1, m, projector(basis_state(0, dim))) for m in stack]
            failure = "POVM effect is not positive semidefinite"
        message = None
        try:
            MPChannel.from_terms(dim.bit_length() - 1, tuple(terms))
        except InvalidInputError as exc:
            message = str(exc)
        assert (message == failure) == expected

    @pytest.mark.parametrize("method, n", DECOMPOSE_CASES)
    def test_builder_channels_are_certified(self, monkeypatch, method, n):
        """Builders pass effect and prep vectors, so the array checks certify
        their channels without any eigensolver or Cholesky factorisation."""

        def refuse(*args, **kwargs):
            raise AssertionError("a builder ran a matrix factorisation")

        for name in ("eigh", "eigvalsh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert build_decomposition(method, n).n == n
