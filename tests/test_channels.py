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
from wirecut.cli import main
from wirecut.costs import channel_count_bound
from wirecut.dense import basis_state, haar_unitary
from wirecut.errors import (
    DesignViolationError,
    InvalidInputError,
    ResourceLimitError,
)
from wirecut.families import generate_partition
from wirecut.pauli import pauli_vector
from wirecut.synth import synthesize

from oracles import single_product_residual


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
        ch = channels._pure_channel(1, [(1, PLUS, PLUS), (-1, MINUS, PLUS)])
        mat = ptm(ch)
        expected = np.zeros((4, 4))
        expected[0, 1] = 1.0  # I-row hits the X column
        expected[1, 1] = 1.0  # X-row hits the X column
        np.testing.assert_allclose(mat, expected, atol=1e-12)

    def test_trace_preserving_channel_top_row(self):
        # all signs +1 makes the channel trace preserving: first row = e_1
        group = single_qubit_clifford_group()
        u = group[5]
        ch = channels._pure_channel(1, [(1, u[:, j], u[:, j]) for j in range(2)])
        row = ptm(ch)[0]
        np.testing.assert_allclose(row, [1, 0, 0, 0], atol=1e-12)

    def test_resource_guard(self):
        dim = 2**7
        ch = channels._pure_channel(7, [(1, e, basis_state(0, dim)) for e in np.eye(dim)])
        with pytest.raises(ResourceLimitError):
            ptm(ch)


def _reference_residual(d):
    """max |sum c PTM - I| through the sum-of-outer-products ptm()."""
    total = sum(float(c) * ptm(ch) for c, ch in d.channels)
    return float(np.max(np.abs(total - np.eye(4**d.n))))


# the builders and widths the benchmark's decompose workload runs
DECOMPOSE_CASES = [
    ("peng", 1), ("optimal1q", 1), ("randomized", 1), ("teleport", 1), ("teleport", 2)
] + [("mub", n) for n in range(1, 6)]
built = cache(build_decomposition)


REFERENCE_CASES = [
    pytest.param(partial(build_decomposition, method, n), id=f"{method}-{n}")
    for method, n in [("peng", 1), ("optimal1q", 1), ("randomized", 1), ("teleport", 1),
                      ("teleport", 2), ("mub", 1), ("mub", 2), ("mub", 3), ("mub", 4)]
]


def reweighted(d, i, weight):
    """d with channel i's weight replaced."""
    chans = list(d.channels)
    chans[i] = (weight, chans[i][1])
    return Decomposition(d.n, tuple(chans), d.label)


def near_identity(n, theta=1e-6):
    """exp(-i theta H) for a seeded random hermitian H of dimension 2^n."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
    vals, vecs = np.linalg.eigh(a + a.conj().T)
    return (vecs * np.exp(-1j * theta * vals)) @ vecs.conj().T


def rotated(d, which, u=None):
    """d with the effect and prep vectors of the channels `which` sent
    through u, a seeded Haar unitary by default."""
    if u is None:
        u = haar_unitary(2**d.n, np.random.default_rng(3))
    chans = list(d.channels)
    for i in which:
        c, ch = chans[i]
        chans[i] = (c, MPChannel(d.n, ch.signs, ch.effects @ u.T, ch.prep_probs, ch.preps @ u.T))
    return Decomposition(d.n, tuple(chans), d.label)


# measure Z, prepare the X eigenstate of the outcome: transfer matrix I -> I, Z -> X
Z_TO_X = channels._pure_channel(1, [(1, basis_state(0, 2), PLUS), (1, basis_state(1, 2), MINUS)])


SINGLE_PRODUCT_CASES = [
    *(pytest.param(partial(built, *case), id="-".join(map(str, case)))
      for case in DECOMPOSE_CASES),
    pytest.param(lambda: rotated(built("mub", 4), range(17)), id="haar-rotated-mub-4"),
    pytest.param(lambda: rotated(Decomposition(1, ((3, Z_TO_X), (1, Z_TO_X)), "zx"), [1]),
                 id="z-measure-x-prepare"),
]


def parity_channel(n, parity):
    """Measure in the computational basis and re-prepare the uniform mixture
    of the basis states of the given parity, whatever the outcome.  The even
    channel minus the odd one has a single nonzero transfer-matrix entry:
    2 at row Z...Z, the last row, and column I."""
    dim = 2**n
    states = np.eye(dim)[np.bitwise_count(np.arange(dim)) % 2 == parity]
    preps = np.broadcast_to(states, (dim, *states.shape))
    return MPChannel(n, np.ones(dim, dtype=int), np.eye(dim), np.full(preps.shape[:2], 2 / dim),
                     preps)


def last_row_mutated(n=3, eps=1e-8):
    """mub at width n plus eps times the even channel and -eps times the
    odd one, so the sum is off the identity by 2 eps in its last row only."""
    d = built("mub", n)
    extra = ((eps, parity_channel(n, 0)), (-eps, parity_channel(n, 1)))
    return Decomposition(n, d.channels + extra, d.label)


class TestVerifyDecomposition:
    @pytest.mark.parametrize("build", REFERENCE_CASES)
    def test_matches_reference_sum(self, build):
        d = build()
        assert abs(verify_decomposition(d) - _reference_residual(d)) <= 1e-12

    def test_residual_needs_one_block_and_one_channels_stacks(self):
        """At mub n = 5 the residual is swept through one 1 MiB row block;
        beside it come one channel's dense terms and complex Pauli stacks
        and the kept rows and columns of every group, 1 MiB or so each.
        The 4^n x 4^n sum, 8 MiB, would alone break the bound (numpy
        reports its buffers to tracemalloc)."""
        d = built("mub", 5)
        tracemalloc.start()
        try:
            verify_decomposition(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2**20

    @pytest.mark.parametrize("build", SINGLE_PRODUCT_CASES)
    def test_matches_single_product(self, build):
        """Grouped products over the supports read the residual of one dense
        product, mub n = 5 included.  Every channel of the Haar-rotated mub
        case has full supports; the last case pairs a channel whose prep and
        effect supports differ ({I, X} and {I, Z}) with a rotated copy, so a
        transfer matrix that is not symmetric goes through both paths; its
        weight 3 makes the X <- Z entry the largest."""
        d = build()
        assert abs(verify_decomposition(d) - single_product_residual(d)) <= 1e-12

    @pytest.mark.parametrize("method, n", DECOMPOSE_CASES)
    def test_shared_pauli_rows_are_bit_identical(self, method, n):
        """A channel that re-prepares what it measured gets one stack of
        Pauli vectors for its preps and effects, equal bit for bit to the
        vectors of its two dense stacks; every mub basis channel takes it."""
        shared = 0
        for _, ch in built(method, n).channels:
            preps, effects = channels._pauli_rows(ch)
            shared += preps is effects
            dense_effects, dense_preps = ch.dense_terms()
            assert preps.tobytes() == pauli_vector(dense_preps, n).real.tobytes()
            assert effects.tobytes() == pauli_vector(dense_effects, n).real.tobytes()
        if method == "mub":
            assert shared == 2**n

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("build", SINGLE_PRODUCT_CASES)
    def test_row_blocks_match_single_product(self, monkeypatch, build, rows):
        """Row blocks of one row, and of three, which divides no 4^n, read
        the single-product residual too."""
        d = build()
        monkeypatch.setattr(channels, "_BLOCK_BYTES", rows * 8 * 4**d.n)
        assert abs(verify_decomposition(d) - single_product_residual(d)) <= 1e-12

    @pytest.mark.parametrize("rows", [1, 3, None])
    def test_error_in_the_last_row_block_is_caught(self, monkeypatch, capsys, tmp_path, rows):
        """The last row of the sum, the only one off the identity, lies in
        the sweep's last block, which holds one row (64 = 21 * 3 + 1) at
        blocks of one row or three; the default block holds them all."""
        d = last_row_mutated()
        total = sum(float(c) * ptm(ch) for c, ch in d.channels) - np.eye(4**d.n)
        worst = np.unravel_index(np.argmax(np.abs(total)), total.shape)
        assert worst == (4**d.n - 1, 0)
        assert np.max(np.abs(total[:-1])) < 1e-12
        if rows is not None:
            monkeypatch.setattr(channels, "_BLOCK_BYTES", rows * 8 * 4**d.n)
        residual = verify_decomposition(d)
        assert abs(residual - single_product_residual(d)) <= 1e-12
        assert residual >= 1e-9
        path = tmp_path / "last_row.json"
        channels.save_decomposition(d, path)
        assert main(["verify", "--method", f"file:{path}"]) == 1
        assert f"residual={residual!r}" in capsys.readouterr().out

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda: reweighted(built("mub", 4), 0, 1 + 1e-8), id="weight_1e-8_off"),
        pytest.param(lambda: rotated(built("mub", 4), [3], near_identity(4)),
                     id="one_channel_near_identity_rotated"),
        pytest.param(lambda: rotated(built("mub", 3), range(0, 9, 2)), id="half_haar_rotated"),
    ])
    def test_mutated_input_is_caught(self, capsys, tmp_path, mutate):
        """Mutated mub files, sparse and full supports mixed, read the
        single-product residual, at least 1e-9, and exit 1 under verify."""
        d = mutate()
        residual = verify_decomposition(d)
        assert abs(residual - single_product_residual(d)) <= 1e-12
        assert residual >= 1e-9
        path = tmp_path / "mutated.json"
        channels.save_decomposition(d, path)
        assert main(["verify", "--method", f"file:{path}"]) == 1
        assert f"residual={residual!r}" in capsys.readouterr().out

    def test_near_identity_rotation_fills_the_support(self):
        """The rotated channel of the mutation above has full supports."""
        d = rotated(built("mub", 4), [3], near_identity(4))
        effects, preps = d.channels[3][1].dense_terms()
        for stack in (effects, preps):
            assert pauli_vector(stack, 4).real.any(axis=0).all()

    def test_perturbed_weight_matches_reference(self):
        channels = list(build_peng_1q().channels)
        c3, ch3 = channels[2]
        channels[2] = (float(c3) + 0.01, ch3)
        bad = Decomposition(1, tuple(channels), "peng-perturbed")
        residual = verify_decomposition(bad)
        assert abs(residual - _reference_residual(bad)) <= 1e-12
        assert residual >= 0.005


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
        (1, "27176aed446a44238dc1bb8f5e9c0435233c615bd7dfebceb2e7e949fe63f3ae", 3011),
        (2, "1fc73b378dd6c6bc76c1128f091d5395cecf33d5f7399a69eb5c013d67b44622", 103268),
    ])
    def test_json_bytes_pinned(self, n, digest, length):
        """Every sign, effect, prep weight and prep vector, signed zeros
        included, as the exported JSON text.  The digests were taken from
        the builder as it stood when it still wrote dense-term files and
        matched their pinned digests."""
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
        ch = channels._pure_channel(1, [(1, k0, k0), (1, k1, k0)])
        assert np.linalg.matrix_rank(ptm(ch)) == 1
        assert rank_bound(ptm(ch), 1) == 1


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
    """Set entry `index`, an int or a tuple, of field `name` in a dict of
    numpy arrays or of nested lists."""

    def apply(fields):
        *path, last = index if isinstance(index, tuple) else (index,)
        target = fields[name]
        for i in path:
            target = target[i]
        target[last] = value

    return apply


# case -> (edit of x_basis_arrays(), the exact message MPChannel raises)
ARRAY_REJECTED = {
    "shape_mismatch": (
        lambda arrays: arrays.update(effects=np.eye(4, dtype=complex)[:2]),
        "channel arrays do not match each other or the qubit count",
    ),
    "non_finite": (edit("effects", (0, 0), np.nan), "channel arrays must be finite"),
    "sign_not_unit": (edit("signs", 0, 2), "outcome signs must be +1 or -1"),
    "sign_complex": (
        lambda arrays: arrays.update(signs=np.array([1 + 1j, 1])), "outcome signs must be +1 or -1"
    ),
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
    # each of these is off by about 1e-8, inside any tolerance looser than
    # the 1e-10 one the checks use
    "prep_weights_summing_to_1_plus_1e-8": (
        edit("prep_probs", 1, [0.5, 0.5 + 1e-8]), "prep weights must sum to 1"
    ),
    "zero_padding_prep_given_weight_1e-8": (
        edit("prep_probs", 0, [1 - 1e-8, 1e-8]), "prep vectors must have unit norm"
    ),
    "effect_scaled_by_1_plus_1e-8": (
        edit("effects", 1, MINUS * (1 + 1e-8)), "POVM effects do not sum to the identity"
    ),
}


WIDE = [[1, 0], [0, 0], [0, 0], [0, 0]]
PAIRS = "must be an array of [re, im] pairs"

# case -> (edit of the first channel entry in build_optimal_1q()'s file, the
# exact message decomposition_from_json raises); that channel measures X
# and re-prepares |+> or |->
REJECTED = {
    "shape_mismatch": (
        lambda entry: entry.update(effects=[WIDE, WIDE[::-1]]),
        "field channels[0]: channel arrays do not match each other or the qubit count",
    ),
    "nan": (
        edit("effects", (0, 0), [np.nan, 0]), "field channels[0]: channel arrays must be finite"
    ),
    "inf": (
        edit("preps", (1, 0, 1), [0, np.inf]), "field channels[0]: channel arrays must be finite"
    ),
    "effects_not_summing_to_identity": (
        edit("effects", 1, [[1, 0], [0, 0]]),
        "field channels[0]: POVM effects do not sum to the identity",
    ),
    "trace_not_one": (
        edit("prep_probs", 0, [2.0]), "field channels[0]: prep weights must sum to 1"
    ),
    # a prep sum_p w_p |chi_p><chi_p| can only fail to be positive through a
    # negative weight
    "prep_not_psd": (
        edit("prep_probs", 0, [-1.0]), "field channels[0]: prep weights must be non-negative"
    ),
    "terms_empty": (
        lambda entry: entry.update(signs=[], effects=[], prep_probs=[], preps=[]),
        "field channels[0].signs must be an array of integers",
    ),
    # what complex(re, im) rejected in the dense format stays rejected: text,
    # null, a mapping, an integer no double holds; and so do ragged rows,
    # entries that are not pairs, and booleans
    "ragged_effect": (edit("effects", 1, WIDE), f"field channels[0].effects {PAIRS}"),
    "text_prep": (edit("preps", (0, 0, 0), ["1", "0"]), f"field channels[0].preps {PAIRS}"),
    "null_prep": (edit("preps", (0, 0, 0), [None, 0]), f"field channels[0].preps {PAIRS}"),
    "mapping_effect": (
        lambda entry: entry.update(effects={}), f"field channels[0].effects {PAIRS}"
    ),
    "huge_effect_entry": (
        edit("effects", (0, 0), [10**400, 0]), f"field channels[0].effects {PAIRS}"
    ),
    "nested_list_of_wrong_shape": (
        lambda entry: entry.update(effects=[1, 0, 0, 1]), f"field channels[0].effects {PAIRS}"
    ),
    "text_prep_weight": (
        edit("prep_probs", (0, 0), "1"), "field channels[0].prep_probs must be an array of numbers"
    ),
    "boolean_signs": (
        lambda entry: entry.update(signs=[True, True]),
        "field channels[0].signs must be an array of integers",
    ),
    # numpy would read a boolean among numbers as 1 or 0, a valid value here
    "boolean_among_signs": (
        lambda entry: entry.update(signs=[True, 1]),
        "field channels[0].signs must be an array of integers",
    ),
    "boolean_prep_weight": (
        edit("prep_probs", (0, 0), True),
        "field channels[0].prep_probs must be an array of numbers",
    ),
    "boolean_in_pair": (edit("effects", (0, 0, 1), False), f"field channels[0].effects {PAIRS}"),
}


@st.composite
def exported_decompositions(draw):
    """One or two channels of a builder's output, optionally with every
    effect and prep vector rotated by one Haar unitary so their entries are
    arbitrary doubles rather than short fractions."""
    d = built(*draw(st.sampled_from(DECOMPOSE_CASES)))
    picked = draw(st.lists(st.integers(0, d.m - 1), min_size=1, max_size=2, unique=True))
    chosen = [d.channels[i] for i in picked]
    if draw(st.booleans()):
        u = haar_unitary(2**d.n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        chosen = [
            (c, MPChannel(d.n, ch.signs, ch.effects @ u.T, ch.prep_probs, ch.preps @ u.T))
            for c, ch in chosen
        ]
    return Decomposition(d.n, tuple(chosen), d.label)


def assert_same_arrays(back, d):
    """back has d's width, label and weights, and every channel array of d
    with its dtype, shape and bytes."""
    assert (back.n, back.label) == (d.n, d.label)
    assert [float(c) for c, _ in back.channels] == [float(c) for c, _ in d.channels]
    for (_, ch_back), (_, ch) in zip(back.channels, d.channels, strict=True):
        for name in ("signs", "effects", "prep_probs", "preps"):
            a, b = getattr(ch_back, name), getattr(ch, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


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
        change, message = REJECTED[case]
        data = decomposition_to_json(build_optimal_1q())
        change(data["channels"][0])
        with pytest.raises(InvalidInputError) as excinfo:
            decomposition_from_json(json.loads(json.dumps(data)))
        assert str(excinfo.value) == message

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
        signs = decomposition_to_json(d)["channels"][0]["signs"]
        assert signs == [1, 1] and all(type(a) is int for a in signs)

    @pytest.mark.parametrize("method, n", [("peng", 1), ("teleport", 1), ("mub", 2)])
    def test_pure_preps_are_outer_products_bit_for_bit(self, method, n):
        """Dense terms of a builder's pure preps equal np.outer to the last
        bit, signed zeros included, so the dense verifier sees them as the
        outer products they stand for."""
        for _, ch in build_decomposition(method, n).channels:
            for effect, prep, e, w, chis in zip(
                *ch.dense_terms(), ch.effects, ch.prep_probs, ch.preps
            ):
                assert effect.tobytes() == np.outer(e, e.conj()).tobytes()
                if w[0] == 1.0:
                    assert prep.tobytes() == np.outer(chis[0], chis[0].conj()).tobytes()

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
        """Every complex array written parses back to the same doubles."""
        for _, ch in d.channels:
            for array in (ch.effects, ch.preps):
                data = json.loads(json.dumps({"a": channels._array_to_json(array)}))
                back = channels._array_field(data, "a", "", "c")
                assert back.shape == array.shape and back.tobytes() == array.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(exported_decompositions())
    def test_json_round_trip_keeps_terms(self, d):
        """A loaded channel holds the arrays written, bit for bit."""
        assert_same_arrays(decomposition_from_json(
            json.loads(json.dumps(decomposition_to_json(d)))), d)

    @pytest.mark.parametrize("method, n", DECOMPOSE_CASES)
    def test_builder_output_round_trips_bit_for_bit(self, method, n):
        """The arrays come back bit for bit, and so do the gamma and m the
        file states, so the check on those two fields refuses no saved file."""
        d = built(method, n)
        data = json.loads(json.dumps(decomposition_to_json(d)))
        back = decomposition_from_json(data)
        assert_same_arrays(back, d)
        assert (float(back.gamma), back.m) == (data["gamma"], data["m"])

    @pytest.mark.parametrize("field", ["gamma", "m"])
    def test_gamma_and_m_may_be_left_out(self, field):
        data = decomposition_to_json(build_mub_default(2))
        del data[field]
        back = decomposition_from_json(data)
        assert (float(back.gamma), back.m) == (7.0, 5)

    def test_gamma_within_relative_1e_12_loads(self):
        data = decomposition_to_json(build_mub_default(2))
        data["gamma"] = 7.0 * (1 + 5e-13)
        assert decomposition_from_json(data).m == 5

    @pytest.mark.parametrize("field, value, message", [
        ("gamma", 999, "field gamma is 999, but the channels' weights give 7.0"),
        ("gamma", 7.0 * (1 + 2e-12), "field gamma is 7.0000000000139995, but"),
        ("gamma", "7.0", "field gamma is '7.0', but"),
        ("gamma", True, "field gamma is True, but"),
        ("gamma", float("nan"), "field gamma is nan, but"),
        ("m", 1, "field m is 1, but the file has 5 channels"),
        ("m", 5.0, "field m must be an integer"),
        ("m", True, "field m must be an integer"),
    ], ids=[
        "gamma_off", "gamma_past_tolerance", "gamma_text", "gamma_boolean", "gamma_nan",
        "m_off", "m_float", "m_boolean",
    ])
    def test_stated_gamma_and_m_must_match(self, field, value, message):
        data = decomposition_to_json(build_mub_default(2))
        data[field] = value
        with pytest.raises(InvalidInputError) as excinfo:
            decomposition_from_json(data)
        assert str(excinfo.value).startswith(message)

    @settings(max_examples=30, deadline=None)
    @given(exported_decompositions())
    def test_verify_matches_reference_sum(self, d):
        """Loaded and Haar-rotated channels, whose Pauli vectors carry
        imaginary rounding, verify as the per-term ptm() sum does."""
        assert abs(verify_decomposition(d) - _reference_residual(d)) <= 1e-12

    @pytest.mark.parametrize("n", [-1, 0, 7])
    def test_width_checked_before_matrices(self, monkeypatch, n):
        def no_array(*args):
            raise AssertionError("array parsed before the width check")

        monkeypatch.setattr(channels, "_array_field", no_array)
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


class TestPsdVerdict:
    @pytest.mark.parametrize("method, n", DECOMPOSE_CASES)
    def test_builder_channels_are_certified(self, monkeypatch, method, n):
        """Builders and files pass effect and prep vectors, so the array
        checks certify their channels without any eigensolver or Cholesky
        factorisation."""

        def refuse(*args, **kwargs):
            raise AssertionError("a matrix factorisation ran")

        for name in ("eigh", "eigvalsh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refuse)
        d = build_decomposition(method, n)
        assert decomposition_from_json(decomposition_to_json(d)).n == n
