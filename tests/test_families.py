"""Tests for the commuting-family partition, with brute-force and dense oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wirecut.errors import InvalidInputError, ResourceLimitError
from wirecut.families import (
    _IRREDUCIBLE,
    CommutingFamily,
    FamilyPartition,
    _marks_every_key,
    _line_family,
    _trace_by_squaring,
    _trace_mask,
    check_generators,
    expand_family,
    generate_partition,
    gf_mul,
    validate_partition,
)
from wirecut.pauli import PauliString

from oracles import (
    commutes,
    dense_pauli,
    family_members,
    gf2_basis_all_pivots,
    mub_overlap_deviation,
)


def product(p, q):
    """The product p q with its phase dropped: XOR of the masks."""
    return PauliString(p.n, p.zbits ^ q.zbits, p.xbits ^ q.xbits)


def labels(family):
    return set(family.member_labels())


def poly_mul_mod(a, b, poly, n):
    """Polynomial product of bit-masks modulo poly, plain shift-and-xor."""
    out = 0
    shift = 0
    while b >> shift:
        if (b >> shift) & 1:
            out ^= a << shift
        shift += 1
    # reduce
    for bit in range(out.bit_length() - 1, n - 1, -1):
        if (out >> bit) & 1:
            out ^= poly << (bit - n)
    return out


def poly_gcd(a, b):
    while b:
        # reduce a mod b over GF(2)
        while a.bit_length() >= b.bit_length() and a:
            a ^= b << (a.bit_length() - b.bit_length())
        a, b = b, a
    return a


class TestFieldTables:
    @pytest.mark.parametrize("n", sorted(_IRREDUCIBLE))
    def test_polynomials_irreducible(self, n):
        """Rabin test: x^(2^n) = x mod p and gcd(x^(2^(n/q)) - x, p) = 1."""
        poly = _IRREDUCIBLE[n]
        assert poly.bit_length() == n + 1

        x_red = poly_mul_mod(0b10, 0b1, poly, n)  # x reduced mod poly

        def x_pow_2k(k):
            cur = x_red
            for _ in range(k):
                cur = poly_mul_mod(cur, cur, poly, n)
            return cur

        assert x_pow_2k(n) == x_red  # x^(2^n) == x in the quotient ring
        primes = {q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))}
        for q in primes:
            h = x_pow_2k(n // q) ^ x_red
            assert poly_gcd(poly, h) == 1

    @pytest.mark.parametrize("n", sorted(_IRREDUCIBLE))
    def test_trace_mask_matches_squaring_definition(self, n):
        for a in range(min(2**n, 512)):
            assert (a & _trace_mask(n)).bit_count() & 1 == _trace_by_squaring(a, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_field_axioms_spot(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            a, b, c = (int(v) for v in rng.integers(0, 2**n, size=3))
            assert gf_mul(a, gf_mul(b, c, n), n) == gf_mul(gf_mul(a, b, n), c, n)
            assert gf_mul(a, b ^ c, n) == gf_mul(a, b, n) ^ gf_mul(a, c, n)
            assert gf_mul(a, 1, n) == a


    @pytest.mark.parametrize("n", range(1, 9))
    def test_line_family_matches_field_definition(self, n):
        """Generator k: X-part x^k, Z-part bit j = Tr(lam * x^k * x^j)."""
        for lam in range(2**n):
            gens = _line_family(n, lam).generators
            for k, g in enumerate(gens):
                beta = gf_mul(lam, 1 << k, n)
                zbits = sum(_trace_by_squaring(gf_mul(beta, 1 << j, n), n) << j for j in range(n))
                assert (g.zbits, g.xbits) == (zbits, 1 << k)


class TestGeneratePartition:
    def test_n1_families(self):
        part = generate_partition(1)
        assert [labels(f) for f in part.families] == [{"X"}, {"Y"}, {"Z"}]

    def test_n2_families_match_known_grouping(self):
        part = generate_partition(2)
        fams = [labels(f) for f in part.families]
        expected = [
            {"XI", "IX", "XX"},
            {"YZ", "ZX", "XY"},
            {"XZ", "ZY", "YX"},
            {"YI", "IY", "YY"},
            {"ZI", "IZ", "ZZ"},
        ]
        assert fams[0] == expected[0]
        assert fams[-1] == expected[-1]
        assert sorted(map(sorted, fams)) == sorted(map(sorted, expected))

    def test_n3_exhaustive_invariants(self):
        part = generate_partition(3)
        assert len(part.families) == 9
        assert all(len(family_members(f)) == 7 for f in part.families)
        validate_partition(part)
        union = set().union(*map(family_members, part.families))
        assert len(union) == 63

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_structural_invariants(self, n):
        part = generate_partition(n)
        validate_partition(part)
        if n <= 3:
            for fam in part.families:
                members = family_members(fam)
                assert len(members) == 2**n - 1
                for p, q in itertools.combinations(members, 2):
                    assert commutes(p, q)

    def test_deterministic(self):
        assert generate_partition(3) == generate_partition(3)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_member_labels_match_expanded_members(self, n):
        for fam in generate_partition(n).families:
            assert fam.member_labels() == sorted(p.label for p in expand_family(fam.generators))

    def test_out_of_range(self):
        with pytest.raises(ResourceLimitError):
            generate_partition(13)
        with pytest.raises(ResourceLimitError):
            generate_partition(0)

    @pytest.mark.parametrize("labels", [("XI", "XI"), ("XI", "ZI")], ids=["dependent", "anticommuting"])
    def test_validate_rejects_bad_generators(self, labels):
        part = generate_partition(2)
        with pytest.raises(InvalidInputError):
            bad = CommutingFamily(2, tuple(PauliString.from_label(s) for s in labels))
            validate_partition(FamilyPartition(2, (bad,) + part.families[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_validate_rejects_the_z_family_first(self, n):
        """The all-Z family moved to the front: every check but the order one
        still passes, since the families and their union are unchanged."""
        fams = generate_partition(n).families
        with pytest.raises(InvalidInputError, match="last family must be the all-Z family"):
            validate_partition(FamilyPartition(n, fams[-1:] + fams[:-1]))

    def test_validate_rejects_a_repeated_family(self):
        fams = generate_partition(2).families
        with pytest.raises(InvalidInputError, match="disjointly cover"):
            validate_partition(FamilyPartition(2, (fams[0],) + fams[:3] + fams[-1:]))

    def test_validate_rejects_one_string_twice_and_one_missing(self):
        """At n = 1, (X, X, Z) has the right family count, a last all-Z
        family and three keys, but X twice and no Y."""
        x, z = (CommutingFamily(1, (PauliString.from_label(s),)) for s in "XZ")
        with pytest.raises(InvalidInputError, match="disjointly cover"):
            validate_partition(FamilyPartition(1, (x, x, z)))

    def test_validate_full_width(self):
        validate_partition(generate_partition(12))

    @pytest.mark.parametrize("n", [0, 13])
    def test_out_of_range_names_the_range(self, n):
        with pytest.raises(ResourceLimitError, match=rf"n must be in 1\.\.12, got {n}$"):
            generate_partition(n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_against_brute_force_partition_oracle(self, n):
        """A greedy brute-force construction (with backtracking over seeds) also
        partitions the strings; the partitions need not coincide, but both must
        be disjoint covers by maximal commuting closed families, and the dense
        commutator confirms every family our generator emits."""
        strings = [
            PauliString.from_label("".join(t)) for t in itertools.product("IXYZ", repeat=n)
        ][1:]
        greedy = brute_force_partition(strings, n)
        assert len(greedy) == 2**n + 1
        assert all(len(f) == 2**n - 1 for f in greedy)
        assert set().union(*greedy) == set(strings)

        ours = generate_partition(n)
        assert set().union(*map(family_members, ours.families)) == set(strings)
        for fam in ours.families:
            for p, q in itertools.combinations(family_members(fam), 2):
                comm = dense_pauli(p) @ dense_pauli(q) - dense_pauli(q) @ dense_pauli(p)
                assert np.max(np.abs(comm)) < 1e-12


def brute_force_partition(strings, n):
    """Exhaustive partition search over closed commuting families (test oracle)."""
    from wirecut.pauli import gf2_independent

    def key(p):
        return (p.zbits << n) | p.xbits

    def families_containing(seed, unused):
        seen = set()

        def extend(gens, vecs):
            if len(gens) == n:
                span = expand_family(gens)
                if span not in seen and span <= unused:
                    seen.add(span)
                    yield span
                return
            for q in sorted(unused, key=lambda p: p.label):
                v = key(q)
                if all(commutes(q, g) for g in gens) and gf2_independent(vecs + [v]):
                    yield from extend(gens + [q], vecs + [v])

        yield from extend([seed], [key(seed)])

    def grow(unused):
        if not unused:
            return []
        seed = min(unused, key=lambda p: p.label)
        for fam in families_containing(seed, unused):
            rest = grow(unused - fam)
            if rest is not None:
                return [fam] + rest
        return None

    out = grow(frozenset(strings))
    assert out is not None, "brute-force oracle failed to partition"
    return out


@st.composite
def generator_tuples(draw):
    """n <= 4 and n generators: random strings, or a partition family's
    generators mixed by random products (a product of one with itself
    leaves the identity, so these can be invalid too)."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        masks = st.integers(0, 2**n - 1)
        gens = [PauliString(n, draw(masks), draw(masks)) for _ in range(n)]
    else:
        gens = list(draw(st.sampled_from(generate_partition(n).families)).generators)
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for i, j in draw(st.lists(pairs, max_size=6)):
            gens[i] = product(gens[i], gens[j])
    return n, tuple(gens)


class TestFamilyConstruction:
    @pytest.mark.parametrize(
        "labels",
        [("XI", "XI"), ("II", "XX"), ("XI", "ZI")],
        ids=["dependent", "identity", "anticommuting"],
    )
    def test_bad_generators_rejected(self, labels):
        with pytest.raises(InvalidInputError):
            CommutingFamily(2, tuple(PauliString.from_label(s) for s in labels))

    @settings(max_examples=300, deadline=None)
    @given(generator_tuples())
    def test_check_generators_is_a_rank_and_a_pairwise_commutes_check(self, case):
        """Dependent tuples fail first, then non-commuting ones, as the
        rank of the vectors (by the plain reduction) and `commutes` on
        every pair say."""
        n, gens = case
        vecs = [(g.zbits << n) | g.xbits for g in gens]
        if len(gf2_basis_all_pivots(vecs)) < len(gens):
            message = "generators are linearly dependent over GF(2)"
        elif not all(commutes(p, q) for p, q in itertools.combinations(gens, 2)):
            message = "generators do not mutually commute"
        else:
            assert check_generators(gens) == vecs
            return
        with pytest.raises(InvalidInputError) as excinfo:
            check_generators(gens)
        assert str(excinfo.value) == message

    @settings(max_examples=300, deadline=None)
    @given(generator_tuples())
    def test_construction_agrees_with_check_generators(self, case):
        n, gens = case
        try:
            check_generators(gens)
        except InvalidInputError:
            with pytest.raises(InvalidInputError):
                CommutingFamily(n, gens)
            return
        labels = CommutingFamily(n, gens).member_labels()
        assert len(set(labels)) == len(labels) == 2**n - 1
        assert "I" * n not in labels
        assert labels == sorted(p.label for p in expand_family(gens))
        products = set()  # reference: the phase-free product of every subset
        for subset in range(1, 2**n):
            p = PauliString(n, 0, 0)
            for k in range(n):
                if subset >> k & 1:
                    p = product(p, gens[k])
            products.add(p.label)
        assert labels == sorted(products)


class TestPartitionProperties:
    """The generated partition passes validate_partition for every n <= 8,
    and the validator rejects it after one swap, drop or duplication."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8))
    def test_generated_partition_is_valid(self, n):
        part = generate_partition(n)
        validate_partition(part)
        for fam in part.families:
            keys = fam.member_keys()
            assert len(keys) == len(np.unique(keys)) == 2**n - 1
            assert np.all(keys != 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_swapped_generator_rejected(self, n, data):
        """From n = 2 on, swapping generators between two families leaves a
        family with members outside both; at n = 1 a swap only reorders."""
        fams = list(generate_partition(n).families)
        i, j = data.draw(st.lists(st.integers(0, 2**n), min_size=2, max_size=2, unique=True))
        a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        gens_i, gens_j = list(fams[i].generators), list(fams[j].generators)
        gens_i[a], gens_j[b] = gens_j[b], gens_i[a]
        with pytest.raises(InvalidInputError):
            fams[i], fams[j] = CommutingFamily(n, tuple(gens_i)), CommutingFamily(n, tuple(gens_j))
            validate_partition(FamilyPartition(n, tuple(fams)))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 7), st.data())
    def test_cover_rejects_one_key_twice_and_one_missing(self, n, data):
        """The same key count, 4^n - 1, with one string overwritten by another."""
        keys = np.concatenate([fam.member_keys() for fam in generate_partition(n).families])
        assert _marks_every_key([keys], n)
        i, j = data.draw(st.lists(st.integers(0, len(keys) - 1), min_size=2, max_size=2, unique=True))
        keys[i] = keys[j]
        assert not _marks_every_key([keys], n)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_dropped_or_duplicated_family_rejected(self, n, data):
        fams = list(generate_partition(n).families)
        i, j = data.draw(st.lists(st.integers(0, 2**n), min_size=2, max_size=2, unique=True))
        for broken in (
            fams[:i] + fams[i + 1 :],
            fams[:i] + [fams[j]] + fams[i + 1 :],
            fams + [fams[j]],
        ):
            with pytest.raises(InvalidInputError):
                validate_partition(FamilyPartition(n, tuple(broken)))


class TestGenerators:
    def test_yz_zx_family_closure(self):
        gens = [PauliString.from_label(s) for s in ("YZ", "ZX")]
        members = expand_family(gens)
        assert members == {PauliString.from_label(s) for s in ("YZ", "ZX", "XY")}
        # the third member is the (phase-dropped) product of the generators,
        # confirmed against the dense matrix product up to a phase
        prod = product(gens[0], gens[1])
        assert prod in members
        full = dense_pauli(gens[0]) @ dense_pauli(gens[1])
        phase = np.trace(dense_pauli(prod) @ full) / 4
        assert abs(abs(phase) - 1) < 1e-12
        np.testing.assert_allclose(full, phase * dense_pauli(prod), atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            # anticommuting pair cannot generate a family
            expand_family([PauliString.from_label("X"), PauliString.from_label("Z")])
        with pytest.raises(InvalidInputError):
            expand_family(
                [PauliString.from_label("XI"), PauliString.from_label("XI")]
            )

    def test_expand_widest_strings(self):
        # packed keys (z << n) | x reach 2^32 - 1 at the widest n = 16
        top = PauliString(16, 0xFFFF, 0xFFFF)
        low = PauliString(16, 0xC000, 0)
        assert expand_family([top, low]) == {top, low, PauliString(16, 0x3FFF, 0xFFFF)}

    def test_expand_examples(self):
        assert {p.label for p in expand_family([PauliString.from_label("X")])} == {"X"}
        two = expand_family(
            [PauliString.from_label("XI"), PauliString.from_label("IX")]
        )
        assert {p.label for p in two} == {"XI", "IX", "XX"}
        yzzx = expand_family(
            [PauliString.from_label("YZ"), PauliString.from_label("ZX")]
        )
        assert {p.label for p in yzzx} == {"YZ", "ZX", "XY"}


class TestMubOverlap:
    def test_single_qubit_known_mubs(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        s = np.diag([1, 1j])
        assert mub_overlap_deviation([h, s @ h, np.eye(2)]) < 1e-12

    def test_duplicate_basis_maximally_biased(self):
        h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        dev = mub_overlap_deviation([h, h])
        np.testing.assert_allclose(dev, 1 - 0.5, atol=1e-12)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            mub_overlap_deviation([np.ones((2, 2))])

    def test_synthesized_bases_unbiased_up_to_n6(self):
        from wirecut.synth import circuit_unitary, synthesize

        for n in (4, 6):
            part = generate_partition(n)
            bases = [circuit_unitary(synthesize(f)) for f in part.families[:-1]]
            bases.append(np.eye(2**n, dtype=complex))
            assert mub_overlap_deviation(bases) < 1e-10
