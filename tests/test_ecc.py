"""Code/hop translation, the weight/bisection identity, and equivalence maps."""

import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import oracle
from longhop import gf2
from longhop.bisection import bisection_fwht, cut_counts, eigenvalues
from longhop.constructions import lh_hd, low_density_b3
from longhop.ecc import (
    EquivalenceMap,
    LinearCode,
    MinChangeResult,
    code_to_hops,
    diagonalize,
    format_code,
    hops_to_code,
    load_code,
    min_change_expansion,
    min_weight,
    parse_code,
)
from longhop.errors import DomainError, FormatError
from longhop.graph import GeneratorSet, distance_profile
from longhop.soldb import REFERENCE_EXAMPLES

# A [7,4] single-error-correcting generator matrix and its hop form.
CODE74 = LinearCode(7, (0b1101000, 0b0110100, 0b1110010, 0b1010001))
HOPS74 = (1, 2, 4, 8, 7, 0xE, 0xB)

# A [4,3] single-parity code; its hop form is the folded three-cube.
CODE43 = LinearCode(4, (0b1100, 0b1010, 0b1001))


@st.composite
def spanning_sets(draw, max_d=6):
    d = draw(st.integers(2, max_d))
    n = 1 << d
    m = draw(st.integers(d, min(n - 1, d + 4)))
    hops = draw(
        st.lists(st.integers(1, n - 1), min_size=m, max_size=m, unique=True)
    )
    assume(gf2.spans(hops, d))
    return GeneratorSet(d, tuple(hops))


def test_linear_code_validation():
    with pytest.raises(DomainError):
        LinearCode(0, (1,))
    with pytest.raises(DomainError):
        LinearCode(3, ())
    with pytest.raises(DomainError):
        LinearCode(3, (8,))


def test_format_code_golden():
    assert format_code(CODE43) == "1100\n1010\n1001\n"


def test_parse_code_round_trip():
    assert parse_code(format_code(CODE74)) == CODE74
    text = "# generator\n1100\n\n1010  # middle\n1001\n"
    assert parse_code(text) == CODE43


@given(st.integers(1, 63).flatmap(lambda width: st.builds(
    LinearCode, st.just(width),
    st.lists(st.integers(0, 2**width - 1), min_size=1, max_size=24),
)))
def test_format_parse_code_round_trip(code):
    assert parse_code(format_code(code)) == code


@pytest.mark.parametrize(
    "text",
    ["", "# nothing\n", "110\n1010\n", "10a0\n", "120\n"],
)
def test_parse_code_rejects(text):
    with pytest.raises(FormatError):
        parse_code(text)


def test_save_load_code(tmp_path):
    path = tmp_path / "gen.code"
    path.write_text(format_code(CODE74))
    assert load_code(path) == CODE74


def test_code_to_hops_goldens():
    assert code_to_hops(CODE74).hops == HOPS74
    assert code_to_hops(CODE43).hops == (1, 2, 4, 7)


def test_code_to_hops_rejects_degenerate():
    with pytest.raises(DomainError):
        code_to_hops(LinearCode(3, (0b110, 0b011, 0b101)))  # dependent rows
    with pytest.raises(DomainError):
        code_to_hops(LinearCode(4, (0b1100, 0b0110, 0b0010)))  # zero column
    with pytest.raises(DomainError):
        code_to_hops(LinearCode(4, (0b1110, 0b0110, 0b0001)))  # equal columns


def test_hops_to_code_golden():
    code = hops_to_code(GeneratorSet(4, HOPS74))
    assert code == CODE74


def test_hops_to_code_needs_span():
    with pytest.raises(DomainError):
        hops_to_code(GeneratorSet(3, (1, 2, 3)))


@given(spanning_sets())
def test_translation_round_trip(gens):
    assert code_to_hops(hops_to_code(gens)) == gens


def test_codes_wider_than_63_columns_translate():
    gens = lh_hd(8, 128)
    code = hops_to_code(gens)
    assert (code.width, code.k) == (128, 8)
    assert parse_code(format_code(code)) == code
    assert code_to_hops(code) == gens
    # Only the int64 codeword enumeration is capped at 63 columns.
    with pytest.raises(DomainError, match="width <= 63"):
        min_weight(code)
    with pytest.raises(DomainError, match="width <= 63"):
        min_weight(LinearCode(64, (1,)))
    assert min_weight(LinearCode(63, (1 << 62,))) == 1
    with pytest.raises(DomainError, match="past the supported limit"):
        min_weight(LinearCode(63, tuple(range(1, 26))))


def test_codewords_and_min_weight():
    # Dependent rows repeat codewords; zero words never count.
    codes = [CODE74, CODE43, LinearCode(4, (0b1100, 0b1100, 0b0011)), LinearCode(3, (1, 1))]
    for code in codes:
        weights = [bin(w).count("1") for w in oracle.codewords(code.rows) if w]
        assert len(oracle.codewords(code.rows)) == 1 << code.k
        assert min_weight(code) == min(weights) == oracle.min_weight(code.rows)
    assert (min_weight(CODE74), min_weight(CODE43)) == (3, 2)
    with pytest.raises(DomainError):
        min_weight(LinearCode(3, (0,)))


def test_min_weight_matches_oracle():
    rng = random.Random(3)
    for _ in range(10):
        rows = tuple(rng.randint(1, 255) for _ in range(4))
        if oracle.gf2_rank(rows) == 0:
            continue
        code = LinearCode(8, rows)
        assert min_weight(code) == oracle.min_weight(rows)


def transform_b(code):
    """b of the code's hop graph from its top nonzero-index eigenvalue,
    (m - lambda) / 2, with no codeword enumerated."""
    gens = code_to_hops(code)
    lam = int(eigenvalues(gens)[1:].max())
    assert (gens.m - lam) % 2 == 0
    return (gens.m - lam) // 2


def test_min_weight_equals_bisection():
    assert min_weight(CODE74) == transform_b(CODE74) == 3
    assert min_weight(CODE43) == transform_b(CODE43) == 2


@given(spanning_sets(max_d=5))
def test_duality_holds_on_random_sets(gens):
    code = hops_to_code(gens)
    assert min_weight(code) == transform_b(code)


def test_equivalence_map_validation():
    with pytest.raises(DomainError):
        EquivalenceMap(3, (1, 2, 3))
    with pytest.raises(DomainError):
        EquivalenceMap(3, (1, 2))
    with pytest.raises(DomainError):
        EquivalenceMap(3, (1, 2, 8))


def test_equivalence_map_identity_and_apply():
    ident = EquivalenceMap(3, (1, 2, 4))
    assert [ident.apply(x) for x in range(8)] == list(range(8))
    swap = EquivalenceMap(3, (2, 1, 4))
    assert swap.apply(0b001) == 0b010
    assert swap.apply(0b101) == 0b110


def test_equivalence_map_rejects_words_outside_its_domain():
    ident = EquivalenceMap(3, (1, 2, 4))
    with pytest.raises(DomainError, match="out of range for d=3"):
        ident.apply(8)
    with pytest.raises(DomainError):
        ident.apply(-1)


# Unit-triangular, hence invertible.
LINEAR_MAP = EquivalenceMap(8, (1, 3, 4, 8, 16, 48, 64, 192))


@given(st.integers(0, 255), st.integers(0, 255))
def test_equivalence_map_is_linear(x, y):
    assert LINEAR_MAP.apply(x ^ y) == LINEAR_MAP.apply(x) ^ LINEAR_MAP.apply(y)


def test_apply_equivalence_preserves_invariants():
    rng = random.Random(15)
    for gens in (GeneratorSet(4, (1, 2, 4, 8, 15)), GeneratorSet(4, HOPS74)):
        base = bisection_fwht(gens)
        base_hist = distance_profile(gens).counts
        for _ in range(10):
            emap = EquivalenceMap(4, tuple(gf2.random_invertible(4, rng)))
            moved = emap.apply_to(gens)
            assert bisection_fwht(moved).b == base.b
            assert sorted(cut_counts(moved).tolist()) == sorted(
                cut_counts(gens).tolist()
            )
            assert distance_profile(moved).counts == base_hist


def test_apply_equivalence_dimension_mismatch():
    with pytest.raises(DomainError):
        EquivalenceMap(4, (1, 2, 4, 8)).apply_to(GeneratorSet(3, (1, 2, 4)))


def test_diagonalize_systematic_form():
    rng = random.Random(23)
    for _ in range(10):
        d = rng.choice([3, 4, 5])
        n = 1 << d
        while True:
            hops = tuple(rng.sample(range(1, n), rng.randint(d, d + 3)))
            if gf2.spans(hops, d):
                break
        gens = GeneratorSet(d, hops)
        normal = diagonalize(gens)
        assert normal.hops[:d] == tuple(1 << i for i in range(d))
        rows = oracle.equivalence(d, gens.hops, normal.hops)
        assert sorted(EquivalenceMap(d, rows).apply_to(gens).hops) == sorted(normal.hops)
        assert bisection_fwht(normal).b == bisection_fwht(gens).b


def test_diagonalize_keeps_systematic_sets():
    gens = GeneratorSet(4, HOPS74)
    assert diagonalize(gens) == gens
    assert oracle.equivalence(4, gens.hops, gens.hops) is not None


def test_the_oracle_recovers_a_map_or_finds_none():
    rng = random.Random(29)
    for gens in (GeneratorSet(4, HOPS74), low_density_b3(6), GeneratorSet(3, (1, 2, 4, 7))):
        for _ in range(5):
            moved = EquivalenceMap(gens.d, gf2.random_invertible(gens.d, rng)).apply_to(gens)
            rows = oracle.equivalence(gens.d, gens.hops, moved.hops[::-1])
            assert set(EquivalenceMap(gens.d, rows).apply_to(gens).hops) == set(moved.hops)
    # b = 2 against b = 1, and hop XOR 0 against 7: no map links them.
    assert oracle.equivalence(3, (1, 2, 4, 7), (1, 2, 4, 3)) is None
    assert oracle.equivalence(3, (1, 2, 4, 7), (7, 6, 5, 3)) is None
    assert oracle.equivalence(3, (1, 2, 4), (1, 2, 4, 7)) is None


def test_diagonalize_needs_span():
    with pytest.raises(DomainError):
        diagonalize(GeneratorSet(3, (1, 2, 3)))


def test_min_change_finds_a_pure_relabeling():
    old = GeneratorSet(4, (1, 2, 4, 8, 15))
    twist = EquivalenceMap(4, (3, 2, 4, 8))
    new = twist.apply_to(old)
    result = min_change_expansion(old, new, seed=1)
    assert isinstance(result, MinChangeResult)
    assert result.rewired == 0
    assert result.gens.hops == old.hops
    assert result.emap.apply_to(new) == result.gens


def test_min_change_expansion_across_dimensions():
    old = GeneratorSet(3, (1, 2, 4))
    new = GeneratorSet(4, (1, 2, 4, 8, 15))
    result = min_change_expansion(old, new, seed=2)
    # Anything spanning d=4 must use at least one hop outside the old span.
    assert 1 <= result.rewired <= 2
    assert result.gens == result.emap.apply_to(new)
    with pytest.raises(DomainError):
        min_change_expansion(new, old)


def test_min_change_respects_budget():
    old = GeneratorSet(3, (1, 2, 4))
    new = GeneratorSet(3, (3, 5, 6, 7))
    result = min_change_expansion(old, new, budget=1, seed=0)
    assert result.rewired >= 0


UNIT16 = tuple(1 << i for i in range(16))
D6M8 = GeneratorSet(6, (1, 10, 43, 38, 31, 49, 48, 24))


# Recorded outputs.  The two d = 6 targets need climbing and random
# restarts, so the rows depend on the seed.
@pytest.mark.parametrize(
    "old, new, budget, seed, rows, rewired",
    [
        (low_density_b3(12), low_density_b3(16), 2000, 0, UNIT16, 9),
        (low_density_b3(12), low_density_b3(16), 2000, 7, UNIT16, 9),
        (low_density_b3(16), REFERENCE_EXAMPLES[2][1], 2000, 0, UNIT16, 22),
        (low_density_b3(16), REFERENCE_EXAMPLES[2][1], 2000, 7, UNIT16, 22),
        (GeneratorSet(6, (5, 20, 28, 60, 16, 51, 29)), D6M8, 300, 0,
         (16, 31, 26, 2, 30, 45), 4),
        (GeneratorSet(6, (5, 20, 28, 60, 16, 51, 29)), D6M8, 300, 7,
         (20, 62, 43, 59, 9, 33), 4),
        (GeneratorSet(5, (20, 9, 24, 12, 26, 23, 29)), D6M8, 300, 0,
         (20, 59, 62, 34, 58, 45), 4),
        (GeneratorSet(5, (20, 9, 24, 12, 26, 23, 29)), D6M8, 300, 7,
         (40, 30, 17, 4, 55, 59), 4),
    ],
)
def test_min_change_expansion_goldens(old, new, budget, seed, rows, rewired):
    result = min_change_expansion(old, new, budget=budget, seed=seed)
    assert result.emap.rows == rows
    assert result.rewired == rewired
    assert result.gens == result.emap.apply_to(new)
