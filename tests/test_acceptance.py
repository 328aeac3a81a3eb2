"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Every numeric constant asserted here was produced by the independent
naive implementations in oracle.py (or by hand enumeration for the tiny
cases) before the library was written, then frozen.
"""

import io
import random
import time
from fractions import Fraction

import numpy as np

import oracle
from longhop.bisection import (
    bisection_fwht,
    brute_force_bisection,
    cut_counts,
    eigenvalues,
    optimize_direct,
)
from longhop.compare import alternative_series, lh_series, versus_hypercube
from longhop.constructions import (
    augment_odd_b,
    b3_overhead,
    folded_cube,
    hd_ladder,
    lh_hd,
    low_density_b3,
)
from longhop.designer import WiringTable, find_solution
from longhop.ecc import (
    EquivalenceMap,
    LinearCode,
    code_to_hops,
    diagonalize,
    hops_to_code,
    min_weight,
)
from longhop.gf2 import random_invertible, spans
from longhop.graph import GeneratorSet, distance_profile
from longhop.soldb import make_record
from longhop.walsh import fwht


def _wiring_rows(gens, radix, lo, hi):
    buf = io.StringIO()
    WiringTable(gens, radix).write(buf, lo, hi)
    return buf.getvalue().splitlines()[1:]


def _timed(limit):
    start = time.perf_counter()

    def check():
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"took {elapsed:.2f}s, limit {limit}s"

    return check


def test_criterion_1_exact_goldens():
    """criterion 1: frozen goldens for the worked examples, under 1s each"""
    done = _timed(1.0)
    rep = bisection_fwht(GeneratorSet(3, (1, 2, 4, 7)))
    assert (rep.b, rep.B) == (2, 8)
    done()

    done = _timed(1.0)
    fq4 = GeneratorSet(4, (1, 2, 4, 8, 0xF))
    assert bisection_fwht(fq4).B == 16
    assert oracle.cut_edges(4, fq4.hops, oracle.walsh_side(4, 4)) == 16
    done()

    done = _timed(1.0)
    code = LinearCode(7, (0b1101000, 0b0110100, 0b1110010, 0b1010001))
    gens = code_to_hops(code)
    assert gens.hops == (1, 2, 4, 8, 7, 0xE, 0xB)
    assert min_weight(code) == 3
    rep = bisection_fwht(gens)
    assert (rep.b, rep.B) == (3, 24)
    assert 2 * min_weight(code) == gens.m - int(eigenvalues(gens)[1:].max())
    done()

    done = _timed(1.0)
    lifted = augment_odd_b(gens)
    assert lifted.hops == gens.hops + (0xD,)
    assert bisection_fwht(lifted).b == 4
    done()


def test_criterion_2_engine_equivalence():
    """criterion 2: codeword weights, fwht, the direct definition and brute force agree on 100 sets"""
    done = _timed(30.0)
    rng = random.Random(0xB15EC7)
    dims = [3] * 50 + [4] * 50
    for d in dims:
        n = 1 << d
        while True:
            m = rng.randint(d, d + 3)
            hops = tuple(rng.sample(range(1, n), m))
            if spans(hops, d):
                break
        gens = GeneratorSet(d, hops)
        fast = bisection_fwht(gens)
        counts = cut_counts(gens)
        assert counts.tolist() == oracle.cut_counts(gens.d, gens.hops)
        transform = (gens.m - eigenvalues(gens)) >> 1
        assert np.array_equal(counts, transform)
        B, side = brute_force_bisection(gens)
        assert B == fast.B
        assert side & 1 and side.bit_count() == n // 2
        nodes = {v for v in range(n) if side >> v & 1}
        assert oracle.cut_edges(d, hops, nodes) == B
    done()


def test_criterion_3_end_to_end(seeded_db):
    """criterion 3: seeded store answers the three reference requirements"""
    choice = find_solution(seeded_db, 96, 12)
    rec = choice.record
    assert (rec.d, rec.m, rec.b, rec.diameter) == (5, 9, 3, 3)
    assert Fraction(rec.total, rec.n) == Fraction(54, 32)
    assert repr(rec.total / rec.n) == "1.6875"
    assert _wiring_rows(rec.gens, 12, 5, 5) == [
        "5:\t04\t07\t01\t0D\t15\t0B\t0A\t11\t1C\t**\t**\t**"
    ]

    choice = find_solution(seeded_db, 1536, 24)
    rec = choice.record
    assert (rec.d, rec.m, rec.b, rec.diameter) == (8, 18, 6, 3)
    assert Fraction(rec.total, rec.n) == Fraction(585, 256)
    assert abs(rec.total / rec.n - 2.2851562) <= 5e-7
    rows = _wiring_rows(rec.gens, 24, 0, 15)
    assert rows[0] == (
        "0:\t01\t02\t04\t08\t10\t20\t40\t80\t1A\t2D\t47\t78"
        "\t7E\t8E\t9D\tB2\tD1\tFB\t**\t**\t**\t**\t**\t**"
    )
    for v in range(16):
        cells = rows[v].split("\t")
        assert cells[0] == f"{v:X}:"
        assert cells[1:19] == [f"{v ^ h:02X}" for h in rec.gens.hops]
        assert cells[19:] == ["**"] * 6

    choice = find_solution(seeded_db, 655360, 48)
    rec = choice.record
    assert (rec.d, rec.m, rec.b, rec.diameter) == (16, 38, 10, 5)
    assert abs(rec.total / rec.n - 4.061691) <= 5e-7
    done = _timed(10.0)
    fresh = make_record(rec.gens, "recheck")
    assert (fresh.b, fresh.diameter, fresh.total) == (10, 5, 266187)
    done()


def test_criterion_4_construction_laws():
    """criterion 4: half-distance law to d=8 and b=3 at the stated overhead"""
    for d in range(3, 9):
        n = 1 << d
        for m in hd_ladder(d):
            gens = lh_hd(d, m)
            assert bisection_fwht(gens).b == (m + 1) // 2
            prof = distance_profile(gens)
            assert prof.diameter == (1 if m == n - 1 else 2)
            assert prof.avg == Fraction(2 * n - 2 - m, n)
            # The remembered 2 - m/n form overshoots by exactly 2/n.
            assert Fraction(2) - Fraction(m, n) - prof.avg == Fraction(2, n)

    overheads = {3: 3, 4: 3, 5: 4, 6: 4, 7: 4, 8: 4, 9: 4, 10: 4, 11: 4, 12: 5}
    for d in range(3, 13):
        gens = low_density_b3(d)
        L = b3_overhead(d)
        assert L == overheads[d]
        assert gens.m == d + L
        assert bisection_fwht(gens).b == 3


def test_criterion_5_equivalence_invariance():
    """criterion 5: metrics survive 50 random relabelings per base set"""
    bases = [
        GeneratorSet(4, (1, 2, 4, 8, 0xF)),
        GeneratorSet(4, (1, 2, 4, 8, 7, 0xE, 0xB)),
        lh_hd(5, 16),
        folded_cube(6),
        low_density_b3(6),
        GeneratorSet(6, (3, 5, 17, 31, 44, 52, 63)),
    ]
    rng = random.Random(2024)
    for gens in bases:
        base_rep = bisection_fwht(gens)
        base_counts = sorted(cut_counts(gens).tolist())
        base_hist = distance_profile(gens).counts
        for _ in range(50):
            emap = EquivalenceMap(gens.d, tuple(random_invertible(gens.d, rng)))
            moved = emap.apply_to(gens)
            assert bisection_fwht(moved).b == base_rep.b
            assert sorted(cut_counts(moved).tolist()) == base_counts
            assert distance_profile(moved).counts == base_hist
        normal = diagonalize(gens)
        assert normal.hops[: gens.d] == tuple(1 << i for i in range(gens.d))
        assert oracle.equivalence(gens.d, gens.hops, normal.hops) is not None
        assert bisection_fwht(normal).b == base_rep.b
        assert sorted(cut_counts(normal).tolist()) == base_counts
        assert distance_profile(normal).counts == base_hist


def test_criterion_6_walsh_layer():
    """criterion 6: orthogonality, xor closure, balance, transform checks"""
    n = 256
    # Hadamard rows from the library's own transform of the unit vectors.
    H = np.stack([fwht(unit) for unit in np.eye(n, dtype=np.int64)])
    assert np.array_equal(H @ H.T, n * np.eye(n, dtype=np.int64))
    idx = np.arange(n)
    for j in range(n):
        assert np.array_equal(H[j] * H, H[j ^ idx])
    assert (H[1:].sum(axis=1) == 0).all()

    rng = np.random.default_rng(60)
    f = rng.integers(-100, 100, size=256)
    want = oracle.transform(f.tolist())
    assert fwht(f).tolist() == want
    g = rng.integers(-1000, 1000, size=4096)
    assert np.array_equal(fwht(fwht(g.copy())), 4096 * g)


def test_criterion_7_eigen_equation():
    """criterion 7: A U_k = lambda_k U_k on 20 random sets up to n=64"""
    rng = random.Random(7)
    for _ in range(20):
        d = rng.choice([3, 4, 5, 6])
        n = 1 << d
        while True:
            m = rng.randint(d, min(n - 1, d + 4))
            hops = tuple(rng.sample(range(1, n), m))
            if spans(hops, d):
                break
        gens = GeneratorSet(d, hops)
        A = np.array(oracle.adjacency(d, hops))
        H = np.stack([fwht(unit) for unit in np.eye(n, dtype=np.int64)])
        lam = fwht(np.isin(np.arange(n), gens.hops).astype(np.int64))
        assert np.array_equal(A @ H.T, H.T * lam[None, :])


def test_criterion_8_exhaustive_optimizer():
    """criterion 8: the exhaustive search finds b=2 at d=3, m=4"""
    gens, rep = optimize_direct(3, 4)
    assert rep.b == 2
    assert gens.hops == (1, 2, 4, 7)


def test_criterion_9_comparison_identities(seeded_db):
    """criterion 9: cable identity on every row and a nondecreasing yield"""
    rows = []
    rows += lh_series(seeded_db.records(), radix=300)
    rows += alternative_series("hypercube", 256)
    rows += alternative_series("folded_cube", 256)
    rows += alternative_series("flattened_butterfly", 24)
    rows += alternative_series("fat_tree2", 16)
    rows += alternative_series("fat_tree3", 16)
    rows += alternative_series("dragonfly", 19)
    assert rows
    for row in rows:
        assert Fraction(row.cables) == Fraction(row.n) * row.degree / 2
        assert row.cables_per_port == Fraction(row.cables, row.ports)

    yields = versus_hypercube(seeded_db, 256, range(3, 9))
    assert [(r.d, r.lh_yield) for r in yields] == [
        (3, 4), (4, 8), (5, 16), (6, 32), (7, 64), (8, 64),
    ]
    series = [r.lh_yield for r in yields]
    assert series == sorted(series)
    assert all(r.cube_yield == 1 for r in yields)


def test_criterion_duality_identity():
    """bonus check: min codeword weight equals b on random translations"""
    rng = random.Random(74)
    for _ in range(25):
        d = rng.choice([3, 4, 5])
        n = 1 << d
        while True:
            m = rng.randint(d, min(n - 1, d + 4))
            hops = tuple(rng.sample(range(1, n), m))
            if spans(hops, d):
                break
        gens = GeneratorSet(d, hops)
        code = hops_to_code(gens)
        assert min_weight(code) == bisection_fwht(gens).b
        assert 2 * min_weight(code) == gens.m - int(eigenvalues(gens)[1:].max())
