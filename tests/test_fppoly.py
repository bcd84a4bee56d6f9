"""Irreducibility test and the packed arithmetic under it.

The references below are the earlier Ben-Or loops: gcd(g, z^(p^i) - z) = 1
for every 1 <= i <= d/2, one on residue tuples for every p and one on F_2
bitmasks for large binary degrees.  They share no code with the packed test.
"""

import random
from itertools import product

import pytest

from hardmat import fppoly
from hardmat.fields import find_irreducible, is_prime

from polyref import add, degree, gcd, mod_monic, mul, neg, sub

BIG_PRIME = 1_000_003
HUGE_PRIME = 999_999_999_989  # slots wider than 8 bytes


def _pow_mod(base, e, g, p):
    out = (1,)
    while e:
        if e & 1:
            out = mod_monic(mul(out, base, p), g, p)
        e >>= 1
        if e:
            base = mod_monic(mul(base, base, p), g, p)
    return out


def ben_or(g, p):
    """Reference test on residue tuples."""
    g = fppoly.trim(g)
    d = len(g) - 1
    if d < 1:
        return False
    h = z = (0, 1)
    for _ in range(d // 2):
        h = _pow_mod(h, p, g, p)
        if degree(gcd(sub(h, z, p), g, p)) != 0:
            return False
    return True


def _f2_mod(a, g):
    dg = g.bit_length() - 1
    while a.bit_length() - 1 >= dg:
        a ^= g << (a.bit_length() - 1 - dg)
    return a


def f2_ben_or(g):
    """Reference test on F_2 bitmasks (bit i is the coefficient of z^i)."""
    d = g.bit_length() - 1
    h = 2
    for _ in range(d // 2):
        h = _f2_mod(int("0".join(bin(h)[2:]), 2), g)  # h(z)^2 = h(z^2)
        a, b = g, h ^ 2
        while b:
            a, b = b, _f2_mod(a, b)
        if a != 1:
            return False
    return True


def test_sub_matches_adding_the_negation():
    rng = random.Random(8)
    for p in (2, 3, 7, BIG_PRIME):
        for _ in range(60):
            a = fppoly.trim(tuple(rng.randrange(p) for _ in range(rng.randrange(7))))
            b = fppoly.trim(tuple(rng.randrange(p) for _ in range(rng.randrange(7))))
            for x, y in ((a, b), (b, a), (a, a)):
                assert sub(x, y, p) == add(x, neg(y, p), p)


def _bits(g):
    return tuple((g >> i) & 1 for i in range(g.bit_length()))


def _random_monic(rng, p, d):
    return tuple(rng.randrange(p) for _ in range(d)) + (1,)


def _random_irreducible(rng, p, d, test=fppoly.is_irreducible):
    for _ in range(50 * d):  # about one in d monic polynomials is irreducible
        g = _random_monic(rng, p, d)
        if test(g, p):
            return g
    raise AssertionError(f"no irreducible of degree {d} over F_{p} found")


@pytest.mark.parametrize("p,top", [(2, 14), (3, 7), (5, 5), (7, 4)])
def test_every_small_monic_against_reference(p, top):
    for d in range(1, top + 1):
        for low in product(range(p), repeat=d):
            g = low + (1,)
            assert fppoly.is_irreducible(g, p) == ben_or(g, p), g


@pytest.mark.parametrize("d", [15, 32, 33, 48, 64, 100, 150, 211, 256, 300])
def test_random_dense_binary_against_reference(d):
    rng = random.Random(d)
    samples = [(1 << d) | rng.getrandbits(d) for _ in range(40)]
    while not f2_ben_or(samples[-1]):  # at least one irreducible
        samples.append((1 << d) | rng.getrandbits(d))
    for g in samples:
        assert fppoly.is_irreducible(_bits(g), 2) == f2_ben_or(g), g


@pytest.mark.parametrize("p,d", [(3, 15), (3, 32), (3, 41), (5, 33), (7, 32)])
def test_random_dense_odd_against_reference(p, d):
    rng = random.Random(p * 1000 + d)
    samples = [_random_monic(rng, p, d) for _ in range(20)]
    samples.append(_random_irreducible(rng, p, d, test=ben_or))
    for g in samples:
        assert fppoly.is_irreducible(g, p) == ben_or(g, p), g


@pytest.mark.parametrize("p", [BIG_PRIME, HUGE_PRIME])
def test_large_prime_against_reference(p):
    assert is_prime(p)
    rng = random.Random(p)
    found = 0
    for d in range(1, 7):
        for _ in range(6):
            g = _random_monic(rng, p, d)
            expected = ben_or(g, p)
            found += expected
            assert fppoly.is_irreducible(g, p) == expected, g
    assert found >= 3


def _first_irreducibles(p, e, count):
    out = []
    for low in product(range(p), repeat=e):
        g = low[::-1] + (1,)
        if fppoly.is_irreducible(g, p):
            out.append(g)
            if len(out) == count:
                return out


@pytest.mark.parametrize("p,e,count", [(2, 17, 2), (2, 16, 3), (3, 16, 2)])
def test_rabin_gcd_rejects_equal_degree_products(p, e, count):
    # The product of distinct irreducibles of degree e > the Ben-Or prefix
    # divides z^(p^d) - z; only the gcd at d/r = e can reject it.
    factors = _first_irreducibles(p, e, count)
    g = (1,)
    for f in factors:
        g = mul(g, f, p)
    d = len(g) - 1
    h = (0, 1)
    for _ in range(d):
        h = _pow_mod(h, p, g, p)
    assert h == (0, 1)
    assert all(fppoly.is_irreducible(f, p) for f in factors)
    assert not fppoly.is_irreducible(g, p)
    assert not fppoly.is_irreducible(mul(factors[0], factors[0], p), p)


def test_against_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    rng = random.Random(1904)
    cases = [(2, 40), (2, 97), (3, 34), (3, 60), (5, 36), (11, 32), (BIG_PRIME, 33)]
    for p, d in cases:
        for g in [_random_monic(rng, p, d) for _ in range(3)] + [
            _random_irreducible(rng, p, d)
        ]:
            expected = sympy.Poly(list(reversed(g)), z, modulus=p).is_irreducible
            assert fppoly.is_irreducible(g, p) == expected, (p, g)


@pytest.mark.parametrize(
    "p,d", [(3, 2), (3, 40), (5, 7), (BIG_PRIME, 5), (HUGE_PRIME, 4)]
)
def test_packed_mulmod_matches_tuples(p, d):
    rng = random.Random(d)
    g = _random_monic(rng, p, d)
    ring = fppoly._FpRing(g, p)
    ring._setup()
    for _ in range(10):
        a, b = (fppoly.trim(_random_monic(rng, p, d)[:-1]) for _ in range(2))
        want = mod_monic(mul(a, b, p), g, p)
        got = ring.mulmod(ring.pack(list(a) or [0]), ring.pack(list(b) or [0]))
        assert fppoly.trim(ring.unpack(got)) == want


@pytest.mark.parametrize("g", [(1 << 1281) | 1649, (1 << 300) | (1 << 150) | 3])
def test_binary_fold_matches_long_division(g):
    d = g.bit_length() - 1
    ring = fppoly._F2Ring(g, d)
    ring._setup()
    assert ring._reduce == ring._fold
    rng = random.Random(d)
    for _ in range(20):
        h = rng.getrandbits(d)
        square = int("0".join(bin(h)[2:]), 2)
        assert ring.frob(h) == _f2_mod(square, g)


def test_lex_first_moduli_at_the_benchmark_degrees():
    # `hard finite` needs deg 10 t Delta + 1: 1281 at p=2 n=3 t=2 and 161 at
    # p=3 n=2 t=2.  Scan indices 1649 and 332 mean 1650 + 333 = 1983
    # candidates tried.
    assert find_irreducible(2, 1281) == _bits((1 << 1281) | 1649)
    g3 = find_irreducible(3, 161)
    assert len(g3) == 162 and sum(c * 3**i for i, c in enumerate(g3[:-1])) == 332


SMALL_PRIMES = [q for q in range(2, 32) if is_prime(q)]


def _binomial(d, k):
    """z^d + k, low-degree-first."""
    return (k,) + (0,) * (d - 1) + (1,)


def _capelli(p, d):
    """The k < p with z^d + k irreducible by fppoly's Capelli test."""
    test = fppoly._binomial_test(p, d)
    return [k for k in range(p) if test and test(k)]


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_binomials_by_capelli_match_ben_or(p):
    # d runs over primes, prime powers and 4 | d, p over 1 and 3 mod 4: for
    # p = 3 mod 4 and 4 | d the -4 F_p^4 clause refuses every non-square a
    for d in range(2, 17):
        expected = [k for k in range(p) if fppoly.is_irreducible(_binomial(d, k), p)]
        assert _capelli(p, d) == expected, d


def test_binomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    for p in (101, 103, BIG_PRIME):
        for d in (2, 3, 4, 6, 8, 9, 10, 12):
            test = fppoly._binomial_test(p, d)
            for k in list(range(12)) + [p - 1, p // 2]:
                expected = sympy.Poly(z**d + k, z, modulus=p).is_irreducible
                assert bool(test and test(k)) == expected, (p, d, k)


def test_scan_builds_per_degree_tables_once():
    # The odd-p slot layout depends only on (p, d), so a scan builds it for
    # its first candidate and reuses it after.
    fppoly._fp_layout.cache_clear()
    find_irreducible(3, 100)
    info = fppoly._fp_layout.cache_info()
    assert (info.misses, info.hits > 0) == (1, True)


def test_each_ring_is_set_up_once(monkeypatch):
    rings = []
    for cls in (fppoly._F2Ring, fppoly._FpRing):
        setup = cls._setup
        monkeypatch.setattr(
            cls, "_setup", lambda self, setup=setup: (rings.append(self), setup(self))
        )
    g2, g3 = _bits((1 << 1281) | 1649), find_irreducible(3, 40)
    rings.clear()
    assert fppoly.is_irreducible(g2, 2) and fppoly.is_irreducible(g3, 3)
    assert not fppoly.is_irreducible((0,) + g3[:-1] + (1,), 3)  # z divides it
    fppoly.ring(g3, 3).frob(1)
    assert len(rings) == 3 and len({id(r) for r in rings}) == 3


def test_f2_square_spreads_bits():
    # h(z)^2 = h(z^2): a 0 between every two binary digits of h
    rng = random.Random(2)
    lengths = [8 * k + e for k in (1, 2, 160, 1280) for e in (-1, 0, 1)]
    values = [0, 1] + [(1 << n - 1) | rng.getrandbits(n - 1) for n in lengths]
    values += [rng.getrandbits(rng.randrange(1, 10242)) for _ in range(200)]
    for h in values:
        assert fppoly._f2_square(h) == int("0".join(bin(h)[2:]), 2), h


# ---------------------------------------------------------------------------
# The blocked Ben-Or window and the kernels under it.  For p = 2 the reference
# is the bitmask Ben-Or loop, otherwise the tuple one.


def _reference(g, p):
    return f2_ben_or(_pack2(g)) if p == 2 else ben_or(g, p)


def _pack2(a):
    return sum(c << i for i, c in enumerate(a))


def _product(*factors, p):
    g = (1,)
    for f in factors:
        g = mul(g, f, p)
    return g


# F_2 at degree 512 and F_3 at degree 100 both have a window m with
# 16 <= m < d/2, so the first, last and first-past-window steps all occur.
@pytest.mark.parametrize("p,d", [(2, 512), (3, 100)])
@pytest.mark.parametrize("where", ["first", "last", "past"])
def test_window_rejects_products_and_squares(p, d, where):
    m = fppoly._window(p, d)
    assert 16 <= m < d // 2
    e = {"first": 16, "last": m, "past": m + 1}[where]
    f, f2 = _first_irreducibles(p, e, 2)
    cases = [
        _product(f, fppoly.find_irreducible_coeffs(p, d - e), p=p),
        _product(f, f2, fppoly.find_irreducible_coeffs(p, d - 2 * e), p=p),
        _product(f, f, fppoly.find_irreducible_coeffs(p, d - 2 * e), p=p),
        _product(f, f, p=p),
    ]
    for g in cases:
        assert not fppoly.is_irreducible(g, p), g
        assert not _reference(g, p), g
    assert len(cases[0]) == len(cases[1]) == len(cases[2]) == d + 1


@pytest.mark.parametrize("p,d", [(2, 512), (3, 100)])
def test_window_then_rabin_accepts_the_lex_first_irreducible(p, d):
    g = fppoly.find_irreducible_coeffs(p, d)
    assert _reference(g, p)
    assert fppoly._window(p, d) < d // 2  # the Rabin tail ran


def _clmul_reference(a, b):
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 64, 300, 1281])
def test_f2_carryless_product_matches_bit_loop(d):
    rng = random.Random(d)
    pairs = [(0, 5), (5, 0), (1, 1 << d)]
    pairs += [(rng.getrandbits(d), rng.getrandbits(d)) for _ in range(10)]
    for a, b in pairs:
        assert fppoly._f2_clmul(a, b) == _clmul_reference(a, b)


@pytest.mark.parametrize("d", [1, 2, 15, 64, 300])
def test_f2_mulmod_matches_tuples(d):
    rng = random.Random(d)
    # a dense low part is reduced by long division, a sparse one by the fold
    for g in ((1 << d) | rng.getrandbits(d) | 1, (1 << d) | 3):
        ring = fppoly._F2Ring(g, d)
        ring._setup()
        for _ in range(6):
            a, b = rng.getrandbits(d), rng.getrandbits(d)
            want = mod_monic(mul(_bits(a), _bits(b), 2), _bits(g), 2)
            assert ring.mulmod(a, b) == _pack2(want)


ODD_KERNEL_CASES = [
    (3, 2),
    (3, 40),
    (3, 161),
    (5, 33),
    (7, 20),
    (13, 12),
    (17, 10),
    (BIG_PRIME, 6),
    (HUGE_PRIME, 5),
]


@pytest.mark.parametrize("p,d", ODD_KERNEL_CASES)
def test_packed_gcd_matches_tuple_gcd(p, d):
    rng = random.Random(p * 7 + d)
    g = _random_monic(rng, p, d)
    ring = fppoly._FpRing(g, p)

    def random_poly(n):
        return fppoly.trim(tuple(rng.randrange(p) for _ in range(n)))

    pairs = [((), (1,)), ((2,), ()), ((0, 1), (0, 1)), (random_poly(d), ())]
    for _ in range(8):
        pairs.append((random_poly(d), random_poly(d)))
        k = rng.randrange(1, d + 1)
        shared = _random_monic(rng, p, k)
        pairs.append(
            (
                mul(shared, random_poly(d - k + 1), p),
                mul(shared, random_poly(d - k + 1), p),
            )
        )
    pairs.append((g, random_poly(d)))
    for a, b in pairs:
        want = degree(gcd(a, b, p)) == 0
        got = ring.coprime(ring.pack(list(a) or [0]), ring.pack(list(b) or [0]))
        assert got == want, (a, b)


@pytest.mark.parametrize("p,d", ODD_KERNEL_CASES)
def test_packed_frobenius_matches_tuple_power(p, d):
    rng = random.Random(p * 11 + d)
    g = _random_monic(rng, p, d)
    ring = fppoly._FpRing(g, p)
    ring._setup()
    assert ring.spread == (p == 3)
    for _ in range(5):
        h = fppoly.trim(tuple(rng.randrange(p) for _ in range(d)))
        got = ring.frob(ring.pack(list(h) or [0]))
        assert fppoly.trim(ring.unpack(got)) == _pow_mod(h, p, g, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, BIG_PRIME, HUGE_PRIME])
def test_slot_reduction_matches_unpacking(p):
    rng = random.Random(p)
    d = 50
    ring = fppoly._FpRing(_random_monic(rng, p, d), p)
    assert (ring._table is not None) == (p <= 13)
    full = (1 << ring.bits) - 1  # any slot value, not only the reachable ones
    assert ring._reduce(0) == 0
    for n in (1, 2, 3, 2 * d + 1):
        values = [rng.randrange(full + 1) for _ in range(n - 1)] + [full]
        got = ring._reduce(ring.pack(values))
        assert got == ring.pack([v % p for v in values])


def test_window_cases_against_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    p, d = 3, 100
    m = fppoly._window(p, d)
    cases = [fppoly.find_irreducible_coeffs(p, d)]
    for e in (16, m, m + 1):
        f = _first_irreducibles(p, e, 1)[0]
        cases.append(_product(f, fppoly.find_irreducible_coeffs(p, d - e), p=p))
    rng = random.Random(100)
    cases += [_random_monic(rng, p, d) for _ in range(2)]
    for g in cases:
        expected = sympy.Poly(list(reversed(g)), z, modulus=p).is_irreducible
        assert fppoly.is_irreducible(g, p) == expected, g
