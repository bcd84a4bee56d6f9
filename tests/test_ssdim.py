"""Product families, exact dimension measures, and log-space bounds.

The bound and certify references are 128-bit mpmath evaluations, the
arithmetic ``bound_eval`` and ``certify_depth_d`` used before they moved to
``decimal`` and to exact integers.  mpmath is a test dependency only: the
tests that take the ``mp`` fixture skip without it.
"""

import math
import random
from argparse import Namespace
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from math import comb

import pytest

from hardmat.budgets import BudgetExceeded
from hardmat.cli import _cmd_ssdim_bound
from hardmat.constructions import hard_over_finite, trivial_hard
from hardmat.fields import (
    INTEGER_RING,
    RATIONAL_FIELD,
    extension_field,
    find_irreducible,
    ops_for,
    prime_field,
)
from hardmat.matrices import ExactMatrix, from_rows, identity, matmul
from hardmat.ssdim import (
    bound_eval,
    certify_depth_d,
    gamma_t,
    pi_t,
    sigma_t,
)

QQ = RATIONAL_FIELD
F2 = prime_field(2)
F5 = prime_field(5)

#: Mantissa bits of the mpmath reference.
REFERENCE_PRECISION = 128


@pytest.fixture
def mp():
    return pytest.importorskip("mpmath").mp


def _log2(x):
    from mpmath import mp

    return mp.log(x) / mp.log(2)


def _log2_gamma_upper(s: int, d: int, t: int):
    from mpmath import mp, mpf

    # log2 of (e^d * (2s/(dt))^d)^t
    return d * t * (1 / mp.log(2) + _log2(mpf(2 * s) / (d * t)))


def _log2_gamma_lower(t: int, n: int):
    from mpmath import mpf

    # log2 of (n^2/t)^t
    return t * _log2(mpf(n * n) / t)


class TestPiT:
    def test_identity_order_one(self):
        fam = pi_t(identity(QQ, 2), 1)
        assert fam.subset_count == 4
        assert sorted(fam.values) == [0, 0, 1, 1]
        assert set(fam.distinct_values()) == {0, 1}

    def test_entries_themselves(self):
        m = from_rows(INTEGER_RING, [[2, 4], [16, 8]])
        assert set(pi_t(m, 1).values) == {2, 4, 16, 8}

    def test_pairwise_products(self):
        m = from_rows(INTEGER_RING, [[2, 4], [16, 8]])
        fam = pi_t(m, 2)
        assert fam.values == (8, 32, 16, 64, 32, 128)
        assert fam.subset_count == 6

    def test_budget(self):
        m = identity(QQ, 10)
        with pytest.raises(BudgetExceeded):
            pi_t(m, 4, budget=100)


class TestGammaT:
    def test_hard_finite_small(self):
        b = hard_over_finite(2, 2, 1)
        assert gamma_t(b.matrix, 1, F2) == 4

    def test_identity_over_f5_spans_a_line(self):
        assert gamma_t(identity(F5, 2), 1, F5) == 1

    def test_zero_matrix_spans_nothing(self):
        m = from_rows(F5, [[0, 0], [0, 0]])
        assert gamma_t(m, 1, F5) == 0

    def test_rational_degenerate_span(self):
        m = from_rows(QQ, [[2, 3], [5, 7]])
        assert gamma_t(m, 1, QQ) == 1

    def test_integer_matrix_over_q_and_z(self):
        m = from_rows(INTEGER_RING, [[2, 3], [5, 7]])
        assert gamma_t(m, 2, QQ) == gamma_t(m, 1, INTEGER_RING) == 1
        assert gamma_t(from_rows(INTEGER_RING, [[0, 0]]), 1, QQ) == 0

    def test_base_mismatch_rejected(self):
        b = hard_over_finite(2, 2, 1)
        with pytest.raises(ValueError):
            gamma_t(b.matrix, 1, prime_field(3))
        with pytest.raises(ValueError):
            gamma_t(identity(F5, 2), 1, F2)

    def test_bounded_by_subset_count(self):
        rng = random.Random(7)
        field = extension_field(2, find_irreducible(2, 6))
        ops = ops_for(field)
        for _ in range(10):
            entries = tuple(
                tuple(rng.randrange(2) for _ in range(6)) for _ in range(9)
            )
            m = ExactMatrix(field, 3, 3, entries)
            for t in (1, 2):
                assert gamma_t(m, t, F2) <= comb(9, t)

    def test_equality_on_sidon_instances(self):
        # products of a t-wise Sidon grid land on distinct generator powers,
        # so the span dimension meets its ceiling exactly
        cases = [(2, 2, 2, 2), (3, 2, 1, 1), (5, 2, 1, 1), (2, 2, 1, 1)]
        for p, n, t, order in cases:
            b = hard_over_finite(p, n, t)
            assert gamma_t(b.matrix, order, prime_field(p)) == comb(n * n, order)


class TestSigmaT:
    def test_trivial_order_one(self):
        assert sigma_t(trivial_hard(2).matrix, 1) == 15

    def test_trivial_order_two(self):
        assert sigma_t(trivial_hard(2).matrix, 2) == 63

    def test_all_ones(self):
        m = from_rows(INTEGER_RING, [[1, 1], [1, 1]])
        assert sigma_t(m, 1) == 1

    def test_full_subset_sum_law_on_trivial(self):
        for t in (1, 2):
            assert sigma_t(trivial_hard(2).matrix, t) == 2 ** comb(4, t) - 1

    def test_value_cap(self):
        m = from_rows(INTEGER_RING, [[2 ** (4 * i + j) for j in range(4)] for i in range(4)])
        assert len(pi_t(m, 2).distinct_values()) == 29  # past the cap of 22
        with pytest.raises(BudgetExceeded):
            sigma_t(m, 2)

    def test_requires_integers(self):
        with pytest.raises(ValueError):
            sigma_t(identity(QQ, 2), 1)


class TestBoundEval:
    def test_s_equals_dt(self):
        for d, t in [(2, 1), (3, 2), (2, 5)]:
            ev = bound_eval(d * t, d, t, 100)
            expected = d * t * math.log2(2 * math.e)
            assert abs(float(ev.log2_gamma_upper) - expected) < 1e-9

    def test_lower_bound_at_quarter(self):
        n = 10
        t = n * n // 4
        ev = bound_eval(2 * t, 2, t, n)
        assert abs(float(ev.log2_gamma_lower) - n * n / 2) < 1e-9

    def test_against_high_precision_oracle(self, mp):
        mpf = mp.mpf
        s, d, t, n = 10**6, 2, 10**3, 10**3
        ev = bound_eval(s, d, t, n)
        with mp.workprec(256):
            oracle = d * t * (mp.log(mp.e, 2) + mp.log(mpf(2 * s) / (d * t), 2))
            assert abs(mpf(str(ev.log2_gamma_upper)) - oracle) < mpf(10) ** -6
            oracle_low = t * mp.log(mpf(n * n) / t, 2)
            assert abs(mpf(str(ev.log2_gamma_lower)) - oracle_low) < mpf(10) ** -6

    def test_sigma_upper_matches_definition(self, mp):
        mpf = mp.mpf
        ev = bound_eval(4, 2, 1, 4)
        with mp.workprec(256):
            # 2*n^3 * (e^d * (2s/(dt))^d)^t at s=4, d=2, t=1, n=4
            direct = 2 * 4**3 * (mp.e**2 * (mpf(2 * 4) / (2 * 1)) ** 2) ** 1
            # log2_sigma_upper is the exponent of the sigma bound 2^(...)
            assert abs(mpf(str(ev.log2_sigma_upper)) - direct) / direct < mpf(10) ** -20

    def test_quantities_are_forty_digit_decimals(self):
        ev = bound_eval(10**6, 2, 10**3, 10**3)
        for x in (ev.log2_gamma_upper, ev.log2_sigma_upper, ev.log2_gamma_lower):
            assert isinstance(x, Decimal)
            assert len(x.as_tuple().digits) == 40

    def test_preconditions(self):
        with pytest.raises(ValueError):
            bound_eval(1, 2, 1, 10)  # s < d*t
        with pytest.raises(ValueError):
            bound_eval(100, 2, 30, 10)  # t > n^2/4
        with pytest.raises(ValueError):
            bound_eval(300, 2, 1, 10)  # s > d*n^2 invalidates the sigma bound


def mpmath_bound_strings(s, d, t, n):
    """The reference for the printed bound: 128-bit mpmath values, printed to
    40 significant digits by ``nstr``, then quantized to 12 places."""
    from mpmath import mp, mpf

    with mp.workprec(REFERENCE_PRECISION):
        g_up = _log2_gamma_upper(s, d, t)
        s_up = 2 * mpf(n) ** 3 * mp.power(2, g_up)
        g_low = _log2_gamma_lower(t, n)
    texts = []
    for x in (g_up, s_up, g_low):
        with localcontext() as ctx:
            value = Decimal(mp.nstr(x, 40))
            ctx.prec = max(40, value.adjusted() + 14)
            texts.append(str(value.quantize(Decimal("0.000000000001"))))
    return texts


def decimal_bound_strings(s, d, t, n, digits=200):
    """The printed bound from a ``digits``-digit evaluation in ``decimal``,
    straight from the log2 form: each value rounded to 40 significant digits
    and printed to 12 places."""
    ctx = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)
    ln2 = ctx.ln(2)

    def log2(x):
        return ctx.divide(ctx.ln(x), ln2)

    g_up = ctx.multiply(d * t, ctx.add(ctx.divide(1, ln2), log2(ctx.divide(2 * s, d * t))))
    s_up = ctx.multiply(2 * n**3, ctx.power(2, g_up))
    g_low = ctx.multiply(t, log2(ctx.divide(n * n, t)))
    forty = Context(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return [f"{forty.plus(x):.12f}" for x in (g_up, s_up, g_low)]


class TestBoundAgainstMpmath:
    """The printed bound equals the mpmath reference's wherever the reference
    prints at most 34 significant digits, the digits its 128 bits resolve;
    past them it equals a 200-digit evaluation."""

    NAMES = ("log2_gamma_upper", "log2_sigma_upper", "log2_gamma_lower")

    def test_seeded_cases(self, mp):
        rng = random.Random(20192)
        long = 0
        differing = set()
        for _ in range(1000):
            n = int(10 ** rng.uniform(0.31, 3))
            d = rng.randint(1, 5)
            t = max(1, int((n * n // 4) ** rng.random()))
            s = min(d * n * n, int(d * t * (n * n / t) ** rng.random()))
            payload = _cmd_ssdim_bound(Namespace(s=s, d=d, t=t, n=n))
            reference = mpmath_bound_strings(s, d, t, n)
            precise = None
            for i, (name, ref) in enumerate(zip(self.NAMES, reference)):
                text = payload[name]
                if len(ref) - 1 <= 34:  # significant digits: all but the point
                    assert text == ref, (name, s, d, t, n)
                    continue
                long += 1
                precise = precise or decimal_bound_strings(s, d, t, n)
                assert text == precise[i], (name, s, d, t, n)
                if text != ref:
                    differing.add(name)
        assert differing == {"log2_sigma_upper"}
        assert long > 200  # both branches are well represented


class TestCertify:
    def test_boundary_is_tight(self, mp):
        for n, d, t in [(10**6, 2, 31623), (10**6, 3, 10**5), (1000, 2, 100)]:
            s_star = certify_depth_d(n, d, t)
            with mp.workprec(128):
                lower = t * mp.log(mp.mpf(n * n) / t, 2)
                assert _log2_gamma_upper(s_star, d, t) < lower
                assert _log2_gamma_upper(s_star + 1, d, t) >= lower

    def test_monotone_in_n(self):
        prev = 0
        for n in (10**4, 10**5, 10**6):
            t = math.ceil(n**0.75)
            s_star = certify_depth_d(n, 2, t)
            assert s_star >= prev
            prev = s_star

    def test_degenerate_parameters_rejected(self):
        # upper bound at s = dt is d*t*log2(2e) ~ 2.44*d*t; make the lower
        # bound smaller than that
        with pytest.raises(ValueError):
            certify_depth_d(2, 2, 1)  # lower = log2(4) = 2 < 4*log2(2e)

    @pytest.mark.parametrize(
        "n, d, t, message",
        [
            (1000, 0, 5, "d must be a positive integer"),
            (1000, 2, 0, "t must be a positive integer"),
            (1000, -2, 0, "d must be a positive integer"),
            (0, 2, 1, "n must be a positive integer"),
            (1000, 2, True, "t must be a positive integer"),
        ],
    )
    def test_parameters_checked_before_s_is_formed(self, n, d, t, message):
        with pytest.raises(ValueError) as info:
            certify_depth_d(n, d, t)
        assert str(info.value) == message

    def test_huge_depth_is_degenerate_without_huge_powers(self):
        message = "degenerate parameters: no size >= 1000000000000 is certified"
        with pytest.raises(ValueError, match=message):
            certify_depth_d(10, 10**12, 1)

    def test_degenerate_message_prints_n_past_the_digit_limit(self):
        with pytest.raises(ValueError) as info:
            certify_depth_d(10**5000, 10**5, 1)
        assert str(info.value) == (
            "degenerate parameters: no size >= 100000 is certified for n=1"
            + "0" * 5000
            + ", d=100000, t=1"
        )


def mpmath_certify(n, d, t):
    """The reference: the 128-bit mpmath log-space search that certify_depth_d
    ran before it decided each comparison exactly."""
    from mpmath import mp

    with mp.workprec(REFERENCE_PRECISION):
        lower = _log2_gamma_lower(t, n)
        lo = d * t
        if not _log2_gamma_upper(lo, d, t) < lower:
            raise ValueError(
                f"degenerate parameters: no size >= {lo} is certified for "
                f"n={n}, d={d}, t={t}"
            )
        hi = lo
        while _log2_gamma_upper(hi, d, t) < lower:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _log2_gamma_upper(mid, d, t) < lower:
                lo = mid
            else:
                hi = mid
    return lo


def outcome(fn, n, d, t):
    try:
        return fn(n, d, t)
    except ValueError as exc:
        return str(exc)


class TestCertifyAgainstMpmath:
    """Exact s* equals the mpmath search's, degenerate messages included."""

    def test_recorded_values(self, mp):
        assert certify_depth_d(10**6, 2, 31623) == 65419474
        assert certify_depth_d(10**6, 3, 100) == 118885
        assert mpmath_certify(10**6, 2, 31623) == 65419474

    def test_seeded_cases(self, mp):
        rng = random.Random(20191)
        cases = [(10**6, 2, 31623), (10**6, 3, 100), (2, 2, 1), (10, 1, 25)]
        while len(cases) < 420:
            n = int(10 ** rng.uniform(0.3, 8))
            if n < 2:
                continue
            t = max(1, int((n * n // 4) ** rng.random()))
            cases.append((n, rng.randint(1, 8), t))
        degenerate = 0
        for n, d, t in cases:
            expected = outcome(mpmath_certify, n, d, t)
            assert outcome(certify_depth_d, n, d, t) == expected, (n, d, t)
            degenerate += isinstance(expected, str)
        # both kinds of outcome are well represented
        assert 50 < degenerate < len(cases) - 200

    @pytest.mark.parametrize("n, d, t", [(10**40, 2, 10**20), (10**60, 3, 10**30)])
    def test_exact_past_the_reference_precision(self, mp, n, d, t):
        # s* has more digits than 128 bits resolve; check it at 1024 bits
        s_star = certify_depth_d(n, d, t)
        assert s_star.bit_length() > REFERENCE_PRECISION
        with mp.workprec(1024):
            lower = _log2_gamma_lower(t, n)
            assert _log2_gamma_upper(s_star, d, t) < lower
            assert _log2_gamma_upper(s_star + 1, d, t) >= lower


class TestExecutableUpperBound:
    def _random_chain(self, rng, field, n, d):
        dims = [n] + [rng.randint(1, n) for _ in range(d - 1)] + [n]
        ops = ops_for(field)
        factors = []
        for a, b in zip(dims, dims[1:]):
            entries = []
            for _ in range(a * b):
                if rng.random() < 0.6:
                    coeffs = tuple(rng.randrange(2) for _ in range(field.degree))
                    entries.append(coeffs)
                else:
                    entries.append(ops.zero)
            factors.append(ExactMatrix(field, a, b, tuple(entries)))
        return factors

    def test_sparse_products_respect_the_bound(self):
        rng = random.Random(42)
        field = extension_field(2, find_irreducible(2, 8))
        checked = 0
        while checked < 12:
            d = rng.choice([2, 3])
            n = rng.choice([2, 3, 4])
            t = 1 if n == 2 else rng.randint(1, 2)
            factors = self._random_chain(rng, field, n, d)
            s = sum(
                1 for f in factors for x in f.entries if any(x)
            )
            if s < d * t:
                continue
            product = factors[0]
            for f in factors[1:]:
                product = matmul(product, f)
            gamma = gamma_t(product, t, F2)
            ev = bound_eval(s, d, t, n)
            if gamma > 0:
                assert math.log2(gamma) <= float(ev.log2_gamma_upper) + 1e-6
            checked += 1
