import math
import warnings

import numpy as np
import pytest

from cbre2 import moments
from cbre2.moments import build_moment_generator, moment_table, recursion_check, recursion_checks
from cbre2._util import expm, format_float
from tests.conftest import bundled_scenario


@pytest.mark.parametrize("n", [1, 2, 9, 35])
def test_expm_of_zero_is_exactly_the_identity(n):
    assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))


def test_expm_of_a_diagonal_generator_is_exact():
    """A mechanism without branching has a diagonal moment generator, e^{beta(p+q) t} on
    the diagonal of its exponential, as scipy's expm gave it."""
    sc = bundled_scenario("env_only", 10, 0.01)
    g = build_moment_generator(sc.environment, sc.branching, 7, sc.truncation).matrix
    assert not (g - np.diag(np.diag(g))).any()
    for t in (0.001, 0.5, 1.0):
        assert np.array_equal(expm(g * t), np.diag(np.exp(np.diag(g) * t)))


@pytest.mark.parametrize("a", [
    pytest.param(np.diag([-1350.0, 0.0]), id="exp-underflows"),
    # the input on which the deleted 2x2 closed form overflowed in mu^2
    pytest.param(np.diag([-2e197, 0.0]), id="mu2-overflows"),
])
def test_expm_of_an_underflowing_diagonal_entry_is_zero(a):
    """An entry whose exponential underflows gives exactly 0, never a negative entry;
    no OverflowError and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm(a)
    assert np.array_equal(got, np.diag([0.0, 1.0]))


def test_expm_of_a_small_matrix_keeps_the_identity_exactly():
    # below every theta bound the approximant is I + 2 (V - U)^-1 U, so the
    # diagonal of expm(eps N) for a nilpotent N is exactly 1
    a = np.triu(np.full((5, 5), 1e-20), 1)
    got = expm(a)
    assert np.array_equal(np.diag(got), np.ones(5))
    assert got[0, 1] == 1e-20


@pytest.mark.parametrize("name, t", [
    ("mixed", 0.001), ("mixed", 0.1), ("mixed", 1.0), ("mixed", 2.0), ("coupling", 0.1),
])
def test_expm_against_high_precision_on_bundled_generators(name, t):
    """The degree-k generator is the leading block of the degree-7 one (the basis is
    degree-major and never couples upward), so one 30-digit exponential of the
    degree-7 generator is the reference for every degree 1..7.  Where an entry of
    the reference leaves the float range, expm must give a non-finite matrix."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    sc = bundled_scenario(name, 10, 0.01)
    g7 = build_moment_generator(sc.environment, sc.branching, 7, sc.truncation).matrix
    ref = np.array(mp.expm(mp.matrix((g7 * t).tolist())).tolist(), dtype=float)
    for k in range(1, 8):
        size = (k + 1) * (k + 2) // 2 - 1
        g = build_moment_generator(sc.environment, sc.branching, k, sc.truncation).matrix
        np.testing.assert_array_equal(g, g7[:size, :size])
        got, want = expm(g * t), ref[:size, :size]
        if np.isfinite(want).all():
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (k, t)
        else:
            assert not np.isfinite(got).all(), (k, t)


def test_expm_balances_a_huge_coupling_entry():
    """A block lower-triangular matrix whose norm is one huge coupling entry, as a
    Pareto tail capped at 1e300 puts in the moment generator: scaled by its norm,
    its diagonal would round to 1 before the squarings."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    a = np.array([[-0.15, 0.3, 0.0, 0.0],
                  [0.07, -0.25, 0.0, 0.0],
                  [0.03, 2.5e150, 0.04, 0.9],
                  [0.02, 0.01, 0.2, -0.06]])
    for t in (0.1, 0.3, 1.0):
        ref = np.array(mp.expm(mp.matrix((a * t).tolist())).tolist(), dtype=float)
        nz = ref != 0
        assert np.array_equal(expm(a * t) != 0, nz)
        np.testing.assert_allclose(expm(a * t)[nz], ref[nz], rtol=1e-13, atol=0)


@pytest.mark.parametrize("a", [
    pytest.param(np.full((3, 3), np.inf), id="inf"),
    pytest.param(np.array([[np.nan, 0.0], [0.0, 1.0]]), id="nan"),
    pytest.param(np.full((2, 2), 1e308), id="norm-overflows"),
    pytest.param(np.array([[1e300, 1e300], [0.0, 1e300]]), id="result-overflows"),
    pytest.param(np.diag([1e300, 1.0]), id="diagonal"),
    pytest.param(np.diag([1500.0, 0.0]), id="cosh-overflows"),
    pytest.param(np.diag([800.0, 0.0]), id="product-overflows"),
    pytest.param(np.diag([1500.0, 1500.0]), id="exp-overflows"),
])
def test_expm_of_a_huge_norm_is_non_finite(a):
    """As scipy's expm did, so that the callers' ExponentOverflow checks run; no
    OverflowError and no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expm(a)
    assert got.shape == a.shape and not np.isfinite(got).all()


def test_recursion_checks_make_one_expm_per_time(monkeypatch):
    """Every order and both types at one time from one exponential, equal to the
    one-key checks to rounding."""
    sc = bundled_scenario("mixed", 10, 0.01)
    table = moment_table(sc.environment, sc.branching, sc.x0, [0.5, 1.0], 6)
    calls = []

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(moments, "expm", counted)
    checks = recursion_checks(sc.branching, table, 1.0)
    assert calls == [(27 + 10, 27 + 10)]
    assert list(checks) == [(n, i) for n in range(2, 7) for i in (1, 2)]
    for (n, i), (lhs, rhs, res) in checks.items():
        one = recursion_check(sc.branching, table, n, i, 1.0)
        np.testing.assert_allclose((lhs, rhs), one[:2], rtol=1e-13, atol=0)
        assert res < 1e-12


def _format_float_reference(x):
    """format_float as it was written before its repr fast path."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    if xf == int(xf) and abs(xf) < 1e16:
        return str(int(xf))
    return repr(xf)


def test_format_float_matches_its_reference():
    rng = np.random.default_rng(2027)
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64)
    values = [*bits.tolist(), *(rng.standard_normal(2000) * 10.0 ** rng.integers(-20, 20, 2000)),
              *np.round(rng.standard_normal(2000) * 1e6).tolist(),
              0.0, -0.0, 1e16, -1e16, 9999999999999998.0, 1e15 + 0.5, 1e-320, math.nan,
              math.inf, -math.inf, True, False, np.True_, np.False_, 7, -3, 2**60,
              np.float32(0.1), np.int64(-12)]
    for x in values:
        assert format_float(x) == _format_float_reference(x), x
