"""Log-gamma, digamma, trigamma and the logistic function against mpmath."""

import warnings

import mpmath
import numpy as np
import pytest

from caliblab.special import digamma, expit, gammaln, lgamma_digamma_trigamma

DIGAMMA_ROOT = 1.4616321449683622

POINTS = np.concatenate(
    [
        np.logspace(-8, 15, 120),
        np.arange(1.0, 51.0),
        np.arange(0.5, 50.0, 1.0),
        DIGAMMA_ROOT + np.linspace(-1e-3, 1e-3, 11),
    ]
)

REFERENCES = {
    "gammaln": mpmath.loggamma,
    "digamma": mpmath.digamma,
    "trigamma": lambda x: mpmath.polygamma(1, x),
}


@pytest.mark.parametrize("row, name", enumerate(REFERENCES))
def test_matches_mpmath(row, name):
    got = lgamma_digamma_trigamma(POINTS)[row]
    with mpmath.workdps(30):
        ref = np.array([float(REFERENCES[name](mpmath.mpf(x))) for x in POINTS])
    err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
    worst = int(np.argmax(err))
    assert err[worst] <= 1e-13, (name, POINTS[worst], err[worst])


def test_exact_values_at_small_integers():
    assert gammaln(1.0) == 0.0 and gammaln(2.0) == 0.0
    assert digamma(1.0) == -0.5772156649015329
    assert digamma(2.0) - digamma(1.0) == 1.0


def test_single_functions_are_the_rows_of_the_batched_call():
    x = np.array([[0.3, 1.0], [7.5, 123.0]])
    rows = lgamma_digamma_trigamma(x)
    assert rows.shape == (3, 2, 2)
    assert np.array_equal(gammaln(x), rows[0])
    assert np.array_equal(digamma(x), rows[1])


def test_values_do_not_depend_on_the_batch():
    rng = np.random.default_rng(0)
    x = np.concatenate([1.0 + np.exp(rng.standard_normal(40)), [1.0, 2.0, 3.0, 40.0]])
    batched = lgamma_digamma_trigamma(x)
    for i, value in enumerate(x):
        assert np.array_equal(lgamma_digamma_trigamma(value), batched[:, i])
        assert np.array_equal(lgamma_digamma_trigamma(x[: i + 1])[:, i], batched[:, i])


def test_huge_arguments_stay_finite():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lgamma, psi, _ = lgamma_digamma_trigamma(1e300)
    assert np.isfinite(lgamma) and np.isfinite(psi)
    assert lgamma == pytest.approx(1e300 * (np.log(1e300) - 1.0), rel=1e-13)


def test_expit_saturates_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit(1000.0) == 1.0
        assert expit(-1000.0) == 0.0
    assert expit(0.0) == 0.5


def test_expit_with_a_bound_gives_the_same_bits():
    x = np.concatenate([np.linspace(-709.0, 709.0, 2001), [-1e-300, 0.0, 5e-324]])
    assert expit(x, bound=709.0).tobytes() == expit(x).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert expit(np.array([-1000.0, 1000.0]), bound=1000.0).tolist() == [0.0, 1.0]
