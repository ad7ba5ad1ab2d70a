"""Validation of the Bessel functions inside the 2D kernel against independent oracles.

J0 and Y0 are read off the fundamental solution (i/4) H0^(1)(r) at k = 1,
J1 and Y1 off the self-cell integral i pi a / 2 H1^(1)(a) - 1 at k = 1.
The oracles are Mehler-Sonine integral representations evaluated by
Gauss-Legendre quadrature (oscillatory part) and adaptive quadrature
(exponential tail), plus ascending power series for small arguments.
They share no code or coefficients with the implementation under test.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import hankel1

from sparsescat.forward import fundamental_solution, self_cell_integral


def j0(x):
    return 4.0 * np.imag(fundamental_solution(1.0, x, 2))


def y0(x):
    return -4.0 * np.real(fundamental_solution(1.0, x, 2))


def _cell(x):
    # the equal-area disk of a cell with spacing x sqrt(pi) has radius x
    return self_cell_integral(1.0, np.asarray(x, dtype=float) * np.sqrt(np.pi), 2)


def j1(x):
    return np.imag(_cell(x)) * 2.0 / (np.pi * np.asarray(x))


def y1(x):
    return -(np.real(_cell(x)) + 1.0) * 2.0 / (np.pi * np.asarray(x))

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(400)
_THETA = 0.5 * np.pi * (_GL_NODES + 1.0)  # map to (0, pi)
_W = 0.5 * np.pi * _GL_WEIGHTS

EULER_GAMMA = 0.5772156649015328606


def oracle_j0(x):
    return float(np.sum(np.cos(x * np.sin(_THETA)) * _W) / np.pi)


def oracle_j1(x):
    return float(np.sum(np.cos(_THETA - x * np.sin(_THETA)) * _W) / np.pi)


def oracle_y0(x):
    osc = np.sum(np.sin(x * np.sin(_THETA)) * _W) / np.pi
    tail, _ = quad(lambda t: np.exp(-x * np.sinh(t)), 0.0, 30.0, limit=200)
    return float(osc - 2.0 / np.pi * tail)


def oracle_y1(x):
    osc = np.sum(np.sin(x * np.sin(_THETA) - _THETA) * _W) / np.pi
    tail, _ = quad(lambda t: np.sinh(t) * np.exp(-x * np.sinh(t)), 0.0, 30.0, limit=200)
    return float(osc - 2.0 / np.pi * tail)


def series_j0(x, terms=40):
    out, term = 1.0, 1.0
    q = -0.25 * x * x
    for m in range(1, terms):
        term *= q / (m * m)
        out += term
    return out


def series_j1(x, terms=40):
    out, term = 0.5 * x, 0.5 * x
    q = -0.25 * x * x
    for m in range(1, terms):
        term *= q / (m * (m + 1))
        out += term
    return out


def series_y0(x, terms=40):
    # (2/pi) [(ln(x/2) + gamma) J0(x) + sum_{m>=1} (-1)^{m+1} H_m (x^2/4)^m / (m!)^2]
    q = 0.25 * x * x
    term, acc, harmonic = 1.0, 0.0, 0.0
    for m in range(1, terms):
        term *= q / (m * m)
        harmonic += 1.0 / m
        acc += (-1) ** (m + 1) * harmonic * term
    return 2.0 / np.pi * ((np.log(0.5 * x) + EULER_GAMMA) * series_j0(x) + acc)


def test_j0_against_quadrature_oracle():
    xs = np.linspace(0.01, 50.0, 487)
    for x in xs:
        ref = oracle_j0(x)
        assert abs(float(j0(x)) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_j1_against_quadrature_oracle():
    xs = np.linspace(0.01, 50.0, 487)
    for x in xs:
        ref = oracle_j1(x)
        assert abs(float(j1(x)) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_y0_against_quadrature_oracle():
    xs = np.linspace(0.05, 50.0, 301)
    for x in xs:
        ref = oracle_y0(x)
        assert abs(float(y0(x)) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_y1_against_quadrature_oracle():
    xs = np.linspace(0.05, 50.0, 301)
    for x in xs:
        ref = oracle_y1(x)
        assert abs(float(y1(x)) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_small_argument_series():
    xs = np.linspace(1e-4, 2.0, 77)
    assert np.max(np.abs(j0(xs) - [series_j0(x) for x in xs])) < 1e-12
    assert np.max(np.abs(j1(xs) - [series_j1(x) for x in xs])) < 1e-12
    assert np.max(np.abs(y0(xs) - [series_y0(x) for x in xs])) < 1e-11


def test_positive_argument_required():
    with pytest.raises(ValueError):
        fundamental_solution(1.0, np.array([0.0]), 2)
    with pytest.raises(ValueError):
        fundamental_solution(1.0, np.array([-1.0]), 2)


def test_hankel_composition():
    # against scipy's AMOS Hankel routine, an implementation independent of j0/y0/j1/y1
    x = np.linspace(0.1, 30.0, 64)
    h0 = fundamental_solution(1.0, x, 2) / 0.25j
    h1 = (_cell(x) + 1.0) / (0.5j * np.pi * x)
    assert np.max(np.abs(h0 - hankel1(0, x)) / np.abs(hankel1(0, x))) < 1e-13
    assert np.max(np.abs(h1 - hankel1(1, x)) / np.abs(hankel1(1, x))) < 1e-13


def test_wronskian_identity():
    # J1(x) Y0(x) - J0(x) Y1(x) == 2/(pi x)
    xs = np.linspace(0.2, 45.0, 120)
    w = j1(xs) * y0(xs) - j0(xs) * y1(xs)
    assert np.max(np.abs(w - 2.0 / (np.pi * xs))) < 1e-12
