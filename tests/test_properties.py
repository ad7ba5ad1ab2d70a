"""Property tests: realify homomorphisms, prox/Moreau identities, operator-cache integrity."""

import tempfile
from pathlib import Path

import numpy as np
from conftest import conjugate_resolvent
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sparsescat.forward import load_vb_cache, save_vb_cache
from sparsescat.grid import Grid, Medium, boundary_receivers
from sparsescat.prox import RegParams, p_star, prox_p
from sparsescat.realfield import MeasurementOperator, realify, realify_matrix

# few examples, no wall-clock deadline, and the same examples on every run, so tier-1 stays deterministic
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

BOUNDED = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
FINITE_FLOAT = st.floats(width=64, allow_nan=False, allow_infinity=False)


@st.composite
def complex_arrays(draw, shape):
    re = draw(arrays(np.float64, shape, elements=BOUNDED))
    im = draw(arrays(np.float64, shape, elements=BOUNDED))
    return re + 1j * im


@st.composite
def complex_triple(draw):
    """Complex A (m x k), B (k x n) and C (m x k) of small random shape."""
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(complex_arrays((m, k))), draw(complex_arrays((k, n))), draw(complex_arrays((m, k)))


def product_atol(a, b):
    # each entry of a @ b sums k products, each rounded, on both sides of the identity
    return 1e-14 * a.shape[1] * (1.0 + np.abs(a).max()) * (1.0 + np.abs(b).max())


@PROPERTY
@given(complex_triple())
def test_realify_matrix_is_a_ring_homomorphism(abc):
    a, b, c = abc
    assert np.array_equal(realify_matrix(a + c), realify_matrix(a) + realify_matrix(c))
    lhs = realify_matrix(a) @ realify_matrix(b)
    assert np.allclose(lhs, realify_matrix(a @ b), rtol=0.0, atol=product_atol(a, b))


@PROPERTY
@given(complex_triple())
def test_realify_commutes_with_matvec_and_sum(abc):
    a, b, _ = abc
    v, w = b[:, 0], b[:, -1]
    assert np.array_equal(realify(v + w), realify(v) + realify(w))
    lhs = realify_matrix(a) @ realify(v)
    assert np.allclose(lhs, realify(a @ v), rtol=0.0, atol=product_atol(a, b))


REGS = st.builds(RegParams, alpha=st.floats(0.0, 10.0), alpha0=st.floats(1e-3, 10.0))
STEPS = st.floats(1e-2, 1e2)
VECTORS = arrays(np.float64, st.integers(1, 40), elements=st.floats(-100.0, 100.0))


@PROPERTY
@given(VECTORS, STEPS, REGS)
def test_moreau_decomposition(x, sigma, reg):
    # x = prox_{sigma p}(x) + sigma * prox_{p*/sigma}(x / sigma), the conjugate resolvent in closed form
    rhs = prox_p(x, sigma, reg) + sigma * conjugate_resolvent(x / sigma, 1.0 / sigma, reg)
    assert np.allclose(rhs, x, rtol=1e-12, atol=1e-12)


@PROPERTY
@given(VECTORS, STEPS, REGS)
def test_prox_attains_fenchel_young_equality(x, sigma, reg):
    # w = prox(x) iff v = (x - w)/sigma is a subgradient of p at w iff p(w) + p*(v) = <w, v>
    w = prox_p(x, sigma, reg)
    v = (x - w) / sigma
    p_w = 0.5 * reg.alpha0 * float(w @ w) + reg.alpha * float(np.sum(np.abs(w)))
    scale = 1.0 + float(np.abs(w) @ np.abs(v))
    assert abs(p_w + p_star(v, reg) - float(w @ v)) <= 1e-10 * scale


GRID = Grid(dim=2, n_per_axis=4)
RECEIVERS = boundary_receivers(GRID, 3)
ROWS, COLS = RECEIVERS.count, GRID.num_nodes


@st.composite
def cached_operators(draw):
    """A medium and an operator of the cache's shape, with any finite float64 bits in the parts of its T."""
    medium = Medium(wavenumber=draw(st.floats(0.1, 50.0)),
                    contrast=draw(arrays(np.float64, GRID.num_nodes, elements=BOUNDED)), grid=GRID)
    parts = draw(arrays(np.float64, (2, ROWS, COLS), elements=FINITE_FLOAT))
    return medium, MeasurementOperator(parts[0] + 1j * parts[1])


def saved_cache(directory, medium, vb):
    path = Path(directory) / "vb.cache"
    save_vb_cache(path, vb, GRID, medium, RECEIVERS)
    return path


@PROPERTY
@given(cached_operators())
def test_vb_cache_roundtrip_is_bitwise(case):
    medium, vb = case
    with tempfile.TemporaryDirectory() as tmp:
        loaded = load_vb_cache(saved_cache(tmp, medium, vb), GRID, medium, RECEIVERS)
    assert loaded.shape == vb.shape and loaded.t.tobytes(order="F") == vb.t.tobytes(order="F")


HEADER_BYTES = 40  # "<4s32sI": magic, cache key, payload crc32


@PROPERTY
@given(cached_operators(), st.data())
def test_vb_cache_truncated_or_garbled_file_is_a_miss(case, data):
    # a changed byte anywhere, header or payload, fails a header check or the payload crc32
    medium, vb = case
    with tempfile.TemporaryDirectory() as tmp:
        path = saved_cache(tmp, medium, vb)
        raw = path.read_bytes()
        assert len(raw) == HEADER_BYTES + 16 * ROWS * COLS
        path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1), label="length")])
        assert load_vb_cache(path, GRID, medium, RECEIVERS) is None
        garbled = bytearray(raw)
        garbled[data.draw(st.integers(0, len(raw) - 1), label="byte")] ^= data.draw(st.integers(1, 255), label="xor")
        path.write_bytes(bytes(garbled))
        assert load_vb_cache(path, GRID, medium, RECEIVERS) is None
