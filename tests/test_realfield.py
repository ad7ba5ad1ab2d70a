import mmap

import numpy as np
import pytest
from conftest import commutes_with_rotation, derealify_matrix

from sparsescat.realfield import column_norms, complex_dim, derealify, gram, normal, realify, realify_matrix


def test_realify_single_entry():
    assert np.array_equal(realify(np.array([1 + 2j])), [1.0, 2.0])


def test_realify_zero_vector():
    assert np.array_equal(realify(np.array([0.0, 0.0])), [0.0, 0.0, 0.0, 0.0])


def test_roundtrip_exact(rng):
    v = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    assert np.array_equal(derealify(realify(v)), v)


def test_inner_product_matches_complex(rng):
    u = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    lhs = realify(u) @ realify(v)
    rhs = np.real(np.vdot(u, v))
    assert abs(lhs - rhs) < 1e-13


def test_norm_preserved(rng):
    v = rng.standard_normal(25) + 1j * rng.standard_normal(25)
    assert np.isclose(np.linalg.norm(realify(v)), np.linalg.norm(v), rtol=1e-15, atol=0)


def test_matrix_of_i_is_rotation():
    assert np.array_equal(realify_matrix(np.array([[1j]])), [[0.0, -1.0], [1.0, 0.0]])


def test_matrix_identity():
    assert np.array_equal(realify_matrix(np.eye(3)), np.eye(6))


def test_matrix_vector_homomorphism(rng):
    a = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    v = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    lhs = realify_matrix(a) @ realify(v)
    rhs = realify(a @ v)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_ring_homomorphism(rng):
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    b = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    lhs = realify_matrix(a @ b)
    rhs = realify_matrix(a) @ realify_matrix(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_block_structure_invariant(rng):
    a = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    ra = realify_matrix(a)
    m, n = 3, 8
    assert np.array_equal(ra[:m, :n], ra[m:, n:])
    assert np.array_equal(ra[:m, n:], -ra[m:, :n])
    assert commutes_with_rotation(ra)


def test_derealify_matrix_roundtrip(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.array_equal(derealify_matrix(realify_matrix(a)), a)


def test_transpose_is_realified_adjoint(rng):
    # the plain real transpose of a realified matrix realifies the conjugate transpose
    a = rng.standard_normal((4, 7)) + 1j * rng.standard_normal((4, 7))
    assert np.array_equal(realify_matrix(a).T, realify_matrix(a.conj().T))


def test_complex_dim_odd_length_rejected():
    with pytest.raises(ValueError):
        complex_dim(np.zeros(5))


def test_matrix_layout_of_the_input_does_not_matter(rng):
    # a row-major input is copied column-major first; both layouts give the same column-major operator
    a = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    row_major, col_major = realify_matrix(np.ascontiguousarray(a)), realify_matrix(np.asfortranarray(a))
    assert np.array_equal(row_major, col_major)
    assert row_major.flags.f_contiguous and col_major.flags.f_contiguous


def test_gram_normal_and_column_norms_match_numpy(rng):
    vb = realify_matrix(rng.standard_normal((5, 12)) + 1j * rng.standard_normal((5, 12)))
    assert np.allclose(gram(vb), vb @ vb.T, rtol=1e-13, atol=1e-13)
    assert np.allclose(gram(vb, trans=True), vb.T @ vb, rtol=1e-13, atol=1e-13)
    b = normal(vb)
    assert b.flags.c_contiguous and np.allclose(np.tril(b), np.tril(vb.T @ vb), rtol=1e-13, atol=1e-13)
    assert np.allclose(column_norms(vb), np.linalg.norm(vb, axis=0), rtol=1e-14, atol=0)


def test_normal_is_written_in_place_into_its_own_mapping(rng):
    # dsyrk fills the mapping itself: a copy would land in numpy's (huge-page) memory instead
    vb = realify_matrix(rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    b = normal(vb)
    owner = b
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner, memoryview) and isinstance(owner.obj, mmap.mmap) and b.flags.writeable
    assert np.allclose(np.tril(b), np.tril(vb.T @ vb), rtol=1e-13, atol=1e-13)
