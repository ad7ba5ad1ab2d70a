import mmap

import numpy as np
import pytest
from conftest import commutes_with_rotation, derealify_matrix

from sparsescat.realfield import (
    SUPPORT_SUM_DIVISOR,
    MeasurementOperator,
    complex_dim,
    derealify,
    gram,
    normal,
    realify,
    realify_matrix,
)


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
    assert np.allclose(MeasurementOperator(derealify_matrix(vb)).column_norms(), np.linalg.norm(vb, axis=0),
                       rtol=1e-14, atol=0)


def test_normal_is_written_in_place_into_its_own_mapping(rng):
    # dsyrk fills the mapping itself: a copy would land in numpy's (huge-page) memory instead
    vb = realify_matrix(rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    b = normal(vb)
    owner = b
    while isinstance(owner, np.ndarray):
        owner = owner.base
    assert isinstance(owner, memoryview) and isinstance(owner.obj, mmap.mmap) and b.flags.writeable
    assert np.allclose(np.tril(b), np.tril(vb.T @ vb), rtol=1e-13, atol=1e-13)


def complex_operator(rng, m, n):
    t = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return MeasurementOperator(t), realify_matrix(t)


def test_operator_shape_bytes_and_dense(rng):
    op, dense = complex_operator(rng, 5, 12)
    assert op.shape == (10, 24) and op.nbytes == 16 * 5 * 12 == dense.nbytes / 2
    assert op.t.flags.f_contiguous and op.dense().flags.f_contiguous and np.array_equal(op.dense(), dense)


def test_operator_products_match_dense(rng):
    # the support sum (at most N/SUPPORT_SUM_DIVISOR complex columns), the dense zgemv and the adjoint
    op, dense = complex_operator(rng, 6, 64)
    n = 64
    y = rng.standard_normal(12)
    assert np.allclose(op.rmatvec(y), dense.T @ y, rtol=0, atol=1e-13 * np.abs(dense.T @ y).max())
    for size in (0, 1, n // SUPPORT_SUM_DIVISOR, n // SUPPORT_SUM_DIVISOR + 1, n):
        x = np.zeros(2 * n)
        x[rng.choice(2 * n, size=size, replace=False)] = rng.standard_normal(size)
        ref = dense @ x
        assert np.allclose(op.matvec(x), ref, rtol=0, atol=1e-13 * max(1.0, np.abs(ref).max())), size


def test_operator_columns_are_those_of_dense(rng):
    # column j is [Re T_j; Im T_j], column N + j is [-Im T_j; Re T_j]: every entry copied or negated
    op, dense = complex_operator(rng, 4, 9)
    mask = rng.random(18) < 0.5
    index = np.array([17, 0, 9, 3, 12, 8])
    for select in (mask, index, np.zeros(18, dtype=bool)):
        block = op.columns(select)
        assert block.flags.f_contiguous and np.array_equal(block, dense[:, select])
        assert np.array_equal(np.signbit(block), np.signbit(dense[:, select]))


def test_operator_column_norms_and_gram(rng):
    for m, n in ((4, 9), (9, 4)):
        op, dense = complex_operator(rng, m, n)
        assert np.allclose(op.column_norms(), np.linalg.norm(dense, axis=0), rtol=1e-14, atol=0)
        top = np.linalg.eigvalsh(op.gram(), UPLO="U")[-1]  # the upper triangle holds the product
        assert op.gram().shape == (min(m, n),) * 2
        assert abs(top - np.linalg.norm(dense, 2) ** 2) <= 1e-12 * top


@pytest.mark.parametrize("t, match", [
    (np.ones(3, dtype=complex), "vb must be a 2-D array"),
    (np.ones((2, 3)), "vb must be a 2-D array of complex entries"),
    (np.full((2, 3), 1j * np.nan), "vb contains NaN or inf"),
    (np.full((2, 3), np.inf + 0j), "vb contains NaN or inf"),
])
def test_operator_checks_t_where_it_is_built(t, match):
    with pytest.raises(ValueError, match=match):
        MeasurementOperator(t)


def test_operator_keeps_a_column_major_t_and_copies_any_other(rng):
    t = np.asfortranarray(rng.standard_normal((3, 5)) + 1j)
    assert MeasurementOperator(t).t is t
    for layout in (np.ascontiguousarray(t), np.repeat(t, 2, axis=1)[:, ::2]):
        op = MeasurementOperator(layout)
        assert op.t.flags.f_contiguous and np.array_equal(op.t, t)
