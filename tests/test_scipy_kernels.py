"""SciPy's private compiled kernels that graphrbm calls, against public results, bit for bit.

graphrbm calls five routines of ``scipy.sparse._sparsetools`` directly:
``csr_matvec`` (the engine's W z), ``csc_matvec`` (the factor check's
lhs x), and ``coo_tocsr``, ``csr_sort_indices`` and ``csr_row_index``
(``fem.ReducedOperators.step_matrices``).  They are private, so a SciPy
release may change them without notice; each case here names the kernel
whose results no longer match SciPy's public API or a NumPy definition.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools

KERNELS = ("csr_matvec", "csc_matvec", "coo_tocsr", "csr_sort_indices", "csr_row_index")


def random_csr(rng, shape=(40, 30)):
    """A random CSR matrix with int32 indices and entries spread over six decades."""
    a = sp.random(*shape, density=0.2, format="csr", random_state=rng)
    a.data *= 10.0 ** rng.uniform(-3.0, 3.0, a.nnz)
    return a


def same(got, want):
    return got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kernel", KERNELS)
def test_private_kernel_equals_its_public_result(kernel):
    rng = np.random.default_rng(KERNELS.index(kernel))
    a = random_csr(rng)
    (n_row, n_col), run = a.shape, getattr(_sparsetools, kernel)
    assert a.indices.dtype == np.int32
    x = rng.standard_normal(n_col) * 10.0 ** rng.uniform(-3.0, 3.0, n_col)
    if kernel in ("csr_matvec", "csc_matvec"):
        # into a zeroed array, as ``a @ x`` runs it
        m = a if kernel == "csr_matvec" else a.tocsc()
        out = np.zeros(n_row)
        run(n_row, n_col, m.indptr, m.indices, m.data, x, out)
        assert same(out, m @ x)
    elif kernel == "coo_tocsr":
        # each row's entries in their input order: a stable sort by row
        coo = a.tocoo()
        shuffle = rng.permutation(coo.nnz)
        rows, cols, data = coo.row[shuffle], coo.col[shuffle], coo.data[shuffle]
        indptr, indices, values = np.empty(n_row + 1, np.int32), np.empty_like(cols), np.empty_like(data)
        run(n_row, n_col, len(data), rows, cols, data, indptr, indices, values)
        order = np.argsort(rows, kind="stable")
        assert same(indptr, a.indptr) and same(indices, cols[order]) and same(values, data[order])
    elif kernel == "csr_sort_indices":
        # each row's entries sorted by column
        indices, values = a.indices.copy(), a.data.copy()
        for start, stop in zip(a.indptr[:-1], a.indptr[1:]):
            shuffle = start + rng.permutation(stop - start)
            indices[start:stop], values[start:stop] = indices[shuffle], values[shuffle]
        run(n_row, a.indptr, indices, values)
        assert same(indices, a.indices) and same(values, a.data)
    else:
        # rows in any order, some twice, as ``a[rows]`` takes them
        rows = rng.integers(0, n_row, 25).astype(np.int32)
        want = a[rows]
        indices, values = np.empty(want.nnz, np.int32), np.empty(want.nnz)
        run(len(rows), rows, a.indptr, a.indices, a.data, indices, values)
        assert same(indices, want.indices) and same(values, want.data)
