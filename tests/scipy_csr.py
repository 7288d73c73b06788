"""scipy views of :class:`repro.solver.CSR` records: the tests' sparse oracle.

``src/repro`` builds its row matrices as plain CSR records and never
imports scipy's sparse package; the tests keep scipy as the reference,
rebuilding a record's three arrays into a ``csr_matrix`` where they need
scipy's arithmetic or compare against scipy's own constructors.
"""

from scipy import sparse

from repro.solver import CSR


def to_scipy(matrix):
    """A record as a ``csr_matrix`` over the same arrays; anything else as is."""
    if isinstance(matrix, CSR):
        return sparse.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    return matrix


def csr_bytes(matrix):
    """Shape, dtypes and raw bytes of a CSR's arrays (record or scipy)."""
    return (
        tuple(matrix.shape), matrix.nnz, matrix.data.dtype, matrix.indices.dtype,
        matrix.indptr.dtype, matrix.data.tobytes(), matrix.indices.tobytes(),
        matrix.indptr.tobytes(),
    )
