"""Quaternion algebra, attitude error parameters and sigma-point machinery.

Conventions
-----------
Quaternions are scalar-first ``[w, x, y, z]`` composed with the Hamilton
product.  ``q_WB`` rotates body-frame vectors into the world frame:
``v_W = R(q_WB) v_B``, where ``R(q_WB)`` (``quat_to_matrix``) stacks the
body axes expressed in world coordinates as its columns.

Attitude errors use generalized Rodrigues parameters with ``a = 1`` and
``f = 2 (a + 1) = 4``, so the error vector equals the rotation angle in
radians to first order (Crassidis & Markley 2003).  Both are constants:
the filter relies on ``a = 1``, for which quat_from_mrp's scalar part
never goes negative.  Error quaternions compose on the left:
``q = dq (x) q_ref``.

Rows and blocks
---------------
Everything here is component-first.  ``quat_to_matrix`` forms R(q)
entry by entry (the simulator's controller writes the same entries out
on Python floats): one matrix for one quaternion, or a (3, 3, m) block
that the simulator's IMU pass stacks into one C-ordered matrix per
tick, so that each tick's R^T (a - g) is the BLAS matrix-vector product
of one matrix and rounds the same.

The quaternion product and normalization (``quat_multiply_rows``,
``quat_normalize_rows``) and the filter's attitude algebra built on them
(``quat_from_axis_angle``, ``quat_from_mrp``, ``mrp_from_quat``,
``mrp_error``, ``compose_mrp``) work on component rows: a quaternion is
its rows ``(w, x, y, z)`` and a vector its rows ``(x, y, z)``, given as
a tuple or as a (4, m) / (3, m) array, and each row is an (m,) array
(one component of a sigma batch) or a scalar (one quaternion; a (4,)
array is its four rows).  Results come back as tuples of rows, except
that quat_normalize_rows (and so compose_mrp) returns a (4,) / (4, m)
array, and quat_from_mrp a (4, m) array for a (3, m) one and
mrp_from_quat a (3, m) array for a (4, m) one, which unpack into the
same rows.  On one quaternion the
filter hands them Python floats (``.tolist()``: the fold of an update
into the reference, the odometry error, the estimate row's attitude),
which round as numpy scalars do at a fraction of the cost.  For float
rows ``mrp_from_quat`` and ``quat_normalize_rows`` take a path on
Python arithmetic alone: a conditional for the shadow-set sign, ``abs``
and ``math.sqrt`` (correctly rounded, as ``np.sqrt``), with the same
zero check, which a NaN passes as it does on arrays; the results carry
the bits the numpy path gives.  The simulator's odometry noise calls
the same kernels on the rows of all its ticks at once.

The filter steps 37 sigma points at each of thousands of events, where
the cost is the number of numpy calls, not the arithmetic.  On rows each
product or sum is one call, with no slicing, ``np.empty`` or assembly
around it.  An elementwise operation rounds the same whatever the shape
of its operands, so a batch and a single quaternion get the same bits.

The filter goes one step further and works on blocks, from the draw to
the update: ``sigma_points`` writes the set as one C-ordered (n, 2n+1)
array with the points as columns, so each state block is a contiguous
(3, 37) or (4, 37) array that one numpy call covers (the row functions
take a block, which unpacks into its rows), and ``reconstruct`` and
``unscented_transform`` take blocks.  There, a product with one fixed
quaternion, the composition with the reference and the errors about the
new reference, is one 4x4 matrix product, ``quat_right_matrix(r) @ q``.
It sums its terms in another order than quat_multiply_rows, so it rounds
differently in the last bits.  The product that differs per point, the
quaternion integration ``quat_integrate``, is a block form too: the
Hamilton product is bilinear, so ``_HAMILTON_FORM``, a constant (4, 16)
matrix, takes vec(q b^T) to q (x) b, and one matrix product advances
the whole (4, m) block by its (4, m) block b of exponential maps.  It
takes arrays only, and rounds differently from quat_multiply_rows in
the last bits as the 4x4 products do.  The simulator keeps the row
kernels (quat_from_axis_angle and quat_multiply_rows for its odometry
noise), so its bits do not depend on the filter's forms.

The rotation matrix
-------------------
R(q) is quadratic in q, so ``ROTATION_FORM``, a constant (9, 16)
matrix, takes vec(q q^T) to vec(R(q)), and one matrix product rotates a
whole block.  It is the one array encoding of R(q): read row-major it is
R^T (``rotation_transposed``: the whisker kernels' body airflow and
sysid's body-frame kinematics), and its rows 6:9, R's third column, give
the filter's thrust direction (vehicle.euler_step_arrays) and sysid's
world thrust and R33 = cos(roll) cos(pitch).

Sigma points
------------
The scaled symmetric set of Wan & van der Merwe with constant
parameters ``UT_ALPHA = 0.1``, ``UT_BETA = 2`` and ``UT_KAPPA = 0``; its
weights are made once per dimension and shared (read-only) by every
set, so a block of 2n+1 transformed points names its weights by its
width.  ``unscented_transform`` is the one place sigma-point statistics
(mean, covariance and input-output cross covariance) are formed for a
measurement; the filter's process update needs no cross covariance and
calls ``sigma_points`` and ``reconstruct`` directly.

Linear algebra
--------------
The filter's matrices are 3x3 to 18x18, where numpy's Python layers
cost more than the work they wrap, so the filter calls the kernels
directly.  ``cholesky_lower`` and ``solve`` call the LAPACK gufuncs
that ``np.linalg.cholesky`` and ``np.linalg.solve`` call
(``numpy.linalg._umath_linalg``, private numpy API, bound in this
module alone), without the conversion, type and shape checks around
them: they take square float64 arrays.  Their error contract is
numpy.linalg's: each runs under the same floating-point error state,
set by an ``np.errstate`` decorator, so a failed factorization or
solve, which marks its result invalid, raises ``LinAlgError`` with
numpy's message ("Matrix is not positive definite", "Singular
matrix"), and nothing else warns.  Results carry numpy.linalg's bits.
The 2-D products on the filter's path (here, in the filter, the
vehicle model and the whisker kernels) are ``ndarray.dot``, which
calls the same BLAS routine as ``@`` on these shapes and rounds the
same, at less per-call cost than the matmul gufunc.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError
from numpy.linalg import _umath_linalg  # numpy's private LAPACK gufuncs: bound here only

MRP_A = 1.0
MRP_F = 2.0 * (MRP_A + 1.0)
SIGMA_JITTER = 1e-12  # added to the covariance diagonal before factorization
# scaled sigma-point weights (Wan/van der Merwe parameterization)
UT_ALPHA = 0.1
UT_BETA = 2.0
UT_KAPPA = 0.0
_TINY = np.finfo(float).smallest_subnormal


class CovarianceError(RuntimeError):
    """Raised when a covariance cannot be factorized even after jitter."""


def quat_to_matrix(q):
    """The rotation matrix R(q) from component rows: (3, 3) for one
    quaternion, or (3, 3, m) for a (4, m) block, entry by entry the same
    bits."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _rotation_form():
    """vec(R(q)) of a unit quaternion q as a quadratic form: entry 3 c + r
    of _rotation_form() @ vec(q q^T) is R(q)[r, c] (vec stacks the
    columns), entry 4 j + k of vec(q q^T) being q_j q_k.  With
    q = (w, v), R(q) = (w^2 - |v|^2) I + 2 v v^T + 2 w [v]x."""
    f = np.zeros((3, 3, 4, 4))  # f[c, r] is the form of R[r, c]
    for c in range(3):
        f[c, c, 0, 0] = 1.0
        for r in range(3):
            f[c, c, 1 + r, 1 + r] -= 1.0
            f[c, r, 1 + c, 1 + r] += 1.0
            f[c, r, 1 + r, 1 + c] += 1.0
        # 2 w [v]x[r, c] is +2 w v_k for (c, r, k) cyclic, -2 w v_k for (r, c, k)
        r, k = (c + 1) % 3, (c + 2) % 3
        f[c, r, 0, 1 + k] = f[c, r, 1 + k, 0] = 1.0
        f[r, c, 0, 1 + k] = f[r, c, 1 + k, 0] = -1.0
    return f.reshape(9, 16)


ROTATION_FORM = _rotation_form()
ROTATION_FORM.flags.writeable = False


def rotation_transposed(q):
    """R(q)^T of a (4,) unit quaternion as a (3, 3) array, or of each
    column of a (4, m) block as a (3, 3, m) array: ROTATION_FORM times
    vec(q q^T), read row-major.  Row c is R's column c, body axis c in
    world coordinates."""
    batch = q.shape[1:]
    qq = (q[:, None] * q).reshape((16,) + batch)
    return ROTATION_FORM.dot(qq).reshape((3, 3) + batch)


# ---------------------------------------------------------------------------
# quaternion algebra on component rows


def quat_multiply_rows(a, b):
    """Hamilton product a (x) b of quaternions given as component rows.

    The scalar part subtracts the vector parts' dot product summed left
    to right; each vector component adds aw * bv, bw * av and the cross
    product's term, in that order."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - (a1 * b1 + a2 * b2 + a3 * b3),
        a0 * b1 + b0 * a1 + (a2 * b3 - a3 * b2),
        a0 * b2 + b0 * a2 + (a3 * b1 - a1 * b3),
        a0 * b3 + b0 * a3 + (a1 * b2 - a2 * b1),
    )


def quat_normalize_rows(q):
    """Unit quaternion(s) from component rows, as a (4,) or (4, m) array:
    one square root of the left-to-right sum of squares, then one
    division.  An array is one block expression (add.reduce sums its
    four rows left to right, so the bits are the rows' bits)."""
    if type(q) is np.ndarray:  # not isinstance: one Python-level call fewer
        n = np.sqrt(np.add.reduce(q * q))
    else:
        w, x, y, z = q
        if type(w) is float:  # one quaternion: math.sqrt rounds as np.sqrt
            n = math.sqrt(w * w + x * x + y * y + z * z)
            if n < 1e-12:
                raise ValueError("cannot normalize a zero quaternion")
            return np.array((w / n, x / n, y / n, z / n))
        n = np.sqrt(w * w + x * x + y * y + z * z)
        q = np.asarray(q)
    # .any() without its Python-level wrapper
    if np.logical_or.reduce(n < 1e-12, axis=None):
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_from_axis_angle(phi):
    """Exponential map: rotation vector (rad) -> unit quaternion."""
    phi0, phi1, phi2 = phi
    angle = np.sqrt(phi0 * phi0 + phi1 * phi1 + phi2 * phi2)
    half = 0.5 * angle
    # sin(half) / angle; the smallest subnormal leaves every nonzero angle
    # as it is and turns 0 / 0 at zero rate into 0 / tiny = 0
    k = np.sin(half) / np.maximum(angle, _TINY)
    return np.cos(half), k * phi0, k * phi1, k * phi2


def mrp_from_quat(dq):
    """Error quaternion -> generalized Rodrigues parameters.

    Flips to the shadow set (negates dq) when the scalar part is negative
    so the parameters stay bounded near +/- pi: the sign goes into the
    scale and the denominator becomes a + |w|.  A (4, m) array is one
    block expression returning a (3, m) array with the rows' bits; rows
    return a tuple of rows.
    """
    if type(dq) is np.ndarray and dq.ndim == 2:  # not isinstance: one call fewer
        w = dq[0]
        return np.where(w < 0.0, -MRP_F, MRP_F) * dq[1:] / (MRP_A + np.abs(w))
    w, x, y, z = dq
    if type(w) is float:
        scale = -MRP_F if w < 0.0 else MRP_F
        den = MRP_A + abs(w)
    else:
        scale = np.where(w < 0.0, -MRP_F, MRP_F)
        den = MRP_A + np.abs(w)
    return scale * x / den, scale * y / den, scale * z / den


def quat_from_mrp(p):
    """Generalized Rodrigues parameters -> unit error quaternion, w >= 0.

    With a = 1 the scalar part is (f^2 - |p|^2) / (f^2 + |p|^2).  A
    (3, m) array is one block expression returning a (4, m) array
    (add.reduce sums its three rows left to right, so the bits are the
    rows' bits); rows return a tuple of rows.
    """
    f2 = MRP_F * MRP_F
    if type(p) is np.ndarray and p.ndim == 2:  # not isinstance: one call fewer
        n2 = np.add.reduce(p * p)
        w = (f2 - n2) / (f2 + n2)
        return np.concatenate((w[None], (MRP_A + w) * p / MRP_F))
    p0, p1, p2 = p
    n2 = p0 * p0 + p1 * p1 + p2 * p2
    w = (f2 - n2) / (f2 + n2)
    s = MRP_A + w
    return w, s * p0 / MRP_F, s * p1 / MRP_F, s * p2 / MRP_F


def mrp_error(q, q_ref):
    """Attitude error parameters of q relative to q_ref (q = dq (x) q_ref)."""
    r0, r1, r2, r3 = q_ref
    return mrp_from_quat(quat_multiply_rows(q, (r0, -r1, -r2, -r3)))


# a (x) r = R(r) @ a, with R(r) = r[_RIGHT_IDX] * _RIGHT_SIGN
_RIGHT_IDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_RIGHT_SIGN = np.array(
    [[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0]]
)


def quat_right_matrix(r):
    """The 4x4 matrix of the product with r on the right: a (x) r is
    quat_right_matrix(r) @ a for a (4,) or (4, m) array a.  Its transpose
    is the matrix of the conjugate, a (x) r* (r a (4,) array)."""
    return r[_RIGHT_IDX] * _RIGHT_SIGN


def _hamilton_form():
    """The Hamilton product as a bilinear form: entry i of
    _hamilton_form() @ vec(a b^T) is (a (x) b)_i, entry 4 j + k of
    vec(a b^T) being a_j b_k.  Row i holds quat_right_matrix's entry
    (i, j), the sign of a_j b_k with k = _RIGHT_IDX[i, j]."""
    h = np.zeros((4, 4, 4))
    for i in range(4):
        h[i, range(4), _RIGHT_IDX[i]] = _RIGHT_SIGN[i]
    return h.reshape(4, 16)


_HAMILTON_FORM = _hamilton_form()
_HAMILTON_FORM.flags.writeable = False


def quat_integrate(q, omega, dt):
    """Advance q by body rate omega held constant over dt (exact
    exponential): q (x) exp(omega dt / 2) for a (4,) array q and (3,)
    omega, or column by column for (4, m) and (3, m) blocks.

    One block form: the exponential map b as one (4, m) block (the
    angle's sum of squares left to right, sin(half) / angle as in
    quat_from_axis_angle), then _HAMILTON_FORM times vec(q b^T).  The
    matrix product sums each component's four terms in another order
    than quat_multiply_rows, so the two differ in the last bits; at zero
    rate b is (1, 0, 0, 0) and q comes back as it was."""
    phi = omega * dt
    angle = np.sqrt(np.add.reduce(phi * phi))
    half = 0.5 * angle
    k = np.sin(half) / np.maximum(angle, _TINY)
    b = np.concatenate((np.cos(half)[None], k * phi))
    return _HAMILTON_FORM.dot((q[:, None] * b).reshape((16,) + q.shape[1:]))


def compose_mrp(q_ref, e):
    """Fold error parameters e onto the reference: returns dq(e) (x) q_ref."""
    return quat_normalize_rows(quat_multiply_rows(quat_from_mrp(e), q_ref))


def _raise_not_positive_definite(err, flag):
    raise LinAlgError("Matrix is not positive definite")


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


# the error state numpy.linalg sets around each gufunc call, set by a
# decorator (cheaper than a with block): a failed factorization or solve
# marks its result invalid, which calls the handler; nothing else warns
_LINALG_ERRSTATE = dict(invalid="call", over="ignore", divide="ignore", under="ignore")


@np.errstate(call=_raise_not_positive_definite, **_LINALG_ERRSTATE)
def cholesky_lower(a):
    """np.linalg.cholesky(a) of a square float64 array, on the same
    LAPACK gufunc: the same bits, and LinAlgError("Matrix is not positive
    definite") where it raises it."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@np.errstate(call=_raise_singular, **_LINALG_ERRSTATE)
def solve(a, b):
    """np.linalg.solve(a, b) of a square float64 array a and an (M,) or
    (M, K) float64 array b, on the same LAPACK gufuncs: the same bits, and
    LinAlgError("Singular matrix") where it raises it."""
    if b.ndim == 1:
        return _umath_linalg.solve1(a, b, signature="dd->d")
    return _umath_linalg.solve(a, b, signature="dd->d")


def _factor(cov, jitter):
    """Lower Cholesky factor of cov + jitter (a diagonal matrix)."""
    try:
        return cholesky_lower(cov + jitter)
    except LinAlgError:
        pass
    # one retry with a trace-scaled bump, then give up loudly
    n = cov.shape[0]
    bump = max(1.0, cov.trace() / n) * 1e-9
    try:
        return cholesky_lower(cov + bump * np.eye(n))
    except LinAlgError as exc:
        raise CovarianceError("covariance is not positive definite") from exc


def sigma_points(mean, cov):
    """Scaled symmetric sigma points for (mean, cov), as the C-ordered
    (n, 2n+1) block whose columns are the points (column 0 is the mean).

    cov must be symmetric positive semidefinite (the factorization reads
    its lower triangle, and every covariance the filter makes is exactly
    symmetric); ``SIGMA_JITTER * I`` is added before factorization and
    the factorization is retried once with a larger bump before failing.
    """
    scale, _, _, jitter = _sigma_constants(mean.shape[0])
    root = _factor(scale * cov, jitter)
    m = mean[:, None]
    return np.concatenate((m, m + root, m - root), axis=1)


@functools.lru_cache(maxsize=None)
def _sigma_constants(n):
    """The spread scale n + lambda, the (read-only) mean and covariance
    weights and the scaled jitter matrix of the n-dimensional set, made
    once per dimension."""
    lam = UT_ALPHA**2 * (n + UT_KAPPA) - n
    scale = n + lam
    wm = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    wc = wm.copy()
    wm[0] = lam / scale
    wc[0] = wm[0] + (1.0 - UT_ALPHA**2 + UT_BETA)
    jitter = scale * SIGMA_JITTER * np.eye(n)
    wm.flags.writeable = wc.flags.writeable = jitter.flags.writeable = False
    return scale, wm, wc, jitter


def reconstruct(ys):
    """Weighted mean (k,) and covariance (k, k) of a (k, 2n+1) block of
    transformed sigma points, with the weights of the n-dimensional set."""
    _, wm, wc, _ = _sigma_constants(ys.shape[1] // 2)
    mean = ys.dot(wm)
    d = ys - mean[:, None]
    cov = d.dot((d * wc).T)
    return mean, 0.5 * (cov + cov.T)


def unscented_transform(mean, cov, func):
    """Propagate (mean, cov) through func via the unscented transform.

    func maps the (n, 2n+1) block of sigma points to the (k, 2n+1) block
    of their images.  Returns (mean_y, cov_y, cross_xy) where cross_xy is
    the (n, k) input-output cross covariance.
    """
    xs = sigma_points(mean, cov)
    ys = func(xs)
    mean_y, cov_y = reconstruct(ys)
    _, _, wc, _ = _sigma_constants(mean.shape[0])
    cross = (xs - mean[:, None]).dot(((ys - mean_y[:, None]) * wc).T)
    return mean_y, cov_y, cross
