"""Classical orthogonal Cayley-Klein groups over dual numbers.

A group element in the Cartesian basis is a "special" matrix: entry (k,p)
carries the weight J(k,p) above the diagonal and J(p,k) below it, times a
free parameter.  Such matrices preserve the weighted quadratic form.  A
matrix is a two-leg ``rmatrix.QTensor`` keyed (i, k).  The module provides

* the exact orthogonality test, which forms A A^t alone, and ``solve``,
  one Gauss-Jordan over D_n,
* the weighted antisymmetric generators and the exact Cayley transform,
  which samples group elements without any transcendental functions,
* the fixed change of basis D with D C0 D^t = I (C0 the antidiagonal),
  moving everything into the symplectic frame where quantization happens,
* the symbolic weight pattern of a generic group element in that frame.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffring import (
    Cyclo8,
    DualElement,
    JSignature,
    NotInvertibleError,
    _collect,
)
from .rmatrix import QTensor


class SingularMatrixError(ArithmeticError):
    """Gauss-Jordan found no invertible pivot."""


def solve(A: QTensor, B: QTensor) -> QTensor:
    """The X with A @ X = B, by one Gauss-Jordan on [A | B] over D_n
    (D_n entries only); pivots must be units of the local ring.

    Only the nonzero entries of the pivot row are scaled.  A row update
    a - f*b sets the pivot column to the exact zero, keeps a over a zero b
    of the pivot row and forms each other entry as one ``DualElement.dot``.
    """
    N, n = A.N, A.n
    one, zero = DualElement.one(n), DualElement.zero(n)
    rng = range(1, N + 1)
    work = [[A.get(i, k) for k in rng] + [B.get(i, k) for k in rng] for i in rng]
    for col in range(N):
        pivot_row = pivot_inv = None
        for r in range(col, N):
            try:
                pivot_inv = work[r][col].inverse()
            except NotInvertibleError:
                continue
            pivot_row = r
            break
        if pivot_row is None:
            raise SingularMatrixError("no invertible pivot in column %d" % (col + 1))
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col] = [e * pivot_inv if e else e for e in work[col]]
        cols = [k for k, b in enumerate(pivot) if b and k != col]
        for r, row in enumerate(work):
            f = row[col]
            if r == col or not f:
                continue
            f = -f
            for k in cols:
                row[k] = DualElement.dot(n, ((row[k], one), (f, pivot[k])))
            row[col] = zero
    return QTensor(N, n, {(i + 1, k + 1): e for i, r in enumerate(work)
                          for k, e in enumerate(r[N:])})


# -- construction


def is_j_orthogonal(A: QTensor) -> bool:
    """Exact test of A A^t = A^t A = I, by forming A A^t alone.

    D_n is commutative, so det(A A^t) = det(A)^2 and A A^t = I gives
    det(A)^2 = 1: det(A) is a unit, A has the inverse adj(A)/det(A), so
    A^(-1) = A^t and A^t A = I.  A A^t is symmetric, so only its
    N(N+1)/2 entries with i <= k are formed, as dot products of rows of A.
    """
    n, one = A.n, DualElement.one(A.n)
    rng = range(1, A.N + 1)
    rows = [[A.get(i, k) for k in rng] for i in rng]
    for i, ri in enumerate(rows):
        for k in range(i, A.N):
            e = DualElement.dot(n, [(a, b) for a, b in zip(ri, rows[k]) if a and b])
            if (e != one) if i == k else e:
                return False
    return True


def _generator_mix(j: JSignature, theta: dict) -> QTensor:
    """sum theta[k,p] J(k,p) (e_kp - e_pk) over the keys k < p of theta,
    each entry one monomial of D_n."""
    data = {}
    for (k, p), t in theta.items():
        (mask,) = j.J(k, p).terms
        data[k, p], data[p, k] = (DualElement.monomial(j.n, mask, x) for x in (t, -t))
    return QTensor(j.N, j.n, data)


def lie_generator(k: int, p: int, j: JSignature) -> QTensor:
    """The weighted antisymmetric generator J(k,p) (e_kp - e_pk), k < p."""
    if not (1 <= k < p <= j.N):
        raise ValueError("need 1 <= k < p <= N")
    return _generator_mix(j, {(k, p): 1})


def cayley(X: QTensor) -> QTensor:
    """The exact Cayley transform (I + X)(I - X)^(-1).

    I + X = 2I - (I - X) commutes with (I - X)^(-1), so the transform is
    2 (I - X)^(-1) - I: one Gauss-Jordan solves (I - X) Y = 2I, whose right
    side is diagonal, and I is taken off the diagonal of Y.
    """
    N, n, diag = X.N, X.n, [(i, i) for i in range(1, X.N + 1)]
    one, two, zero = DualElement.one(n), DualElement.scalar(n, 2), DualElement.zero(n)
    minus = _collect(((k, -e) for k, e in X.data.items()), dict.fromkeys(diag, one))
    Y = solve(QTensor(N, n, minus), QTensor(N, n, dict.fromkeys(diag, two))).data
    for d in diag:
        Y[d] = DualElement.dot(n, ((Y.get(d, zero), one), (-one, one)))
    return QTensor(N, n, Y)


def random_cayley(j: JSignature, rng) -> QTensor:
    """A random group element: Cayley transform of a random generator mix."""
    N = j.N
    # one angle per generator J(k,p) (e_kp - e_pk), k < p, in row-major order
    theta = {(k, p): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for k in range(1, N + 1) for p in range(k + 1, N + 1)}
    return cayley(_generator_mix(j, theta))


# -- symplectic frame


def antidiagonal_c0(N: int, n: int) -> QTensor:
    """C0 with ones on the antidiagonal."""
    return QTensor.build(N, n, lambda i, k: 1 if i + k == N + 1 else 0)


def symplectic_d(N: int, n: int | None = None) -> QTensor:
    """The change of basis D with D C0 D^t = I.

    Paired rows mix a coordinate with its mirror through 1/sqrt2 and
    i/sqrt2; an odd middle coordinate is fixed.  Other solutions differ by
    an orthogonal factor and lead to equivalent frames.
    """
    if N < 2:
        raise ValueError("need N >= 2")
    if n is None:
        n = N - 1
    half = Fraction(1, 2)
    data = {}
    for k in range(1, N // 2 + 1):
        kp = N + 1 - k
        data[(k, k)] = data[(k, kp)] = DualElement.scalar(n, Cyclo8(0, 0, half, 0))
        data[(kp, k)] = DualElement.scalar(n, Cyclo8(0, 0, 0, half))
        data[(kp, kp)] = DualElement.scalar(n, Cyclo8(0, 0, 0, -half))
    if N % 2:
        m = (N + 1) // 2
        data[(m, m)] = DualElement.one(n)
    return QTensor(N, n, data)


def symplectic_d_inverse(N: int, n: int | None = None) -> QTensor:
    """D^(-1) = C0 D^t, read off from D C0 D^t = I."""
    if n is None:
        n = N - 1
    D = symplectic_d(N, n)
    return antidiagonal_c0(N, n) @ D.transpose()


def to_symplectic(A: QTensor) -> QTensor:
    """Conjugate a Cartesian group element into the symplectic frame."""
    Dm = symplectic_d(A.N, A.n)
    return symplectic_d_inverse(A.N, A.n) @ A @ Dm


def weight_pattern_symplectic(j: JSignature) -> dict:
    """Which subset monomials a generic group element shows per entry.

    Entry (i,k) of D^(-1) A D sums the (m,l) parameters of A, each with
    the weight of slot (m,l), over the m and l where D^(-1)[i,m] and
    D[l,k] are nonzero: both D and D^(-1) are nonzero exactly at (a, a)
    and (a, a'), so m runs over {i, i'} and l over {k, k'}.  Distinct
    parameters cannot cancel.  Returns {(i,k): sorted tuple of bitmasks}.
    """
    N = j.N
    rng = range(1, N + 1)
    pattern = {}
    for i in rng:
        for k in rng:
            masks = {mask for m in (i, N + 1 - i) for l in (k, N + 1 - k)
                     for mask in j.weight(m, l).terms}
            pattern[(i, k)] = tuple(sorted(masks))
    return pattern
