"""Classical orthogonal Cayley-Klein groups over dual numbers.

A group element in the Cartesian basis is a "special" matrix: entry (k,p)
carries the weight J(k,p) above the diagonal and J(p,k) below it, times a
free parameter.  Such matrices preserve the weighted quadratic form.  The
module provides

* the one square matrix type, over D_n here and over the noncommutative
  polynomials of ``freealg`` in ``qgroup``, and the exact orthogonality
  test,
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
    DimensionError,
    DualElement,
    JSignature,
    NotInvertibleError,
)


class SingularMatrixError(ArithmeticError):
    """Gauss-Jordan found no invertible pivot."""


class CKMatrix:
    """A square matrix.

    Entries are D_n elements or noncommutative polynomials (``NCPoly``);
    products, sums, transposes and entry maps work for both, while
    ``identity``, ``build``, ``is_identity`` and ``solve`` are for D_n
    entries only.
    """

    __slots__ = ("N", "rows")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self.N = len(self.rows)
        for r in self.rows:
            if len(r) != self.N:
                raise DimensionError("matrix is not square")

    @classmethod
    def identity(cls, N: int, n: int) -> "CKMatrix":
        one = DualElement.one(n)
        zero = DualElement.zero(n)
        return cls([[one if i == k else zero for k in range(N)] for i in range(N)])

    @classmethod
    def build(cls, N: int, n: int, fn) -> "CKMatrix":
        """Entries from fn(i, k) with 1-based indices; scalars are coerced."""
        rows = []
        for i in range(1, N + 1):
            row = []
            for k in range(1, N + 1):
                e = fn(i, k)
                if not isinstance(e, DualElement):
                    e = DualElement.scalar(n, e)
                row.append(e)
            rows.append(row)
        return cls(rows)

    @property
    def n(self) -> int:
        return self.rows[0][0].n if self.N else 0

    def entry(self, i: int, k: int) -> DualElement:
        return self.rows[i - 1][k - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, CKMatrix) and self.rows == other.rows

    def __matmul__(self, other: "CKMatrix") -> "CKMatrix":
        if self.N != other.N:
            raise DimensionError("size mismatch in matrix product")
        if not self.N:
            return self
        n, dot = self.n, type(self.rows[0][0]).dot
        cols = tuple(zip(*other.rows))
        return CKMatrix([[dot(n, [(a, b) for a, b in zip(row, col) if a and b])
                          for col in cols] for row in self.rows])

    def __add__(self, other: "CKMatrix") -> "CKMatrix":
        return CKMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "CKMatrix") -> "CKMatrix":
        return CKMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "CKMatrix":
        return CKMatrix([[-a for a in r] for r in self.rows])

    def transpose(self) -> "CKMatrix":
        return CKMatrix(list(zip(*self.rows)))

    def map_entries(self, fn) -> "CKMatrix":
        return CKMatrix([[fn(a) for a in r] for r in self.rows])

    def is_identity(self) -> bool:
        """Exact test against the identity; D_n entries only."""
        one = DualElement.one(self.n)
        for i, row in enumerate(self.rows):
            for k, e in enumerate(row):
                if e != (one if i == k else 0):
                    return False
        return True

    def solve(self, B: "CKMatrix") -> "CKMatrix":
        """The X with self @ X = B, by one Gauss-Jordan on [self | B] over
        D_n (D_n entries only); pivots must be units of the local ring.

        A row update a - f*b skips the zero entries b of the pivot row and
        forms each other entry as one ``DualElement.dot``.
        """
        N, n = self.N, self.n
        one = DualElement.one(n)
        work = [list(a) + list(b) for a, b in zip(self.rows, B.rows)]
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
            pivot = work[col] = [e * pivot_inv for e in work[col]]
            for r in range(N):
                f = work[r][col]
                if r == col or not f:
                    continue
                f = -f
                work[r] = [DualElement.dot(n, ((a, one), (f, b))) if b else a
                           for a, b in zip(work[r], pivot)]
        return CKMatrix([r[N:] for r in work])

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)

    def __repr__(self) -> str:
        return "CKMatrix(%dx%d over D_%d)" % (self.N, self.N, self.n)


# ------------------------------------------------------------ construction


def is_j_orthogonal(A: CKMatrix) -> bool:
    """Exact test of A A^t = A^t A = I.

    D_n is commutative, so both products are symmetric: entry (k,i) equals
    entry (i,k), and only the N(N+1)/2 entries with i <= k of each are
    formed, as dot products of two rows of A (of A^t for A^t A).
    """
    n, one = A.n, DualElement.one(A.n)
    for rows in (A.rows, tuple(zip(*A.rows))):
        for i, ri in enumerate(rows):
            for k in range(i, A.N):
                e = DualElement.dot(n, [(a, b) for a, b in zip(ri, rows[k]) if a and b])
                if (e != one) if i == k else e:
                    return False
    return True


def _generator_mix(j: JSignature, theta: dict) -> CKMatrix:
    """sum theta[k,p] J(k,p) (e_kp - e_pk) over the keys k < p of theta."""

    def fn(i, m):
        if (i, m) in theta:
            return j.J(i, m) * theta[(i, m)]
        if (m, i) in theta:
            return j.J(m, i) * -theta[(m, i)]
        return 0

    return CKMatrix.build(j.N, j.n, fn)


def lie_generator(k: int, p: int, j: JSignature) -> CKMatrix:
    """The weighted antisymmetric generator J(k,p) (e_kp - e_pk), k < p."""
    if not (1 <= k < p <= j.N):
        raise ValueError("need 1 <= k < p <= N")
    return _generator_mix(j, {(k, p): 1})


def cayley(X: CKMatrix) -> CKMatrix:
    """The exact Cayley transform (I + X)(I - X)^(-1).

    I + X and (I - X)^(-1) commute, so this is the solution A of
    (I - X) A = I + X, found by one Gauss-Jordan with no matrix product.
    """
    I = CKMatrix.identity(X.N, X.n)
    return (I - X).solve(I + X)


def random_cayley(j: JSignature, rng, span: int = 3) -> CKMatrix:
    """A random group element: Cayley transform of a random generator mix."""
    N = j.N
    # one angle per generator J(k,p) (e_kp - e_pk), k < p, in row-major order
    theta = {(k, p): Fraction(rng.randint(-span, span), rng.randint(1, 3))
             for k in range(1, N + 1) for p in range(k + 1, N + 1)}
    return cayley(_generator_mix(j, theta))


# ------------------------------------------------------- symplectic frame


def antidiagonal_c0(N: int, n: int) -> CKMatrix:
    """C0 with ones on the antidiagonal."""
    return CKMatrix.build(N, n, lambda i, k: 1 if i + k == N + 1 else 0)


def symplectic_d(N: int, n: int | None = None) -> CKMatrix:
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
    rows = [[DualElement.zero(n) for _ in range(N)] for _ in range(N)]
    for k in range(1, N // 2 + 1):
        kp = N + 1 - k
        rows[k - 1][k - 1] = DualElement.scalar(n, Cyclo8(0, 0, half, 0))
        rows[k - 1][kp - 1] = DualElement.scalar(n, Cyclo8(0, 0, half, 0))
        rows[kp - 1][k - 1] = DualElement.scalar(n, Cyclo8(0, 0, 0, half))
        rows[kp - 1][kp - 1] = DualElement.scalar(n, Cyclo8(0, 0, 0, -half))
    if N % 2:
        m = (N + 1) // 2
        rows[m - 1][m - 1] = DualElement.one(n)
    return CKMatrix(rows)


def symplectic_d_inverse(N: int, n: int | None = None) -> CKMatrix:
    """D^(-1) = C0 D^t, read off from D C0 D^t = I."""
    if n is None:
        n = N - 1
    D = symplectic_d(N, n)
    return antidiagonal_c0(N, n) @ D.transpose()


def to_symplectic(A: CKMatrix) -> CKMatrix:
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
