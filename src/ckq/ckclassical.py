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
from functools import lru_cache

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
    """A square matrix, optionally tagged with its signature.

    Entries are D_n elements or noncommutative polynomials (``NCPoly``);
    products, sums, transposes and entry maps work for both, while
    ``identity``, ``build``, ``is_identity`` and ``inverse`` are for D_n
    entries only.
    """

    __slots__ = ("N", "j", "rows")

    def __init__(self, rows, j: JSignature | None = None):
        self.rows = tuple(tuple(r) for r in rows)
        self.N = len(self.rows)
        for r in self.rows:
            if len(r) != self.N:
                raise DimensionError("matrix is not square")
        self.j = j

    @classmethod
    def identity(cls, N: int, n: int, j: JSignature | None = None) -> "CKMatrix":
        one = DualElement.one(n)
        zero = DualElement.zero(n)
        return cls([[one if i == k else zero for k in range(N)] for i in range(N)], j)

    @classmethod
    def build(cls, N: int, n: int, fn, j: JSignature | None = None) -> "CKMatrix":
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
        return cls(rows, j)

    @property
    def n(self) -> int:
        return self.rows[0][0].n if self.N else 0

    def entry(self, i: int, k: int) -> DualElement:
        return self.rows[i - 1][k - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, CKMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(e.key() for e in r) for r in self.rows))

    def __matmul__(self, other: "CKMatrix") -> "CKMatrix":
        if self.N != other.N:
            raise DimensionError("size mismatch in matrix product")
        N, n = self.N, self.n
        out = []
        for i in range(N):
            row = []
            for k in range(N):
                acc = self.rows[i][0].zero(n)
                for m in range(N):
                    a = self.rows[i][m]
                    b = other.rows[m][k]
                    if a and b:
                        acc = acc + a * b
                row.append(acc)
            out.append(row)
        return CKMatrix(out, self.j if self.j is not None else other.j)

    def __add__(self, other: "CKMatrix") -> "CKMatrix":
        return CKMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.j if self.j is not None else other.j,
        )

    def __sub__(self, other: "CKMatrix") -> "CKMatrix":
        return CKMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            self.j if self.j is not None else other.j,
        )

    def __neg__(self) -> "CKMatrix":
        return CKMatrix([[-a for a in r] for r in self.rows], self.j)

    def scale(self, c) -> "CKMatrix":
        return CKMatrix([[a * c for a in r] for r in self.rows], self.j)

    def transpose(self) -> "CKMatrix":
        return CKMatrix(list(zip(*self.rows)), self.j)

    def map_entries(self, fn) -> "CKMatrix":
        return CKMatrix([[fn(a) for a in r] for r in self.rows], self.j)

    def is_identity(self) -> bool:
        """Exact test against the identity; D_n entries only."""
        one = DualElement.one(self.n)
        for i, row in enumerate(self.rows):
            for k, e in enumerate(row):
                if e != (one if i == k else 0):
                    return False
        return True

    def inverse(self) -> "CKMatrix":
        """Gauss-Jordan over D_n (D_n entries only); pivots must be units
        of the local ring."""
        N, n = self.N, self.n
        work = [list(r) + [DualElement.one(n) if i == k else DualElement.zero(n) for k in range(N)]
                for i, r in enumerate(self.rows)]
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
            work[col] = [e * pivot_inv for e in work[col]]
            for r in range(N):
                if r == col or not work[r][col]:
                    continue
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
        return CKMatrix([r[N:] for r in work], self.j)

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.rows)

    def __repr__(self) -> str:
        return "CKMatrix(%dx%d over D_%d)" % (self.N, self.N, self.n)


# ------------------------------------------------------------ construction


def is_j_orthogonal(A: CKMatrix) -> bool:
    """Exact test of A A^t = A^t A = I."""
    At = A.transpose()
    return (A @ At).is_identity() and (At @ A).is_identity()


def lie_generator(k: int, p: int, j: JSignature) -> CKMatrix:
    """The weighted antisymmetric generator J(k,p) (e_kp - e_pk), k < p."""
    if not (1 <= k < p <= j.N):
        raise ValueError("need 1 <= k < p <= N")
    w = j.J(k, p)

    def fn(i, m):
        if (i, m) == (k, p):
            return w
        if (i, m) == (p, k):
            return -w
        return DualElement.zero(j.n)

    return CKMatrix.build(j.N, j.n, fn, j)


def cayley(X: CKMatrix) -> CKMatrix:
    """The exact Cayley transform (I + X)(I - X)^(-1)."""
    I = CKMatrix.identity(X.N, X.n, X.j)
    return (I + X) @ (I - X).inverse()


def random_cayley(j: JSignature, rng, span: int = 3) -> CKMatrix:
    """A random group element: Cayley transform of a random generator mix."""
    N = j.N
    X = CKMatrix.identity(N, j.n, j).scale(0)
    for k in range(1, N + 1):
        for p in range(k + 1, N + 1):
            theta = Fraction(rng.randint(-span, span), rng.randint(1, 3))
            if theta:
                X = X + lie_generator(k, p, j).scale(theta)
    return cayley(X)


# ------------------------------------------------------- symplectic frame


def antidiagonal_c0(N: int, n: int) -> CKMatrix:
    """C0 with ones on the antidiagonal."""
    return CKMatrix.build(N, n, lambda i, k: 1 if i + k == N + 1 else 0)


@lru_cache(maxsize=None)
def _symplectic_rows(N: int, n: int):
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
    return tuple(tuple(r) for r in rows)


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
    return CKMatrix(_symplectic_rows(N, n))


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


@lru_cache(maxsize=None)
def weight_pattern_symplectic(j: JSignature) -> dict:
    """Which subset monomials a generic group element shows per entry.

    Expands D^(-1) A D over formal parameters: the (m,l) parameter of A
    contributes the weight of slot (m,l) whenever the surrounding D
    coefficients are nonzero, and distinct parameters cannot cancel.
    Returns {(i,k): sorted tuple of bitmasks}.
    """
    N, n = j.N, j.n
    D = symplectic_d(N, n)
    Dinv = symplectic_d_inverse(N, n)
    pattern = {}
    for i in range(1, N + 1):
        for k in range(1, N + 1):
            masks = set()
            for m in range(1, N + 1):
                if not Dinv.entry(i, m):
                    continue
                for l in range(1, N + 1):
                    if not D.entry(l, k):
                        continue
                    w = j.weight(m, l)
                    for mask in w.terms:
                        masks.add(mask)
            pattern[(i, k)] = tuple(sorted(masks))
    return pattern
