"""Special matrices and weighted points: references for ckq.ckclassical.

The package samples group elements by the Cayley transform and reads the
symplectic weight pattern off the frame change.  These helpers build the
same objects from the definition instead: a parameter matrix weighted
slot by slot, the weighted Cartesian point, the two invariant forms, the
Lie algebra generators, a Cayley sample as the transform of a sum of
scaled generators, the Cayley transform itself as a product with a
Gauss-Jordan inverse, and the ``classical`` suite's report from a list
of all its samples.
"""

import random
from fractions import Fraction

from ckq import ckclassical
from ckq.ckclassical import SingularMatrixError, cayley
from ckq.coeffring import DimensionError, DualElement, NotInvertibleError, ScalarExpr
from ckq.rmatrix import QTensor


def make_special(a, j) -> QTensor:
    """Weight a parameter matrix into a group-patterned one.

    Entry (k,p) becomes weight(k,p) * a[k][p]; parameters may be ints,
    fractions, scalars or dual elements.
    """
    N = j.N
    rows = list(a)
    if len(rows) != N or any(len(r) != N for r in rows):
        raise DimensionError("parameter matrix must be %dx%d" % (N, N))

    def fn(i, k):
        x = rows[i - 1][k - 1]
        if not isinstance(x, DualElement):
            x = DualElement.scalar(j.n, x)
        return j.weight(i, k) * x

    return QTensor.build(N, j.n, fn)


def cartesian_vector(coords, j) -> tuple:
    """The weighted point (x1, J(1,2) x2, ..., J(1,N) xN)."""
    N = j.N
    coords = list(coords)
    if len(coords) != N:
        raise DimensionError("need %d coordinates" % N)
    out = []
    for k in range(1, N + 1):
        x = coords[k - 1]
        if not isinstance(x, DualElement):
            x = DualElement.scalar(j.n, x)
        out.append(j.J(1, k) * x)
    return tuple(out)


def apply_matrix(A: QTensor, x: tuple) -> tuple:
    if len(x) != A.N:
        raise DimensionError("vector length %d != matrix size %d" % (len(x), A.N))
    return tuple(
        sum((A.get(i, k) * x[k - 1] for k in range(2, A.N + 1)), A.get(i, 1) * x[0])
        for i in range(1, A.N + 1)
    )


def quadratic_form(x: tuple) -> DualElement:
    """Sum of squared coordinates (the Cayley-Klein metric on weighted points)."""
    acc = x[0] * x[0]
    for c in x[1:]:
        acc = acc + c * c
    return acc


def antidiagonal_form(x: tuple, y: tuple) -> DualElement:
    """The symplectic-frame bilinear form sum_i x_i y_{N+1-i}."""
    N = len(x)
    acc = x[0] * y[N - 1]
    for i in range(2, N + 1):
        acc = acc + x[i - 1] * y[N - i]
    return acc


def carries_weight(e: DualElement, w: DualElement) -> bool:
    """Whether the weight w divides e.

    Every weight J(k,p) is one subset monomial with coefficient 1, so w
    divides e exactly when every term's subset mask contains w's mask.
    """
    (mask, coef), = w.terms.items()
    assert coef == ScalarExpr.one()
    return all(m & mask == mask for m in e.terms)


def in_generator_span(M: QTensor, j) -> bool:
    """Whether M is a D_n-combination of the weighted generators
    J(k,p) (e_kp - e_pk): antisymmetric, and each entry above the diagonal
    divisible by its weight."""
    for k in range(1, M.N + 1):
        for p in range(k, M.N + 1):
            if M.get(p, k) != -M.get(k, p):
                return False
            if not carries_weight(M.get(k, p), j.weight(k, p)):
                return False
    return True


def generator_by_definition(k: int, p: int, j) -> QTensor:
    """J(k,p) (e_kp - e_pk): the weight at (k,p), its negation at (p,k)."""
    w = j.J(k, p)

    def fn(i, m):
        if (i, m) == (k, p):
            return w
        if (i, m) == (p, k):
            return -w
        return DualElement.zero(j.n)

    return QTensor.build(j.N, j.n, fn)


def generator_mix_by_definition(j, rng, span: int = 3) -> QTensor:
    """The sum of theta * J(k,p) (e_kp - e_pk) that ``random_cayley``
    transforms, drawing theta for each k < p in row-major order."""
    N = j.N
    X = QTensor(N, j.n)
    for k in range(1, N + 1):
        for p in range(k + 1, N + 1):
            theta = Fraction(rng.randint(-span, span), rng.randint(1, 3))
            if theta:
                X = X + generator_by_definition(k, p, j).map_entries(lambda e: e * theta)
    return X


def random_cayley_by_generators(j, rng, span: int = 3) -> QTensor:
    """``ckclassical.random_cayley`` from its definition: the Cayley
    transform of ``generator_mix_by_definition``."""
    return cayley(generator_mix_by_definition(j, rng, span))


def gauss_jordan_inverse(M: QTensor) -> QTensor:
    """M^(-1) by Gauss-Jordan on [M | I], each row update a - f*b formed
    entry by entry; pivots must be units of D_n."""
    N, n = M.N, M.n
    work = [[M.get(i, k) for k in range(1, N + 1)]
            + [DualElement.one(n) if i == k else DualElement.zero(n) for k in range(1, N + 1)]
            for i in range(1, N + 1)]
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
    return QTensor(N, n, {(i + 1, k + 1): e for i, r in enumerate(work)
                          for k, e in enumerate(r[N:])})


def is_orthogonal_by_products(A: QTensor) -> bool:
    """A A^t = A^t A = I, with both products formed in full."""
    At = A.transpose()
    I = QTensor.identity(A.N, A.n)
    return A @ At == I and At @ A == I


def cayley_by_inverse(X: QTensor) -> QTensor:
    """(I + X)(I - X)^(-1), the inverse taken first and then multiplied."""
    I = QTensor.identity(X.N, X.n)
    return (I + X) @ gauss_jordan_inverse(I - X)


def classical_report(j, samples: int, seed: int) -> dict:
    """The ``classical`` suite's report with every sample drawn into one
    list first (by ``ckclassical.random_cayley``, so the draws match), each
    checked by full products, and samples 2k and 2k+1 multiplied."""
    rng = random.Random(seed)
    mats = [ckclassical.random_cayley(j, rng) for _ in range(samples)]
    orthogonal = sum(1 for A in mats if is_orthogonal_by_products(A))
    closed = sum(1 for A, B in zip(mats[::2], mats[1::2])
                 if is_orthogonal_by_products(A @ B))
    pairs = len(mats) // 2
    return {"ok": orthogonal == samples and closed == pairs, "samples": samples,
            "orthogonal": orthogonal, "product_pairs": pairs,
            "products_orthogonal": closed, "seed": seed}
