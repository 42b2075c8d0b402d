"""Special matrices and weighted points: references for ckq.ckclassical.

The package samples group elements by the Cayley transform and reads the
symplectic weight pattern off the frame change.  These helpers build the
same objects from the definition instead: a parameter matrix weighted
slot by slot, the weighted Cartesian point, and the two invariant forms.
"""

from ckq.ckclassical import CKMatrix
from ckq.coeffring import DimensionError, DualElement, ScalarExpr


def make_special(a, j) -> CKMatrix:
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

    return CKMatrix.build(N, j.n, fn, j)


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


def apply_matrix(A: CKMatrix, x: tuple) -> tuple:
    if len(x) != A.N:
        raise DimensionError("vector length %d != matrix size %d" % (len(x), A.N))
    return tuple(
        sum((A.entry(i, k) * x[k - 1] for k in range(2, A.N + 1)), A.entry(i, 1) * x[0])
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


def in_generator_span(M: CKMatrix, j) -> bool:
    """Whether M is a D_n-combination of the weighted generators
    J(k,p) (e_kp - e_pk): antisymmetric, and each entry above the diagonal
    divisible by its weight."""
    for k in range(1, M.N + 1):
        for p in range(k, M.N + 1):
            if M.entry(p, k) != -M.entry(k, p):
                return False
            if not carries_weight(M.entry(k, p), j.weight(k, p)):
                return False
    return True
