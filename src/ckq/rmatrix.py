"""The orthogonal-series R-matrix, its metric, and its consistency checks.

The operator acts on V (x) V for an N-dimensional space with mirrored index
i' = N+1-i.  Everything is stored sparsely with exact coefficients, so the
braid relation, the minimal cubic, and the metric eigenvector property are
verified by direct expansion, both before and after the slot contraction
q^a -> 1 + a*J*v.
"""

from __future__ import annotations

from .coeffring import (
    DimensionError,
    DualElement,
    JSignature,
    ScalarExpr,
)
from .ckclassical import CKMatrix


class QTensor:
    """A sparse operator on V (x) V; keys are (out1, out2, in1, in2)."""

    __slots__ = ("N", "n", "data")

    def __init__(self, N: int, n: int, data: dict | None = None):
        self.N = N
        self.n = n
        self.data = {}
        if data:
            for key, val in data.items():
                if val:
                    self.data[key] = val

    @classmethod
    def identity(cls, N: int, n: int) -> "QTensor":
        one = DualElement.one(n)
        return cls(N, n, {(i, j, i, j): one
                          for i in range(1, N + 1) for j in range(1, N + 1)})

    @classmethod
    def flip(cls, N: int, n: int) -> "QTensor":
        one = DualElement.one(n)
        return cls(N, n, {(j, i, i, j): one
                          for i in range(1, N + 1) for j in range(1, N + 1)})

    def get(self, i: int, j: int, k: int, l: int) -> DualElement:
        return self.data.get((i, j, k, l), DualElement.zero(self.n))

    def nnz(self) -> int:
        return len(self.data)

    def _check(self, other: "QTensor"):
        if self.N != other.N or self.n != other.n:
            raise DimensionError("tensor shape mismatch")

    def __eq__(self, other) -> bool:
        return (isinstance(other, QTensor) and self.N == other.N
                and self.n == other.n and self.data == other.data)

    def __add__(self, other: "QTensor") -> "QTensor":
        self._check(other)
        out = dict(self.data)
        for key, val in other.data.items():
            acc = out.get(key)
            t = val if acc is None else acc + val
            if t:
                out[key] = t
            elif acc is not None:
                del out[key]
        return QTensor(self.N, self.n, out)

    def __sub__(self, other: "QTensor") -> "QTensor":
        return self + other.scale(-1)

    def scale(self, c) -> "QTensor":
        return QTensor(self.N, self.n, {k: v * c for k, v in self.data.items()})

    def __mul__(self, other: "QTensor") -> "QTensor":
        """Operator composition."""
        self._check(other)
        by_out: dict = {}
        for (a, b, k, l), val in other.data.items():
            by_out.setdefault((a, b), []).append(((k, l), val))
        out: dict = {}
        for (i, j, a, b), u in self.data.items():
            for (k, l), w in by_out.get((a, b), ()):
                key = (i, j, k, l)
                p = u * w
                acc = out.get(key)
                t = p if acc is None else acc + p
                if t:
                    out[key] = t
                elif acc is not None:
                    del out[key]
        return QTensor(self.N, self.n, out)

    def map_entries(self, fn) -> "QTensor":
        return QTensor(self.N, self.n, {k: fn(v) for k, v in self.data.items()})

    def is_zero(self) -> bool:
        return not self.data

    def apply_vec(self, vec: dict) -> dict:
        """Apply to a vector {(k,l): coeff} on V (x) V."""
        out: dict = {}
        for (i, j, k, l), u in self.data.items():
            w = vec.get((k, l))
            if w is None:
                continue
            key = (i, j)
            p = u * w
            acc = out.get(key)
            t = p if acc is None else acc + p
            if t:
                out[key] = t
            elif acc is not None:
                del out[key]
        return out

    def __repr__(self) -> str:
        return "QTensor(N=%d, n=%d, nnz=%d)" % (self.N, self.n, self.nnz())


# ----------------------------------------------------------- construction


def mirror(N: int, i: int) -> int:
    return N + 1 - i


def rho2(N: int) -> tuple:
    """Twice the weight shifts: (N-2, N-4, ..., mirrored negatives)."""
    out = [0] * N
    for i in range(1, N // 2 + 1):
        out[i - 1] = N - 2 * i
        out[N - i] = -(N - 2 * i)
    return tuple(out)


def frt_r(N: int, n: int | None = None) -> QTensor:
    """The orthogonal-series solution of the braid relation.

    Diagonal part q / q^(-1) / 1 by mirror coincidences, a lower shear of
    lambda = q - q^(-1), and the mirrored compensating shear carrying the
    half-integer weight shifts (kept exact through the s = q^(1/2) slot).
    N = 2 is degenerate for the orthogonal series and rejected.
    """
    if N < 3:
        raise ValueError("need N >= 3")
    if n is None:
        n = N - 1
    r2 = rho2(N)
    lam = DualElement.scalar(n, ScalarExpr.lam())
    data: dict = {}

    def put(key, val):
        acc = data.get(key)
        t = val if acc is None else acc + val
        if t:
            data[key] = t
        elif acc is not None:
            del data[key]

    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j and i != mirror(N, i):
                d = ScalarExpr.q_power(1)
            elif j == mirror(N, i) and i != mirror(N, i):
                d = ScalarExpr.q_power(-1)
            else:
                d = ScalarExpr.one()
            put((i, j, i, j), DualElement.scalar(n, d))
    for i in range(1, N + 1):
        for j in range(1, i):
            put((i, j, j, i), lam)
            ip, jp = mirror(N, i), mirror(N, j)
            shift = DualElement.scalar(
                n, ScalarExpr.s_power(r2[i - 1] - r2[j - 1]))
            put((i, ip, j, jp), -(lam * shift))
    return QTensor(N, n, data)


def frt_c(N: int, n: int | None = None) -> CKMatrix:
    """The quantum metric: antidiagonal of s^(-2 rho) powers; squares to I.

    The sign of the twist is pinned by projector_check against frt_r.
    """
    if N < 3:
        raise ValueError("need N >= 3")
    if n is None:
        n = N - 1
    r2 = rho2(N)

    def fn(i, k):
        if k == mirror(N, i):
            return DualElement.scalar(n, ScalarExpr.s_power(-r2[i - 1]))
        return DualElement.zero(n)

    return CKMatrix.build(N, n, fn)


def r_hat(R: QTensor) -> QTensor:
    """Flip composed with R (the braid form)."""
    return QTensor.flip(R.N, R.n) * R


# ------------------------------------------------------------ contraction


def contract(x, j: JSignature):
    """Apply the slot contraction to a tensor, matrix, or element."""
    if isinstance(x, QTensor):
        if x.n != j.n:
            raise DimensionError("signature D_%d vs tensor D_%d" % (j.n, x.n))
        return x.map_entries(lambda e: e.specialize(j))
    if isinstance(x, CKMatrix):
        if x.n != j.n:
            raise DimensionError("signature D_%d vs matrix D_%d" % (j.n, x.n))
        return CKMatrix([[e.specialize(j) for e in row] for row in x.rows], j)
    if isinstance(x, DualElement):
        return x.specialize(j)
    raise TypeError("cannot contract %r" % (x,))


# ------------------------------------------------------------- inversion


def _pair_rank(N: int, i: int, j: int) -> int:
    return (i - 1) * N + (j - 1)


def inverse_triangular(R: QTensor) -> QTensor:
    """Invert an operator that is lower triangular in row-major pair order.

    Forward substitution column by column; diagonal entries must be units.
    """
    N, n = R.N, R.n
    rows: dict = {}
    diag_inv: dict = {}
    for (i, j, k, l), val in R.data.items():
        if (i, j) == (k, l):
            diag_inv[(i, j)] = val.inverse()
        else:
            if _pair_rank(N, i, j) <= _pair_rank(N, k, l):
                raise ValueError("operator is not lower triangular")
            rows.setdefault((i, j), []).append(((k, l), val))
    pairs = sorted(
        ((i, j) for i in range(1, N + 1) for j in range(1, N + 1)),
        key=lambda p: _pair_rank(N, *p),
    )
    data: dict = {}
    for col in pairs:
        col_rank = _pair_rank(N, *col)
        x: dict = {col: diag_inv[col]}
        for row in pairs:
            if _pair_rank(N, *row) <= col_rank or row not in rows:
                continue
            acc = None
            for below, val in rows[row]:
                w = x.get(below)
                if w is None:
                    continue
                p = val * w
                acc = p if acc is None else acc + p
            if acc is not None and acc:
                x[row] = -(diag_inv[row] * acc)
        for row, val in x.items():
            data[row + col] = val
    return QTensor(N, n, data)


def r_plus_minus(R: QTensor) -> tuple:
    """(flip R flip, R^(-1)), checked to be genuine one-sided inverses."""
    P = QTensor.flip(R.N, R.n)
    r_plus = P * R * P
    r_minus = inverse_triangular(R)
    I = QTensor.identity(R.N, R.n)
    if r_minus * R != I or R * r_minus != I:
        raise ArithmeticError("inverse check failed")
    return r_plus, r_minus


# ----------------------------------------------------------- three slots


def _embed3(R: QTensor, legs: tuple) -> dict:
    """R on two of three slots, identity on the remaining one."""
    N = R.N
    passive = ({1, 2, 3} - set(legs)).pop()
    out: dict = {}
    for (i, j, k, l), val in R.data.items():
        for c in range(1, N + 1):
            o = [None, None, None]
            s = [None, None, None]
            o[legs[0] - 1], o[legs[1] - 1], o[passive - 1] = i, j, c
            s[legs[0] - 1], s[legs[1] - 1], s[passive - 1] = k, l, c
            out[tuple(o) + tuple(s)] = val
    return out


def _mul3(A: dict, B: dict, n: int) -> dict:
    by_out: dict = {}
    for key, val in B.items():
        by_out.setdefault(key[:3], []).append((key[3:], val))
    out: dict = {}
    for key, u in A.items():
        for ins, w in by_out.get(key[3:], ()):
            kk = key[:3] + ins
            p = u * w
            acc = out.get(kk)
            t = p if acc is None else acc + p
            if t:
                out[kk] = t
            elif acc is not None:
                del out[kk]
    return out


def verify_ybe(R: QTensor) -> bool:
    """R12 R13 R23 == R23 R13 R12 by direct expansion on V (x) V (x) V."""
    n = R.n
    r12 = _embed3(R, (1, 2))
    r13 = _embed3(R, (1, 3))
    r23 = _embed3(R, (2, 3))
    lhs = _mul3(_mul3(r12, r13, n), r23, n)
    rhs = _mul3(_mul3(r23, r13, n), r12, n)
    return lhs == rhs


# -------------------------------------------------------------- checks


def _q_scalar(n: int, e: int, j: JSignature | None) -> DualElement:
    """q^e in the ring R lives in: symbolic, or contracted alongside R."""
    out = DualElement.scalar(n, ScalarExpr.q_power(e))
    return out if j is None else out.specialize(j)


def verify_cubic(R: QTensor, j: JSignature | None = None) -> bool:
    """(Rhat - q)(Rhat + 1/q)(Rhat - q^(1-N)) == 0.

    Pass the signature used to contract R so the reference scalars are
    taken in the same ring.
    """
    N, n = R.N, R.n
    M = r_hat(R)
    I = QTensor.identity(N, n)
    factors = (
        M - I.scale(_q_scalar(n, 1, j)),
        M + I.scale(_q_scalar(n, -1, j)),
        M - I.scale(_q_scalar(n, 1 - N, j)),
    )
    acc = factors[0]
    for f in factors[1:]:
        acc = acc * f
    return acc.is_zero()


def metric_vec(C: CKMatrix) -> dict:
    """vec(C) as a sparse vector on V (x) V."""
    out = {}
    for i in range(1, C.N + 1):
        for k in range(1, C.N + 1):
            e = C.entry(i, k)
            if e:
                out[(i, k)] = e
    return out


def projector_check(R: QTensor, C: CKMatrix, j: JSignature | None = None) -> bool:
    """Rhat K = q^(1-N) K for the rank-one K = vec(C) vec(C^(-1))^t.

    Since vec(C^(-1)) is nonzero this is exactly the eigenvector identity
    Rhat vec(C) = q^(1-N) vec(C), which is what gets expanded.  Pass the
    signature used to contract R so the eigenvalue lives in the same ring.
    """
    N, n = R.N, R.n
    M = r_hat(R)
    ev = _q_scalar(n, 1 - N, j)
    v = metric_vec(C)
    got = M.apply_vec(v)
    want = {k: ev * val for k, val in v.items()}
    return got == want
