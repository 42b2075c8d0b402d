"""The orthogonal-series R-matrix, its metric, and its consistency checks.

The operator acts on V (x) V for an N-dimensional space with mirrored index
i' = N+1-i.  Everything is stored sparsely with exact coefficients, so the
braid relation, the minimal cubic, and the metric eigenvector property are
verified by direct expansion, both before and after the slot contraction
q^a -> 1 + a*J*v.

``QTensor`` is the one operator type: a matrix, such as the metric C, a
group element of ``ckclassical`` or the generating matrix T of
``qgroup``, is a two-leg tensor keyed (i, k), and the braiding tensor R
and the exchange components have four legs.  ``QTensor.dot`` and its
kernel ``_compose`` are the one place where tensors are composed, by
``@``, ``apply_vec``, ``qgroup`` and ``qdual``, by the summing rule of
``coeffring``.  ``dot``, ``apply_vec``, ``pair`` (the one-pair ``dot`` of
each two entries) and ``r_plus_minus`` take the group's dot table from
their callers; the R-matrix checks here have no group and sum without one.
"""

from __future__ import annotations

from .coeffring import (
    DimensionError,
    DualElement,
    JSignature,
    ScalarExpr,
    _collect,
    _dots,
    _memo,
)


class QTensor:
    """A sparse operator on tensor legs of an N-dimensional space: the
    first half of a key holds the output indices and the second half the
    input indices.

    A matrix has keys (i, k), an operator on V (x) V keys (out1, out2,
    in1, in2), and the three-slot embeddings of ``verify_ybe`` six legs.
    Entries are in D_n, or are ``NCPoly`` polynomials over D_n as in the
    generating matrix and the exchange components of ``qgroup``.
    ``by_output`` indexes a tensor on first use and keeps the index, so a
    tensor is not changed after its first product: change a copy of
    ``data`` and build a new tensor from it.
    """

    __slots__ = ("N", "n", "data", "_by_output")

    def __init__(self, N: int, n: int, data: dict | None = None):
        self.N = N
        self.n = n
        self.data = {k: v for k, v in data.items() if v} if data else {}
        self._by_output = None

    @classmethod
    def identity(cls, N: int, n: int) -> "QTensor":
        """The identity matrix; ``pair`` of it is the identity on V (x) V."""
        one = DualElement.one(n)
        return cls(N, n, {(i, i): one for i in range(1, N + 1)})

    @classmethod
    def build(cls, N: int, n: int, fn) -> "QTensor":
        """The matrix with entries fn(i, k), 1-based; scalars are coerced."""
        data = {}
        for i in range(1, N + 1):
            for k in range(1, N + 1):
                e = fn(i, k)
                data[(i, k)] = e if isinstance(e, DualElement) else DualElement.scalar(n, e)
        return cls(N, n, data)

    @classmethod
    def flip(cls, N: int, n: int) -> "QTensor":
        one = DualElement.one(n)
        return cls(N, n, {(j, i, i, j): one
                          for i in range(1, N + 1) for j in range(1, N + 1)})

    @classmethod
    def pair(cls, A: "QTensor", table: dict | None = None) -> "QTensor":
        """A1 A2 = A (x) A for a matrix A: entry (x, y, u, v) is
        A[x,u] * A[y,v], the one-pair ``dot`` of the entry type; ``table``
        as in ``dot``."""
        n, entries = A.n, A.data.items()
        return cls(A.N, n, {(x, y, u, v): type(a).dot(n, ((a, b),), table)
                            for (x, u), a in entries for (y, v), b in entries})

    def get(self, *key) -> DualElement:
        """The entry at ``key``, zero in D_n where there is none."""
        return self.data.get(key, DualElement.zero(self.n))

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
        return QTensor(self.N, self.n, _collect(other.data.items(), dict(self.data)))

    def __sub__(self, other: "QTensor") -> "QTensor":
        return self + other.scale(-1)

    def scale(self, c) -> "QTensor":
        return QTensor(self.N, self.n, {k: v * c for k, v in self.data.items()})

    def flipped(self) -> "QTensor":
        """P X P for the flip P: entry (i, j, k, l) is X[j, i, l, k]."""
        return QTensor(self.N, self.n,
                       {(j, i, l, k): v for (i, j, k, l), v in self.data.items()})

    def transpose(self) -> "QTensor":
        """Output and input halves of every key exchanged."""
        h = len(next(iter(self.data), ())) // 2
        return QTensor(self.N, self.n, {k[h:] + k[:h]: v for k, v in self.data.items()})

    def by_output(self) -> dict:
        """Output half -> [(input half, entry), ...], built on first use."""
        index = self._by_output
        if index is None:
            index = self._by_output = {}
            for key, val in self.data.items():
                h = len(key) // 2
                index.setdefault(key[:h], []).append((key[h:], val))
        return index

    @classmethod
    def dot(cls, pairs, table: dict | None = None) -> "QTensor":
        """The sum of the compositions X @ Y over the (X, Y) pairs.

        All the tensors share one shape, and their entries one type, D_n
        or ``NCPoly``.  The entry pairs that land on each output key are
        collected and summed once by ``coeffring._dots`` with ``table``,
        so no product tensor or partial sum is built per pair.
        """
        first = pairs[0][0]
        for X, Y in pairs:
            first._check(X)
            first._check(Y)
        return cls(first.N, first.n,
                   _compose(first.n, [(X.data, Y.by_output()) for X, Y in pairs],
                            table))

    def __matmul__(self, other: "QTensor") -> "QTensor":
        """Operator composition."""
        return QTensor.dot([(self, other)])

    def map_entries(self, fn) -> "QTensor":
        return QTensor(self.N, self.n, {k: fn(v) for k, v in self.data.items()})

    def apply_vec(self, vec: dict, table: dict | None = None) -> dict:
        """Apply to a vector {(k,l): coeff}, a right factor with empty input
        halves; ``table`` as in ``dot``."""
        return _compose(self.n, [(self.data, {kl: [((), w)] for kl, w in vec.items()})],
                        table)

    def __repr__(self) -> str:
        return "QTensor(N=%d, n=%d, nnz=%d)" % (self.N, self.n, self.nnz())


def _compose(n: int, pairs, table: dict | None = None) -> dict:
    """Key -> nonzero sum of X[out, mid] * Y[mid, in] over the pairs of X's
    entries and Y's ``by_output`` index, for the key out + in, summed by
    ``_dots`` with ``table``."""
    by_key: dict = {}
    for data, index in pairs:
        for key, u in data.items():
            h = len(key) // 2
            out = key[:h]
            for ins, w in index.get(key[h:], ()):
                uw = by_key.get(out + ins)
                if uw is None:
                    by_key[out + ins] = [(u, w)]
                else:
                    uw.append((u, w))
    return _dots(n, by_key, table)


# -- construction


def mirror(N: int, i: int) -> int:
    return N + 1 - i


def rho2(N: int) -> tuple:
    """Twice the weight shifts: (N-2, N-4, ..., mirrored negatives)."""
    out = [0] * N
    for i in range(1, N // 2 + 1):
        out[i - 1] = N - 2 * i
        out[N - i] = -(N - 2 * i)
    return tuple(out)


def frt_r(N: int) -> QTensor:
    """The orthogonal-series solution of the braid relation.

    Diagonal part q / q^(-1) / 1 by mirror coincidences, a lower shear of
    lambda = q - q^(-1), and the mirrored compensating shear carrying the
    half-integer weight shifts (kept exact through the s = q^(1/2) slot).
    N = 2 is degenerate for the orthogonal series and rejected.
    """
    if N < 3:
        raise ValueError("need N >= 3")
    n = N - 1
    r2 = rho2(N)
    lam = DualElement.scalar(n, ScalarExpr.lam())
    zero = DualElement.zero(n)
    data: dict = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i == j and i != mirror(N, i):
                d = ScalarExpr.q_power(1)
            elif j == mirror(N, i) and i != mirror(N, i):
                d = ScalarExpr.q_power(-1)
            else:
                d = ScalarExpr.one()
            data[(i, j, i, j)] = DualElement.scalar(n, d)
    for i in range(1, N + 1):
        for j in range(1, i):
            data[(i, j, j, i)] = lam
            # the compensating shear meets the lambda entry when j = i'
            ip, jp = mirror(N, i), mirror(N, j)
            shift = DualElement.scalar(
                n, ScalarExpr.s_power(r2[i - 1] - r2[j - 1]))
            data[(i, ip, j, jp)] = data.get((i, ip, j, jp), zero) - lam * shift
    return QTensor(N, n, data)


def frt_c(N: int) -> QTensor:
    """The quantum metric: antidiagonal of s^(-2 rho) powers; squares to I.

    The sign of the twist is pinned by projector_check against frt_r.
    """
    if N < 3:
        raise ValueError("need N >= 3")
    n = N - 1
    r2 = rho2(N)

    def fn(i, k):
        if k == mirror(N, i):
            return DualElement.scalar(n, ScalarExpr.s_power(-r2[i - 1]))
        return DualElement.zero(n)

    return QTensor.build(N, n, fn)


def r_hat(R: QTensor) -> QTensor:
    """Flip composed with R (the braid form)."""
    return QTensor.flip(R.N, R.n) @ R


# -- contraction


def contract(x: QTensor, j: JSignature) -> QTensor:
    """Apply the slot contraction to every entry of a tensor."""
    if x.n != j.n:
        raise DimensionError("signature D_%d vs tensor D_%d" % (j.n, x.n))
    return x.map_entries(specializer(j))


def specializer(j: JSignature):
    """The slot contraction of ``j`` as a function on D_n that specializes
    each distinct value once: R's many entries hold a few values, and the
    symbolic relations share few coefficients (152 distinct among 8,700
    at N=5 iota,1,iota,1)."""
    return _memo(lambda c: c.specialize(j))


# -- inversion


def q_scalar(n: int, e: int, j: JSignature | None) -> DualElement:
    """q^e in the ring R lives in: symbolic, or contracted alongside R."""
    out = DualElement.scalar(n, ScalarExpr.q_power(e))
    return out if j is None else out.specialize(j)


def _rhat_inverse(R: QTensor, j: JSignature | None,
                  table: dict | None = None) -> QTensor | None:
    """Rhat^(-1) from the cubic, or None when R is off the cubic.

    With e1, e2, e3 the elementary symmetric functions of the cubic's
    roots q, -1/q and q^(1-N), X = (Rhat^2 - e1 Rhat + e2) / e3 satisfies
    Rhat X - I = (Rhat - q)(Rhat + 1/q)(Rhat - q^(1-N)) / e3, so the one
    check Rhat X = I is the cubic, and X, a polynomial in Rhat, is then
    its two-sided inverse.  The scalars are taken in the ring of ``j``.
    """
    N, n = R.N, R.n
    M = r_hat(R)
    I = QTensor.pair(QTensor.identity(N, n))
    e1 = q_scalar(n, 1, j) - q_scalar(n, -1, j) + q_scalar(n, 1 - N, j)
    e2 = q_scalar(n, 2 - N, j) - q_scalar(n, -N, j) - DualElement.one(n)
    # (Rhat^2 - e1 Rhat + e2) times 1/e3 = -q^(N-1)
    X = QTensor.dot([(M, M), (M, I.scale(-e1)), (I, I.scale(e2))], table)
    X = QTensor.dot([(X, I.scale(-q_scalar(n, N - 1, j)))], table)
    return X if QTensor.dot([(M, X)], table) == I else None


def r_plus_minus(R: QTensor, j: JSignature | None = None,
                 table: dict | None = None) -> tuple:
    """(flip R flip, R^(-1)), with R^(-1) = Rhat^(-1) flip.

    Rhat^(-1) is read off the cubic of ``verify_cubic`` by the one check
    Rhat X = I (``_rhat_inverse``), so a tensor off the cubic raises
    ArithmeticError.  Pass the signature used to contract R so the scalars
    are taken in the same ring; ``table`` as in ``QTensor.dot``.
    """
    X = _rhat_inverse(R, j, table)
    if X is None:
        raise ArithmeticError("inverse check failed")
    return R.flipped(), X @ QTensor.flip(R.N, R.n)


# -- three slots


def _embed3(R: QTensor, legs: tuple) -> QTensor:
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
    return QTensor(N, R.n, out)


def verify_ybe(R: QTensor) -> bool:
    """R12 R13 R23 == R23 R13 R12 by direct expansion on V (x) V (x) V."""
    r12 = _embed3(R, (1, 2))
    r13 = _embed3(R, (1, 3))
    r23 = _embed3(R, (2, 3))
    return r12 @ r13 @ r23 == r23 @ r13 @ r12


# -- checks


def verify_cubic(R: QTensor, j: JSignature | None = None) -> bool:
    """(Rhat - q)(Rhat + 1/q)(Rhat - q^(1-N)) == 0, which holds exactly
    when Rhat^(-1) can be read off the cubic (``_rhat_inverse``).

    Pass the signature used to contract R so the reference scalars are
    taken in the same ring.
    """
    return _rhat_inverse(R, j) is not None


def projector_check(R: QTensor, C: QTensor, j: JSignature | None = None) -> bool:
    """Rhat K = q^(1-N) K for the rank-one K = vec(C) vec(C^(-1))^t.

    The metric is an involution, so vec(C^(-1)) = vec(C) is nonzero and
    this is exactly the eigenvector identity Rhat vec(C) = q^(1-N) vec(C),
    which is what gets expanded.  Pass the signature used to contract R so
    the eigenvalue lives in the same ring.
    """
    N, n = R.N, R.n
    M = r_hat(R)
    ev = q_scalar(n, 1 - N, j)
    v = C.data
    got = M.apply_vec(v)
    want = {k: ev * val for k, val in v.items()}
    return got == want
