"""R-matrix layer: construction, braid/cubic/metric checks, contraction."""

import pytest

from ckq.coeffring import DualElement, JSignature, ScalarExpr
from ckq.ckclassical import antidiagonal_c0, random_cayley
from ckq.rmatrix import (
    QTensor,
    contract,
    frt_c,
    frt_r,
    mirror,
    projector_check,
    r_hat,
    r_plus_minus,
    rho2,
    verify_cubic,
    verify_ybe,
)

from conftest import all_signatures, at_q_one, at_v_zero, seeded


def lam():
    return DualElement.scalar(2, ScalarExpr.lam())


def identity_vv(N: int, n: int) -> QTensor:
    """The identity on V (x) V: A1 A2 for the identity matrix A."""
    return QTensor.pair(QTensor.identity(N, n))


def _lam_doubled(N: int) -> QTensor:
    """frt_r(N) with every entry equal to lambda doubled."""
    R = frt_r(N)
    lam_n = DualElement.scalar(N - 1, ScalarExpr.lam())
    return QTensor(N, N - 1, {k: v + v if v == lam_n else v
                              for k, v in R.data.items()})


def _perturbed() -> QTensor:
    data = dict(frt_r(3).data)
    data[(3, 1, 1, 3)] = DualElement.one(2)
    return QTensor(3, 2, data)


def test_rho2_frozen():
    assert rho2(2) == (0, 0)
    assert rho2(3) == (1, 0, -1)
    assert rho2(4) == (2, 0, 0, -2)
    assert rho2(5) == (3, 1, 0, -1, -3)


def test_sparsity_frozen():
    # diagonal + two shears, minus the even-N middle overlap that cancels
    assert frt_r(3).nnz() == 14
    assert frt_r(4).nnz() == 25
    assert frt_r(5).nnz() == 43


def test_frozen_entries_n3():
    R = frt_r(3)
    q = DualElement.scalar(2, ScalarExpr.q_power(1))
    one = DualElement.one(2)
    assert R.get(1, 1, 1, 1) == q
    assert R.get(2, 2, 2, 2) == one          # self-mirrored middle index
    assert R.get(1, 3, 1, 3) == q.inverse()
    assert R.get(3, 3, 3, 3) == q
    assert R.get(2, 1, 1, 2) == lam()
    assert R.get(2, 2, 1, 3) == -(lam() * DualElement.scalar(2, ScalarExpr.s_power(-1)))
    # overlap slot accumulates both shears
    assert R.get(3, 1, 1, 3) == lam() * (one - q.inverse())
    assert R.get(1, 2, 1, 2) == one


def test_r_is_identity_at_q_one():
    for N in (3, 4, 5):
        R = frt_r(N)
        assert R.map_entries(at_q_one) == identity_vv(N, N - 1)


def test_degenerate_sizes_rejected():
    with pytest.raises(ValueError):
        frt_r(2)
    with pytest.raises(ValueError):
        frt_c(2)


def test_metric_frozen_n3():
    C = frt_c(3)
    s = DualElement.scalar(2, ScalarExpr.s_power(1))
    assert C.get(1, 3) == s.inverse()
    assert C.get(2, 2) == DualElement.one(2)
    assert C.get(3, 1) == s
    assert C.get(1, 1) == DualElement.zero(2)


def test_metric_squares_to_identity():
    for N in (3, 4, 5):
        C = frt_c(N)
        assert C @ C == QTensor.identity(N, N - 1)
        assert C.map_entries(at_q_one) == antidiagonal_c0(N, N - 1)


def test_ybe_symbolic():
    for N in (3, 4):
        assert verify_ybe(frt_r(N))


def test_ybe_rejects_perturbation():
    R = frt_r(3)
    data = dict(R.data)
    data[(2, 1, 1, 2)] = data[(2, 1, 1, 2)] + DualElement.one(2)
    bad = QTensor(R.N, R.n, data)
    assert not verify_ybe(bad)


def test_cubic_symbolic():
    for N in (3, 4):
        assert verify_cubic(frt_r(N))


def test_cubic_rejects_perturbation():
    assert not verify_cubic(_perturbed())


def test_projector_symbolic():
    for N in (3, 4):
        assert projector_check(frt_r(N), frt_c(N))


def test_projector_needs_matching_twist():
    # the transposed metric is a different eigendirection
    N = 3
    assert not projector_check(frt_r(N), frt_c(N).transpose())


def test_contracted_checks_all_signatures_n3():
    N = 3
    R, C = frt_r(N), frt_c(N)
    for j in all_signatures(N):
        Rc = contract(R, j)
        Cc = contract(C, j)
        assert verify_ybe(Rc)
        assert verify_cubic(Rc, j)
        assert projector_check(Rc, Cc, j)


def test_contracted_r_is_identity_mod_nilpotents():
    j = JSignature.parse("iota,iota")
    Rc = contract(frt_r(3), j)
    assert Rc.map_entries(at_v_zero) == identity_vv(3, 2)


def test_cubic_inverse_symbolic():
    for N in (3, 4):
        R = frt_r(N)
        _, Rm = r_plus_minus(R)
        I = identity_vv(N, N - 1)
        assert Rm @ R == I
        assert R @ Rm == I


def test_inverse_commutes_with_contraction():
    N = 3
    R = frt_r(N)
    _, Rm = r_plus_minus(R)
    for j in all_signatures(N):
        assert contract(Rm, j) == r_plus_minus(contract(R, j), j)[1]


def test_fully_contracted_inverse_is_reflection():
    # R = I + (nilpotent part) with square zero, so R^(-1) = 2I - R
    j = JSignature.parse("iota,iota")
    Rc = contract(frt_r(3), j)
    I = identity_vv(3, 2)
    assert r_plus_minus(Rc, j)[1] == I.scale(2) - Rc


@pytest.mark.parametrize("make,raw,on_cubic", [
    pytest.param(lambda: frt_r(3), None, True, id="frt_r(3)"),
    pytest.param(lambda: frt_r(4), None, True, id="frt_r(4)"),
    pytest.param(lambda: frt_r(3), "iota,1", True, id="frt_r(3)-iota,1"),
    pytest.param(lambda: frt_r(4), "iota,1,iota", True, id="frt_r(4)-iota,1,iota"),
    # fails the braid relation at 1,1 but passes it at iota,1
    pytest.param(lambda: _lam_doubled(3), "1,1", False, id="lam-doubled-1,1"),
    pytest.param(lambda: _lam_doubled(3), "iota,1", False, id="lam-doubled-iota,1"),
    pytest.param(_perturbed, None, False, id="perturbed"),
    # the flip has Rhat = I, which is not a root of the cubic
    pytest.param(lambda: QTensor.flip(3, 2), None, False, id="flip"),
])
def test_cubic_holds_exactly_when_the_inverse_exists(make, raw, on_cubic):
    j = None if raw is None else JSignature.parse(raw)
    R = make() if j is None else contract(make(), j)
    assert verify_cubic(R, j) is on_cubic
    if on_cubic:
        r_plus_minus(R, j)
    else:
        with pytest.raises(ArithmeticError, match="inverse check failed"):
            r_plus_minus(R, j)


def test_r_plus_minus():
    R = frt_r(3)
    rp, rm = r_plus_minus(R)
    # plus form is the flip conjugate, entry by entry
    for (i, j, k, l), val in R.data.items():
        assert rp.get(j, i, l, k) == val
    assert rm @ R == identity_vv(3, 2)


def test_flip_involution_and_identity():
    N = 3
    P = QTensor.flip(N, 2)
    I = identity_vv(N, 2)
    assert P @ P == I
    assert P @ I == P
    assert I @ P == P


def test_r_hat_composition():
    R = frt_r(3)
    M = r_hat(R)
    for (i, j, k, l), val in R.data.items():
        assert M.get(j, i, k, l) == val


def test_apply_vec_matches_dense_action():
    R = frt_r(3)
    v = frt_c(3).data
    out = R.apply_vec(v)
    for i in range(1, 4):
        for j in range(1, 4):
            acc = DualElement.zero(2)
            for (a, b), w in v.items():
                acc = acc + R.get(i, j, a, b) * w
            assert out.get((i, j), DualElement.zero(2)) == acc


def test_pair_of_the_identity_is_the_identity_on_v_v():
    for N in (3, 4):
        one = DualElement.one(N - 1)
        assert identity_vv(N, N - 1).data == {
            (i, j, i, j): one for i in range(1, N + 1) for j in range(1, N + 1)}


def test_pair_is_multiplicative_on_cayley_samples():
    # (A B)1 (A B)2 = A1 A2 B1 B2, since A2 and B1 act on different legs
    rng = seeded("pair-product")
    for N in (3, 4):
        for j in all_signatures(N):
            A, B = random_cayley(j, rng), random_cayley(j, rng)
            assert QTensor.pair(A @ B) == QTensor.pair(A) @ QTensor.pair(B), j


def test_mirror_helper():
    assert [mirror(5, i) for i in range(1, 6)] == [5, 4, 3, 2, 1]
    assert mirror(4, 2) == 3
