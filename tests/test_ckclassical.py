"""Classical layer: special matrices, Cayley sampling, symplectic frame."""

from fractions import Fraction

import pytest

from ckq.coeffring import (
    DimensionError,
    DualElement,
    JSignature,
    ScalarExpr,
)
from ckq.ckclassical import (
    SingularMatrixError,
    antidiagonal_c0,
    cayley,
    is_j_orthogonal,
    lie_generator,
    random_cayley,
    solve,
    symplectic_d,
    symplectic_d_inverse,
    to_symplectic,
    weight_pattern_symplectic,
)
from ckq.rmatrix import QTensor

from classical_oracle import (
    antidiagonal_form,
    apply_matrix,
    carries_weight,
    cartesian_vector,
    cayley_by_inverse,
    gauss_jordan_inverse,
    generator_by_definition,
    generator_mix_by_definition,
    in_generator_span,
    is_orthogonal_by_products,
    make_special,
    quadratic_form,
    random_cayley_by_generators,
)
from conftest import all_signatures, rand_dual, seeded


# ------------------------------------------------------- basis change D


def test_d_c0_dt_is_identity():
    # the defining normalization, checked by direct multiplication
    for N in range(2, 7):
        n = N - 1
        D = symplectic_d(N, n)
        C0 = antidiagonal_c0(N, n)
        assert D @ C0 @ D.transpose() == QTensor.identity(N, n)


def test_dt_d_is_antidiagonal():
    for N in range(2, 7):
        n = N - 1
        D = symplectic_d(N, n)
        assert D.transpose() @ D == antidiagonal_c0(N, n)


def test_d_inverse_roundtrip():
    for N in range(2, 6):
        D = symplectic_d(N)
        Di = symplectic_d_inverse(N)
        I = QTensor.identity(N, N - 1)
        assert D @ Di == I
        assert Di @ D == I


def test_gauss_jordan_agrees_with_closed_form_inverse():
    for N in (2, 3, 4):
        D = symplectic_d(N)
        assert solve(D, QTensor.identity(N, N - 1)) == symplectic_d_inverse(N)


# ------------------------------------------------------- group sampling


def test_cayley_boost_frozen():
    j = JSignature.parse("iota")
    X = lie_generator(1, 2, j)
    G = cayley(X)
    i1 = DualElement.monomial(1, 1)
    assert G.get(1, 1) == DualElement.one(1)
    assert G.get(2, 2) == DualElement.one(1)
    assert G.get(1, 2) == i1 * 2
    assert G.get(2, 1) == -(i1 * 2)
    # half-angle parameter
    H = cayley(X.map_entries(lambda e: e * Fraction(1, 2)))
    assert H.get(1, 2) == i1
    assert H.get(2, 1) == -i1


def test_cayley_rotation_frozen():
    # untouched slot: the usual rational rotation with t = 1
    j = JSignature([False] * 1)
    G = cayley(lie_generator(1, 2, j))
    assert G.get(1, 1) == DualElement.zero(1)
    assert G.get(1, 2) == DualElement.one(1)
    assert G.get(2, 1) == -DualElement.one(1)
    assert G.get(2, 2) == DualElement.zero(1)
    # t = 1/2 gives the (3/5, 4/5) rotation
    H = cayley(lie_generator(1, 2, j).map_entries(lambda e: e * Fraction(1, 2)))
    assert H.get(1, 1) == DualElement.scalar(1, Fraction(3, 5))
    assert H.get(1, 2) == DualElement.scalar(1, Fraction(4, 5))


def test_cayley_elements_are_orthogonal():
    rng = seeded("cayley-orthogonal")
    for N in range(2, 6):
        for j in all_signatures(N):
            for _ in range(2):
                assert is_j_orthogonal(random_cayley(j, rng))


def test_orthogonality_refutes_a_perturbed_entry():
    # the test forms only the entries with i <= k of the symmetric
    # product A A^t.  One entry off by one breaks a diagonal entry; one entry
    # with its sign flipped keeps every diagonal entry and can only show
    # off the diagonal, so there the full products decide
    rng = seeded("cayley-perturbed")
    for N in (3, 4, 5):
        for j in all_signatures(N):
            A = random_cayley(j, rng)
            flips_refuted = 0
            for i in range(1, N + 1):
                for k in range(1, N + 1):
                    data = dict(A.data)
                    data[(i, k)] = A.get(i, k) + 1
                    assert not is_j_orthogonal(QTensor(N, j.n, data)), (j, i, k)
                    data[(i, k)] = -A.get(i, k)
                    flipped = QTensor(N, j.n, data)
                    assert is_j_orthogonal(flipped) == is_orthogonal_by_products(flipped)
                    flips_refuted += not is_orthogonal_by_products(flipped)
            assert flips_refuted, j


def test_cayley_matches_inverse_then_multiply():
    # one solve of (I - X) A = I + X gives (I + X)(I - X)^(-1) formed the
    # old way, on single generators and on the random samples
    for N in range(2, 6):
        for j in all_signatures(N):
            for k in range(1, N):
                X = lie_generator(k, N, j).map_entries(lambda e: e * Fraction(k, 3))
                assert cayley(X) == cayley_by_inverse(X)
            rng, ref = seeded("cayley-oracle" + str(j)), seeded("cayley-oracle" + str(j))
            for _ in range(2):
                assert random_cayley(j, rng) == cayley_by_inverse(generator_mix_by_definition(j, ref))


def test_lie_generator_is_the_weighted_antisymmetric_unit():
    for N in (2, 3, 4):
        for j in all_signatures(N)[::3]:
            for k in range(1, N + 1):
                for p in range(k + 1, N + 1):
                    assert lie_generator(k, p, j) == generator_by_definition(k, p, j)


def test_random_cayley_is_the_transform_of_scaled_generators():
    # same draws in the same order, so every seed gives the same samples
    for N in (2, 3, 4, 5):
        for j in all_signatures(N)[::3]:
            for seed in ("a", "b", "c"):
                rng, ref = seeded(seed + str(j)), seeded(seed + str(j))
                for _ in range(2):
                    assert random_cayley(j, rng) == random_cayley_by_generators(j, ref)
                assert rng.random() == ref.random()


def test_cayley_entries_carry_weights():
    # every entry of a group element is (its slot weight) * something
    rng = seeded("cayley-weights")
    for N in range(2, 6):
        for j in all_signatures(N):
            G = random_cayley(j, rng)
            for k in range(1, N + 1):
                for p in range(1, N + 1):
                    assert carries_weight(G.get(k, p), j.weight(k, p))


def test_group_closure_and_inverse():
    rng = seeded("closure")
    for N in (2, 3, 4, 5):
        for j in all_signatures(N):
            A = random_cayley(j, rng)
            B = random_cayley(j, rng)
            P = A @ B
            assert is_j_orthogonal(P)
            # Gauss-Jordan inverse must coincide with the transpose
            assert solve(A, QTensor.identity(N, j.n)) == A.transpose()


def test_quadratic_form_invariance():
    rng = seeded("metric")
    for N in (2, 3, 4):
        for j in all_signatures(N):
            A = random_cayley(j, rng)
            x = cartesian_vector([Fraction(rng.randint(-4, 4)) for _ in range(N)], j)
            assert quadratic_form(apply_matrix(A, x)) == quadratic_form(x)


def test_singular_matrix_raises():
    i1 = DualElement.monomial(1, 1)
    M = QTensor(2, 1, {(1, 1): i1, (2, 2): DualElement.one(1)})
    with pytest.raises(SingularMatrixError):
        solve(M, QTensor.identity(2, 1))
    with pytest.raises(SingularMatrixError):
        gauss_jordan_inverse(M)


def test_gauss_jordan_unipotent_plus_units():
    # invertible = unit diagonal + nilpotent corrections anywhere
    rng = seeded("gauss")
    for _ in range(25):
        n, N = 2, 3
        data = {}
        for i in range(1, N + 1):
            for k in range(1, N + 1):
                e = DualElement.zero(n)
                if i == k:
                    e = DualElement.scalar(n, ScalarExpr.s_power(rng.randint(-2, 2)))
                if rng.random() < 0.6:
                    mask = rng.randint(1, (1 << n) - 1)
                    e = e + DualElement.monomial(n, mask, rng.randint(-3, 3))
                data[(i, k)] = e
        M = QTensor(N, n, data)
        I = QTensor.identity(N, n)
        Mi = solve(M, I)
        assert M @ Mi == I
        assert Mi @ M == I
        assert Mi == gauss_jordan_inverse(M)
        B = QTensor.build(N, n, lambda i, k: rand_dual(rng, n))
        assert solve(M, B) == gauss_jordan_inverse(M) @ B


# -------------------------------------------------------- Lie structure


def test_commutator_frozen_n3():
    # [X_(1,2), X_(2,3)] = X_(1,3) for every signature
    for j in all_signatures(3):
        A = lie_generator(1, 2, j)
        B = lie_generator(2, 3, j)
        assert A @ B - B @ A == lie_generator(1, 3, j)


def test_commutator_closure_all_signatures():
    for N in range(2, 6):
        for j in all_signatures(N):
            gens = [(k, p) for k in range(1, N + 1) for p in range(k + 1, N + 1)]
            for a in range(len(gens)):
                for b in range(a + 1, len(gens)):
                    A = lie_generator(*gens[a], j)
                    B = lie_generator(*gens[b], j)
                    C = A @ B - B @ A
                    assert in_generator_span(C, j)


def test_generator_span_rejects_outside_elements():
    j = JSignature([False] * 2)
    M = QTensor.identity(3, 2)
    assert not in_generator_span(M, j)  # symmetric part present
    # antisymmetric, but entry (1,2) lacks the weight J(1,2) = iota_1
    j = JSignature.parse("iota,1")
    assert not in_generator_span(lie_generator(1, 2, JSignature([False] * 2)), j)
    assert in_generator_span(lie_generator(1, 2, j), j)


# ------------------------------------------------- weight pattern oracle


def test_weight_pattern_frozen_n3():
    j = JSignature.parse("iota,iota")
    pat = weight_pattern_symplectic(j)
    assert pat == {
        (1, 1): (0, 3), (1, 2): (1, 2), (1, 3): (0, 3),
        (2, 1): (1, 2), (2, 2): (0,), (2, 3): (1, 2),
        (3, 1): (0, 3), (3, 2): (1, 2), (3, 3): (0, 3),
    }
    assert sum(len(v) for v in pat.values()) == 17


def test_weight_pattern_trivial_signature():
    for N in (2, 3, 4, 5):
        pat = weight_pattern_symplectic(JSignature([False] * (N - 1)))
        assert all(v == (0,) for v in pat.values())


def test_weight_pattern_diagonal_has_body():
    # diagonal entries always admit a subset-free term
    for N in (2, 3, 4, 5):
        for j in all_signatures(N):
            pat = weight_pattern_symplectic(j)
            for i in range(1, N + 1):
                assert 0 in pat[(i, i)]


def _expansion_oracle(j):
    """Independent pattern: conjugate a matrix of multiplicatively
    independent markers (s^(3^slot)) and read off which subsets survive.
    Distinct slots land on distinct s-exponents, so nothing can cancel."""
    N, n = j.N, j.n
    A = make_special(
        [[ScalarExpr.s_power(3 ** ((m - 1) * N + l)) for l in range(1, N + 1)]
         for m in range(1, N + 1)],
        j,
    )
    B = to_symplectic(A)
    return {
        (i, k): tuple(sorted(B.get(i, k).terms))
        for i in range(1, N + 1)
        for k in range(1, N + 1)
    }


def test_weight_pattern_matches_expansion_oracle():
    for N in range(2, 6):
        for j in all_signatures(N):
            assert weight_pattern_symplectic(j) == _expansion_oracle(j)


def test_pattern_closed_under_products():
    rng = seeded("pattern-product")
    for N in (2, 3, 4):
        for j in all_signatures(N):
            pat = weight_pattern_symplectic(j)
            B1 = to_symplectic(random_cayley(j, rng))
            B2 = to_symplectic(random_cayley(j, rng))
            P = B1 @ B2
            for i in range(1, N + 1):
                for k in range(1, N + 1):
                    assert set(P.get(i, k).terms) <= set(pat[(i, k)])


# -------------------------------------------------- symplectic invariance


def test_to_symplectic_preserves_antidiagonal_metric():
    rng = seeded("symplectic-metric")
    for N in (2, 3, 4):
        for j in all_signatures(N):
            B = to_symplectic(random_cayley(j, rng))
            C0 = antidiagonal_c0(N, j.n)
            assert B.transpose() @ C0 @ B == C0
            assert B @ C0 @ B.transpose() == C0


def test_antidiagonal_form_invariance_on_vectors():
    rng = seeded("antidiag-vec")
    j = JSignature.parse("iota,1,iota")
    B = to_symplectic(random_cayley(j, rng))
    x = tuple(DualElement.scalar(3, rng.randint(-3, 3)) for _ in range(4))
    y = tuple(DualElement.scalar(3, rng.randint(-3, 3)) for _ in range(4))
    assert antidiagonal_form(apply_matrix(B, x), apply_matrix(B, y)) == antidiagonal_form(x, y)


# --------------------------------------------------------------- guards


def test_make_special_shape_guard():
    j = JSignature([False] * 2)
    with pytest.raises(DimensionError):
        make_special([[1, 2], [3, 4]], j)


def test_cartesian_vector_weights():
    j = JSignature.parse("iota,iota")
    x = cartesian_vector([1, 1, 1], j)
    assert x[0] == DualElement.one(2)
    assert x[1] == DualElement.monomial(2, 1)
    assert x[2] == DualElement.monomial(2, 1) * DualElement.monomial(2, 2)

