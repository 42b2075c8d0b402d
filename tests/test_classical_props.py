"""Property tests of the orthogonality lemma behind ``is_j_orthogonal``
and of the Cayley transform's one solve.

``is_j_orthogonal`` forms A A^t alone: over the commutative D_n,
A A^t = I makes det(A) a unit, so A^(-1) = A^t and A^t A = I follows.
The oracle ``is_orthogonal_by_products`` forms both products in full.
The matrices are Cayley samples with one entry spoiled, some of them
still orthogonal, and sparse matrices of signed units and nilpotents,
among them signed permutations.  ``cayley`` solves (I - X) Y = 2I and
takes I off the diagonal of Y; it must equal the solution A of
(I - X) A = I + X on random generator mixes.  Derandomized, so every run
draws the same examples.
"""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ckq.ckclassical import cayley, is_j_orthogonal, random_cayley, solve  # noqa: E402
from ckq.coeffring import DualElement, JSignature, ScalarExpr  # noqa: E402
from ckq.rmatrix import QTensor  # noqa: E402
from classical_oracle import (generator_mix_by_definition,  # noqa: E402
                              is_orthogonal_by_products)

PROPS = settings(derandomize=True, max_examples=60, deadline=None)

signatures = st.sampled_from(["1,1", "iota,1", "iota,iota", "1,1,1", "iota,1,iota",
                              "1,iota,iota"]).map(JSignature.parse)


def entries(n):
    """0, +-1, +-iota_k, 1 + iota_k, and q times a nilpotent."""
    units = [DualElement.one(n), -DualElement.one(n)]
    nils = [DualElement.monomial(n, 1 << k, c) for k in range(n) for c in (1, -1)]
    mixed = [DualElement.one(n) + x for x in nils[::2]]
    q = [DualElement.monomial(n, 1, ScalarExpr.q_power(1))]
    return st.sampled_from([DualElement.zero(n)] + units + nils + mixed + q)


@st.composite
def spoiled_cayley(draw):
    j = draw(signatures)
    A = random_cayley(j, random.Random(draw(st.integers(0, 10 ** 6))))
    data = dict(A.data)
    key = (draw(st.integers(1, j.N)), draw(st.integers(1, j.N)))
    data[key] = draw(st.sampled_from([A.get(*key), -A.get(*key)]) | entries(j.n))
    return QTensor(j.N, j.n, data)


@st.composite
def sparse_matrices(draw):
    j = draw(signatures)
    N, n = j.N, j.n
    # a signed permutation, each entry then maybe replaced by a drawn one
    perm = draw(st.permutations(range(1, N + 1)))
    data = {(i, perm[i - 1]): draw(st.sampled_from([1, -1])) * DualElement.one(n)
            for i in range(1, N + 1)}
    for key in draw(st.lists(st.tuples(st.integers(1, N), st.integers(1, N)),
                             max_size=3)):
        data[key] = draw(entries(n))
    return QTensor(N, n, data)


@PROPS
@given(st.one_of(spoiled_cayley(), sparse_matrices()))
def test_one_gram_product_decides_orthogonality(A):
    assert is_j_orthogonal(A) == is_orthogonal_by_products(A)


@PROPS
@given(signatures, st.integers(0, 10 ** 6))
def test_cayley_equals_the_solve_against_i_plus_x(j, seed):
    X = generator_mix_by_definition(j, random.Random(seed))
    I = QTensor.identity(j.N, j.n)
    assert cayley(X) == solve(I - X, I + X)
