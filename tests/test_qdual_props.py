"""The word fold of ``ckq.qdual`` from a set of start rows, against its
single-row folds and against ``pair``.

``qdual._fold`` forms one tensor (avec, cvec) -> value per element word for
all the start rows it is given, and the suites read their start rows off
that one tensor.  Here the tensor from a random set of start rows is cut
row by row and compared with the fold from each start row alone, and each
of its entries with ``pair`` of the functional word the key names.  Words
are drawn from the split generators, at every N=3 signature and at N=4
``iota,1,iota``.  Derandomized, so every run draws the same examples.
"""

from itertools import product

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ckq import qdual  # noqa: E402
from ckq.coeffring import DualElement, JSignature  # noqa: E402
from ckq.freealg import GenSymbol  # noqa: E402
from ckq.qgroup import QuantumCKGroup, t_symbols  # noqa: E402

from conftest import all_signatures  # noqa: E402

PROPS = settings(derandomize=True, max_examples=200, deadline=None)

SIGNATURES = [str(j) for j in all_signatures(3)] + ["iota,1,iota"]
GROUPS = {}


def group(sig):
    if sig not in GROUPS:
        GROUPS[sig] = QuantumCKGroup(JSignature.parse(sig))
    return GROUPS[sig]


@st.composite
def folds(draw):
    """(G, families, start rows, element word): a nonempty set of start
    rows, and a word of up to three split generators."""
    G = group(draw(st.sampled_from(SIGNATURES)))
    fams = tuple(draw(st.lists(st.sampled_from(qdual.FUNCTIONAL_FAMILIES),
                               max_size=3)))
    rows = list(product(range(1, G.N + 1), repeat=len(fams)))
    starts = draw(st.lists(st.sampled_from(rows), min_size=1,
                           unique=True).map(tuple))
    # unweighted and diagonal generators pair to nonzero far more often
    syms = t_symbols(G.T)
    letters = st.one_of(
        st.sampled_from([g for g in syms if not g.mask and g.i == g.k]),
        st.sampled_from([g for g in syms if not g.mask]),
        st.sampled_from(syms))
    word = tuple(draw(st.lists(letters, max_size=3)))
    return G, fams, starts, word


@PROPS
@given(folds())
def test_fold_from_start_rows_is_the_single_row_folds(case):
    G, fams, starts, word = case
    tensor = qdual._fold(G, fams, starts, word, {})
    assert {avec for avec, _ in tensor} <= set(starts)
    for avec in starts:
        row = {key: val for key, val in tensor.items() if key[0] == avec}
        assert row == qdual._fold(G, fams, (avec,), word, {})


@PROPS
@given(folds(), st.data())
def test_pair_is_the_tensor_entry(case, data):
    G, fams, starts, word = case
    tensor = qdual._fold(G, fams, starts, word, {})
    avec = data.draw(st.sampled_from(starts))
    for bvec in product(range(1, G.N + 1), repeat=len(fams)):
        functional = tuple(GenSymbol(f, a, b)
                           for f, a, b in zip(fams, avec, bvec))
        assert (qdual.pair(G, functional, word)
                == tensor.get((avec, bvec), DualElement.zero(G.n)))
