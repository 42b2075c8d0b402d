"""Property tests of ``render.write_json`` against the standard json encoder.

Derandomized, so every run draws the same examples.
"""

import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from ckq import render  # noqa: E402

PROPS = settings(derandomize=True, max_examples=300, deadline=None)

# quotes, backslashes, control characters, non-ASCII (also outside the BMP)
# and a lone surrogate, next to arbitrary characters
text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\t/é€\U0001f600\ud800'),
                         st.characters()), max_size=8)

scalars = st.one_of(
    st.none(), st.booleans(), text,
    st.integers(-(2 ** 70), 2 ** 70),
    st.integers(2 ** 64, 2 ** 200),
)


def containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.dictionaries(text, children, max_size=4),
                     st.lists(children, max_size=3).map(tuple))


documents = st.recursive(scalars, containers, max_leaves=25)
nonempty = st.one_of(st.lists(documents, min_size=1, max_size=3),
                     st.dictionaries(text, documents, min_size=1, max_size=3))


def stdlib(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


def written(doc):
    out = io.StringIO()
    render.write_json(doc, out)
    return out.getvalue()


@PROPS
@given(documents)
def test_json_text_is_stdlib_dumps(doc):
    assert written(doc) == stdlib(doc)


@st.composite
def shared_at_several_depths(draw):
    """A document holding one sub-object at two or more depths, some of
    them more than once."""
    sub = draw(nonempty)
    doc = draw(documents)
    spots = []
    for depth in draw(st.lists(st.integers(0, 4), min_size=2, max_size=4,
                               unique=True)):
        node = sub
        for _ in range(depth):
            node = [node, draw(scalars)] if draw(st.booleans()) else {"k": node}
        spots.append(node)
    return {"doc": doc, "spots": spots + [sub], "again": {"x": sub}}


@PROPS
@given(shared_at_several_depths())
def test_json_text_reuses_shared_objects_correctly(doc):
    assert written(doc) == stdlib(doc)


@pytest.mark.parametrize("doc", [
    1.5, {"a": [0.0]}, {1: "one"}, {"a": {None: 1}}, [{(1, 2): 3}],
    {"a": object()}, [b"bytes"],
])
def test_json_text_refuses_floats_and_non_str_keys(doc):
    with pytest.raises(TypeError):
        written(doc)

