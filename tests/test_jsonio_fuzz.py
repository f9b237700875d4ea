"""Fuzz of the wire format: every document loads or raises `FormatError`.

The loaders get arbitrary JSON-shaped values, as parsed documents and as
files, and valid documents with one node replaced by such a value.  Any
exception other than `FormatError` fails the test.
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcert import FormatError
from combcert.certificates import build_l3
from combcert.combs import Comb
from combcert.jsonio import (
    dump_certificate,
    dump_comb,
    dump_instance,
    load_certificate,
    load_comb,
    load_instance,
)

# Labels of the table-2 instance and edge keys over them, so that mutated
# documents often get past the first type checks.
LABELS = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "zz", "", "a-b"])
NEAR_TEXT = LABELS | st.sampled_from(["a-e", "e-a", "a-b", "a-e-f", "1", "1/2", "1/0", "-3", "x"])

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | NEAR_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6) | NEAR_TEXT, inner, max_size=4),
    max_leaves=12,
)

FUZZ = settings(max_examples=150, deadline=None)


def _paths(node, prefix=()):
    """The path of every node of a document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return out


def _load(loader, source, *args):
    try:
        loader(source, *args)
    except FormatError:
        pass


@pytest.fixture(scope="module")
def documents(table2):
    instance, point, comb = table2
    reduced = Comb(comb.hand - {instance.vertex("b")}, comb.teeth)
    return {
        "instance": dump_instance(instance, point),
        "comb": dump_comb(comb, instance),
        "certificate": dump_certificate(build_l3(instance, reduced), instance),
    }


@pytest.fixture(scope="module")
def doc_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _loaders(table2):
    instance = table2[0]
    return {
        "instance": (load_instance,),
        "comb": (load_comb, instance),
        "certificate": (load_certificate, instance),
    }


@FUZZ
@given(value=JSON.filter(lambda v: not isinstance(v, str)))
def test_any_json_value_as_a_document(table2, value):
    # A str is a file path to the loaders; documents are tested as files below.
    for loader, *args in _loaders(table2).values():
        _load(loader, value, *args)


@FUZZ
@given(value=JSON)
def test_any_json_value_as_a_file(table2, doc_file, value):
    doc_file.write_text(json.dumps(value))
    for loader, *args in _loaders(table2).values():
        _load(loader, str(doc_file), *args)


@FUZZ
@given(kind=st.sampled_from(["instance", "comb", "certificate"]), data=st.data())
def test_valid_document_with_one_node_replaced(table2, documents, kind, data):
    doc = documents[kind]
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    value = data.draw(JSON)
    loader, *args = _loaders(table2)[kind]
    _load(loader, _replaced(doc, path, value), *args)
