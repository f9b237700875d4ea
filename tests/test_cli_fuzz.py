"""Fuzz of the CLI: every command ends in exit 0, 1 or 2, never a traceback.

Each example of the file commands writes an instance file and a comb
file, one of them a valid document with one node replaced by an
arbitrary JSON value (the root included, so a file may hold any JSON
value), and runs one of the commands on them.  `certify` also writes
its certificate to a writable path, an unwritable one, a directory or
none.  `search` gets arbitrary seeds, small sizes and counts, family
lists with unknown names and `--output` paths that may not be
writable; `paper-tables` runs in both variants and both formats.  An
exit 2 must leave exactly one JSON object on stderr.  Instances stay at K_{6,6} or smaller, except K_{13,13},
past the vertex cap, where `search` refuses wild combs before it samples
and certifies the others; so every command finishes in milliseconds.
"""

import contextlib
import io
import json
import operator
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combcert import BipartiteInstance, FractionalPoint
from combcert.cli import main
from combcert.jsonio import dump_comb, dump_instance
from combcert.search import FAMILIES, sample_comb
from test_jsonio_fuzz import JSON, NEAR_TEXT, _paths, _replaced

# Each command with the option sets a run may add to it.
COMMANDS = {
    "verify-point": ([], ["--mode", "eq"]),
    "classify": ([],),
    "certify": ([], ["--builder", "l1"], ["--builder", "t2"]),
    "implied": ([], ["--direct"], ["--mode", "eq"]),
    "facet": ([],),
}


@pytest.fixture(scope="module")
def pairs(table1):
    """(instance document, comb document): Table 1, and an L3 comb on K_{4,4}."""
    instance, point, comb = table1
    # K_{4,4} on the labels `NEAR_TEXT` draws, so that mutations often stay valid.
    k44 = BipartiteInstance(tuple("abcd"), tuple("efgh"), BipartiteInstance.complete(4).edges)
    l3 = sample_comb(random.Random(0), k44, "l3")
    return [
        {"instance": dump_instance(instance, point), "comb": dump_comb(comb, instance)},
        {"instance": dump_instance(k44, FractionalPoint(k44, {})), "comb": dump_comb(l3, k44)},
    ]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("cli-fuzz")
    return {"instance": folder / "instance.json", "comb": folder / "comb.json"}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check_exit(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert isinstance(json.loads(err), dict), err


def _write_mutated(pair, kind, files, data):
    """Write the pair's two documents, the `kind` one with one node replaced."""
    documents = dict(pair)
    doc = documents[kind]
    paths = list(_paths(doc))
    if data.draw(st.booleans(), label="near"):  # a label or a weight for a label or a weight
        paths = [p for p in paths if isinstance(reduce(operator.getitem, p, doc), str)]
        value = NEAR_TEXT
    else:
        value = JSON
    path = data.draw(st.sampled_from(paths), label="path")
    documents[kind] = _replaced(doc, path, data.draw(value, label="value"))
    for name, document in documents.items():
        files[name].write_text(json.dumps(document))


@settings(max_examples=200, deadline=None)
@given(
    pair=st.integers(0, 1),
    kind=st.sampled_from(["instance", "comb"]),
    command=st.sampled_from(sorted(COMMANDS)),
    fmt=st.sampled_from(["json", "text"]),
    data=st.data(),
)
def test_cli_exits_0_1_or_2_on_any_document(pairs, files, pair, kind, command, fmt, data):
    _write_mutated(pairs[pair], kind, files, data)
    options = data.draw(st.sampled_from(COMMANDS[command]), label="options")
    argv = [command, "--instance", str(files["instance"])]
    if command != "verify-point":
        argv += ["--comb", str(files["comb"])]
    _check_exit(*_run(argv + options + ["--format", fmt]))


@settings(max_examples=60, deadline=None)
@given(
    pair=st.integers(0, 1),
    mutate=st.sampled_from([None, "instance", "comb"]),
    builder=st.sampled_from(["auto", "l1", "l3", "t2"]),
    output=st.sampled_from([None, "certificate.json", "missing/certificate.json", "."]),
    fmt=st.sampled_from(["json", "text"]),
    data=st.data(),
)
def test_cli_certify_output_exits_0_1_or_2(pairs, files, pair, mutate, builder, output, fmt, data):
    if mutate is None:
        for name, document in pairs[pair].items():
            files[name].write_text(json.dumps(document))
    else:
        _write_mutated(pairs[pair], mutate, files, data)
    argv = ["certify", "--instance", str(files["instance"]), "--comb", str(files["comb"])]
    argv += ["--builder", builder, "--format", fmt]
    target = None if output is None else files["instance"].parent / output
    if target is not None:
        argv += ["--output", str(target)]
        if target.is_file():
            target.unlink()
    code, err = _run(argv)
    _check_exit(code, err)
    if code == 0 and target is not None:  # only a writable path gets here
        assert json.loads(target.read_text())["verified"] is True
    assert code != 0 or output in (None, "certificate.json")


FAMILY_NAMES = st.sampled_from(FAMILIES) | st.sampled_from(["", "L1", "foo", "l1 "])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(),
    size=st.sampled_from([-1, 0, 2, 3, 4, 5, 6, 13]),
    count=st.integers(-2, 3),
    families=st.none() | st.lists(FAMILY_NAMES, min_size=1, max_size=3).map(",".join),
    policy=st.sampled_from(["random", "fixed"]),
    output=st.sampled_from([None, "findings.json", "missing/findings.json"]),
    fmt=st.sampled_from(["json", "text"]),
)
def test_cli_search_exits_0_1_or_2(files, seed, size, count, families, policy, output, fmt):
    argv = ["search", "--seed", str(seed), "--size", str(size), "--count", str(count)]
    argv += ["--policy", policy, "--format", fmt]
    if families is not None:
        argv += ["--families", families]
    if output is not None:
        argv += ["--output", str(files["instance"].parent / output)]
    _check_exit(*_run(argv))


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("variant", ["corrected", "printed"])
def test_cli_paper_tables_exits_0_1_or_2(variant, fmt):
    code, err = _run(["paper-tables", "--variant", variant, "--format", fmt])
    _check_exit(code, err)
    assert code == 0  # each variant reproduces the numbers it documents
