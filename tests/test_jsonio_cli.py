import json
from fractions import Fraction
from importlib import resources

import pytest

from combcert import (
    BipartiteInstance,
    FormatError,
    comb_inequality,
    is_implied,
    reproduce_tables,
    verify,
)
from combcert.certificates import build_l3
from combcert.cli import main
from combcert.combs import Comb
from combcert.jsonio import (
    dump_certificate,
    dump_comb,
    dump_instance,
    load_certificate,
    load_comb,
    load_instance,
    write_json,
)
from combcert import constraints, search
from combcert.search import ExperimentConfig, run_search


def _data_path(name):
    return str(resources.files("combcert.data").joinpath(name))


def test_instance_round_trip_is_value_exact(table1):
    instance, point, _ = table1
    doc = dump_instance(instance, point)
    instance2, point2 = load_instance(doc)
    assert instance2 == instance
    assert point2 == point
    # Canonical form is idempotent byte for byte.
    assert dump_instance(instance2, point2) == doc


def test_instance_accepts_either_key_order():
    doc = {
        "class1": ["a"],
        "class2": ["b"],
        "weights": {"b-a": "2/4"},
    }
    instance, point = load_instance(doc)
    edge = next(iter(instance.edges))
    assert point.weight(edge) == Fraction(1, 2)


@pytest.mark.parametrize(
    "mutation,field_part",
    [
        (lambda d: d.__setitem__("class1", "abc"), "class1"),
        (lambda d: d["weights"].__setitem__("a-a", "1"), "weights['a-a']"),
        (lambda d: d["weights"].__setitem__("a-x", "1"), "weights['a-x']"),
        (lambda d: d["weights"].__setitem__("a-b", "1/0"), "weights['a-b']"),
        (lambda d: d["weights"].__setitem__("b-a", "1"), "weights['b-a']"),
    ],
)
def test_malformed_instance_names_offending_field(mutation, field_part):
    doc = {"class1": ["a"], "class2": ["b"], "weights": {"a-b": "1"}}
    mutation(doc)
    with pytest.raises(FormatError) as err:
        load_instance(doc)
    assert field_part in err.value.field


def test_label_with_dash_rejected():
    doc = {"class1": ["a-1"], "class2": ["b"], "weights": {}}
    with pytest.raises(FormatError):
        load_instance(doc)


def test_comb_round_trip(table1):
    instance, _, comb = table1
    doc = dump_comb(comb, instance)
    assert load_comb(doc, instance) == comb


def test_comb_unknown_label_names_field(table1):
    instance, _, _ = table1
    with pytest.raises(FormatError) as err:
        load_comb({"hand": ["a"], "teeth": [["a", "zz"]]}, instance)
    assert err.value.field == "teeth[0][1]"


def test_certificate_round_trip_losslessly(table2):
    instance, _, comb = table2
    reduced = Comb(comb.hand - {instance.vertex("b")}, comb.teeth)
    cert = build_l3(instance, reduced)
    doc = dump_certificate(cert, instance)
    restored = load_certificate(doc, instance)
    assert restored.builder == cert.builder
    assert restored.comb == cert.comb
    assert restored.members == cert.members
    report = verify(instance, restored)
    assert report.dominates


def test_reproduce_tables_both_variants():
    assert reproduce_tables("corrected").ok
    assert reproduce_tables("printed").ok


def test_reproduce_tables_notes_name_the_list_checked():
    corrected, printed = reproduce_tables("corrected"), reproduce_tables("printed")
    assert corrected.notes == (
        "table 2 uses the corrected weight list (edge b-e added at weight 1); "
        "the printed list gives hand value 5/2 instead of the published 7/2",
    )
    assert printed.notes == ("printed variant does not violate the comb row (15/2 <= 8)",)


def test_cli_paper_tables(capsys):
    assert main(["paper-tables", "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True


def test_cli_verify_point_and_exit_codes(tmp_path, capsys):
    code = main(
        ["verify-point", "--instance", _data_path("table1_instance.json")]
    )
    assert code == 0
    capsys.readouterr()

    bad = {
        "class1": ["a"],
        "class2": ["b"],
        "weights": {"a-b": "3/2"},
    }
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code = main(["verify-point", "--instance", str(bad_path), "--format", "json"])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["feasible"] is False
    assert document["violations"][0]["constraint"] == "ub(a-b)"


def test_cli_classify_and_implied(capsys):
    code = main(
        [
            "classify",
            "--instance",
            _data_path("table1_instance.json"),
            "--comb",
            _data_path("table1_comb.json"),
            "--format",
            "json",
        ]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["builders"] == []

    code = main(
        [
            "implied",
            "--instance",
            _data_path("table1_instance.json"),
            "--comb",
            _data_path("table1_comb.json"),
            "--format",
            "json",
        ]
    )
    assert code == 1  # property refuted: the comb row is violated
    document = json.loads(capsys.readouterr().out)
    assert document["status"] == "violated"
    assert document["optimum"] == "15/2"


def test_cli_implied_runs_lazy_by_default(table1, capsys):
    instance, _, comb = table1
    args = [
        "implied",
        "--instance",
        _data_path("table1_instance.json"),
        "--comb",
        _data_path("table1_comb.json"),
        "--format",
        "json",
    ]
    code = main(args)
    assert code in (0, 1)
    document = json.loads(capsys.readouterr().out)
    lazy = is_implied(instance, comb_inequality(instance, comb), lazy=True)
    direct = is_implied(instance, comb_inequality(instance, comb), lazy=False)
    assert lazy.rows_used < direct.rows_used
    assert (document["rounds"], document["rows_used"]) == (lazy.rounds, lazy.rows_used)
    with pytest.raises(SystemExit) as exc:
        main(args + ["--lazy"])  # lazy is the default; there is no flag for it
    assert exc.value.code == 2


def _certifiable_pair(tmp_path):
    """An L1 comb on a zero-weight K_{4,4}: (instance document, files)."""
    instance_doc = {
        "class1": ["a", "p", "q", "r"],
        "class2": ["b", "c", "x", "y"],
        "weights": {
            f"{u}-{v}": "0"
            for u in ("a", "p", "q", "r")
            for v in ("b", "c", "x", "y")
        },
    }
    comb_doc = {
        "hand": ["a", "b", "c"],
        "teeth": [["a", "x"], ["b", "p"], ["c", "q"]],
    }
    ipath = tmp_path / "instance.json"
    cpath = tmp_path / "comb.json"
    ipath.write_text(json.dumps(instance_doc))
    cpath.write_text(json.dumps(comb_doc))
    return instance_doc, ipath, cpath


def test_cli_certify_round_trip(tmp_path, capsys):
    instance_doc, ipath, cpath = _certifiable_pair(tmp_path)
    opath = tmp_path / "cert.json"
    code = main(
        [
            "certify",
            "--instance",
            str(ipath),
            "--comb",
            str(cpath),
            "--output",
            str(opath),
            "--format",
            "json",
        ]
    )
    assert code == 0
    emitted = json.loads(capsys.readouterr().out)
    assert emitted["verified"] is True
    assert emitted["builder"] == "L1"
    stored = json.loads(opath.read_text())
    instance, _ = load_instance(instance_doc)
    restored = load_certificate(stored, instance)
    assert verify(instance, restored).dominates


def test_cli_facet_and_implied_on_certifiable_comb(tmp_path, capsys):
    _, ipath, cpath = _certifiable_pair(tmp_path)

    code = main(
        ["implied", "--instance", str(ipath), "--comb", str(cpath), "--format", "json"]
    )
    assert code == 0  # certified family, so the row is implied
    document = json.loads(capsys.readouterr().out)
    assert document["status"] == "implied"
    assert document["dual"]

    code = main(
        ["facet", "--instance", str(ipath), "--comb", str(cpath), "--format", "json"]
    )
    assert code == 0
    document = json.loads(capsys.readouterr().out)
    assert document["verdict"] != "facet"


def test_cli_malformed_input_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["verify-point", "--instance", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("command", ["verify-point", "implied"])
@pytest.mark.parametrize("weight", [True, False])
def test_cli_rejects_boolean_weight(tmp_path, capsys, command, weight):
    doc = {"class1": ["a"], "class2": ["b"], "weights": {"a-b": weight}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))  # a JSON true or false, not "1" or "0"
    args = [command, "--instance", str(path)]
    if command == "implied":
        comb = tmp_path / "comb.json"
        comb.write_text(json.dumps({"hand": ["a"], "teeth": [["a", "b"]]}))
        args += ["--comb", str(comb)]
    assert main(args) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["field"] == "weights['a-b']"
    assert "boolean" in error["reason"]


@pytest.mark.parametrize(
    "weight,reading",
    [
        ("15/2", "value 15/2 (~7.5) vs rhs 1"),
        ("-1/3", "value 1/3 (~0.333333) vs rhs 0"),
        ("1" + "0" * 400 + "/3", "(~" + "3" * 400 + ".333333) vs rhs 1"),
    ],
    ids=["15/2", "1/3", "10**400/3"],
)
def test_cli_text_reading_of_a_fractional_value_is_exact(
    tmp_path, capsys, weight, reading
):
    doc = {"class1": ["a"], "class2": ["b"], "weights": {"a-b": weight}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-point", "--instance", str(path)]) == 1
    assert reading in capsys.readouterr().out


@pytest.mark.parametrize(
    "weight",
    ["1e3", "1e3000000", "1.5", ".5", "1_000", " 1", "1/2 ", "1/-2", "0x10", "\u0663"]
    + [pytest.param("1" * 5001, id="5001-digits"), pytest.param(0.5, id="json-float")],
)
def test_weight_outside_the_wire_grammar_is_refused(weight):
    doc = {"class1": ["a"], "class2": ["b"], "weights": {"a-b": weight}}
    with pytest.raises(FormatError) as err:
        load_instance(doc)
    assert err.value.field == "weights['a-b']"


@pytest.mark.parametrize("weight,value", [("+1/2", Fraction(1, 2)), ("-03", -3), (7, 7)])
def test_weight_in_the_wire_grammar_is_read(weight, value):
    doc = {"class1": ["a"], "class2": ["b"], "weights": {"a-b": weight}}
    _, point = load_instance(doc)
    assert list(point.items())[0][1] == value


@pytest.mark.parametrize(
    "weights,field",
    [
        ('{"a-b": "1e3000000"}', "weights['a-b']"),
        ('{"a-b": 1' + "0" * 5000 + "}", "instance"),
    ],
    ids=["exponent", "5001-digit-literal"],
)
def test_cli_oversized_weight_exit_2(tmp_path, capsys, weights, field):
    path = tmp_path / "instance.json"
    path.write_text('{"class1": ["a"], "class2": ["b"], "weights": ' + weights + "}")
    assert main(["verify-point", "--instance", str(path)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["field"] == field


@pytest.mark.parametrize("builder", ["L4", "l1", ["L1"], None])
def test_certificate_builder_tag_must_name_a_class(table2, builder):
    instance, _, comb = table2
    reduced = Comb(comb.hand - {instance.vertex("b")}, comb.teeth)
    doc = dump_certificate(build_l3(instance, reduced), instance)
    doc["builder"] = builder
    with pytest.raises(FormatError) as err:
        load_certificate(doc, instance)
    assert err.value.field == "builder"


@pytest.mark.parametrize("orientation", [True, 1.0, 3])
def test_certificate_orientation_must_be_the_integer_1_or_2(table2, orientation):
    instance, _, comb = table2
    reduced = Comb(comb.hand - {instance.vertex("b")}, comb.teeth)
    doc = dump_certificate(build_l3(instance, reduced), instance)
    doc["orientation"] = orientation
    with pytest.raises(FormatError) as err:
        load_certificate(doc, instance)
    assert err.value.field == "orientation"


@pytest.mark.parametrize("where", ["hand", "tooth", "sec set"])
def test_repeated_label_is_refused(table2, where):
    instance, _, comb = table2
    reduced = Comb(comb.hand - {instance.vertex("b")}, comb.teeth)
    doc = dump_certificate(build_l3(instance, reduced), instance)
    if where == "hand":
        labels, field = doc["target_comb"]["hand"], "hand"
    elif where == "tooth":
        labels, field = doc["target_comb"]["teeth"][1], "teeth[1]"
    else:
        i = next(i for i, m in enumerate(doc["members"]) if m["kind"] == "sec")
        labels, field = doc["members"][i]["set"], f"members[{i}].set"
    labels.append(labels[0])
    with pytest.raises(FormatError) as err:
        load_certificate(doc, instance)
    assert err.value.field == f"{field}[{len(labels) - 1}]"


def _l3_certificate_doc(table2):
    instance, _, comb = table2
    reduced = Comb(comb.hand - {instance.vertex("b")}, comb.teeth)
    return instance, dump_certificate(build_l3(instance, reduced), instance)


def test_degree_support_key_must_be_a_string(table2):
    instance, doc = _l3_certificate_doc(table2)
    i = next(i for i, m in enumerate(doc["members"]) if m["kind"] == "degree")
    doc["members"][i]["support"] = [1]
    with pytest.raises(FormatError) as err:
        load_certificate(doc, instance)
    assert err.value.field == f"members[{i}].support[0]"


def test_target_comb_must_be_an_object(table2):
    instance, doc = _l3_certificate_doc(table2)
    doc["target_comb"] = []
    with pytest.raises(FormatError) as err:
        load_certificate(doc, instance)
    assert err.value.field == "target_comb"


def test_target_comb_string_is_not_read_as_a_path(table2, tmp_path):
    instance, doc = _l3_certificate_doc(table2)
    comb_file = tmp_path / "comb.json"
    comb_file.write_text(json.dumps(doc["target_comb"]))
    doc["target_comb"] = str(comb_file)
    with pytest.raises(FormatError) as err:
        load_certificate(doc, instance)
    assert err.value.field == "target_comb"


def test_cli_repeated_label_exit_2(tmp_path, capsys):
    instance = tmp_path / "instance.json"
    instance.write_text(
        json.dumps({"class1": ["a"], "class2": ["b"], "weights": {"a-b": "1"}})
    )
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"hand": ["a"], "teeth": [["a", "b", "a"]]}))
    code = main(["implied", "--instance", str(instance), "--comb", str(comb)])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["field"] == "teeth[0][2]"
    assert "repeats" in error["reason"]


def test_search_is_deterministic():
    config = ExperimentConfig(seed=2, size=4, comb_count=30)
    assert run_search(config) == run_search(config)


def test_search_runs_of_one_size_share_the_instance():
    config = ExperimentConfig(seed=4, size=5, comb_count=18)
    search._complete.cache_clear()
    fresh = run_search(config)
    search._complete.cache_clear()
    first, second = run_search(config), run_search(ExperimentConfig(seed=5, size=5))
    assert search._complete.cache_info()[:2] == (1, 1)  # one hit, one miss
    assert search._complete(5) == BipartiteInstance.complete(5)
    assert json.dumps(first) == json.dumps(fresh)
    assert second["config"]["seed"] == 5


def test_cli_search_writes_its_findings(tmp_path, capsys):
    out = tmp_path / "findings.json"
    args = ["search", "--seed", "2", "--count", "12", "--format", "json"]
    assert main(args + ["--output", str(out)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert json.loads(out.read_text()) == printed
    assert printed == run_search(ExperimentConfig(seed=2, size=4, comb_count=12))
    assert printed["config"]["tooth_size_range"] == [2, 4]


def _refuse_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search sampled a comb")

    monkeypatch.setattr(search, "sample_comb", refuse)


@pytest.mark.parametrize("command", ["certify", "search"])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_cli_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, command, where):
    if command == "certify":
        _, ipath, cpath = _certifiable_pair(tmp_path)
        args = ["certify", "--instance", str(ipath), "--comb", str(cpath)]
    else:
        args = ["search", "--seed", "0", "--count", "2"]
        _refuse_sampling(monkeypatch)  # the path is refused before the search
    target = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path
    assert main(args + ["--output", str(target)]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["field"] == "output"
    assert str(target) in error["reason"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_cli_prints_a_value_past_the_integer_string_limit(tmp_path, capsys, fmt):
    weight = "9" * 4300  # two at vertex a: their degree sum has 4,301 digits
    doc = {"class1": ["a"], "class2": ["b", "c"], "weights": {"a-b": weight, "a-c": weight}}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-point", "--instance", str(path), "--format", fmt]) == 1
    out = capsys.readouterr().out
    degree = "1" + "9" * 4299 + "8"
    if fmt == "json":
        values = [v["value"] for v in json.loads(out)["violations"]]
        assert degree in values
    else:
        assert f"value {degree} vs rhs 2" in out


def test_cli_search_refuses_wild_combs_past_the_vertex_cap(capsys, monkeypatch):
    # The 6th comb is wild; on K_{13,13} the LP could not enumerate its rows.
    _refuse_sampling(monkeypatch)
    assert main(["search", "--seed", "0", "--size", "13", "--count", "120"]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"] == "subtour enumeration: size 26 exceeds the enumeration cap 24"


def test_search_past_the_vertex_cap_runs_without_wild_combs():
    for config in (
        ExperimentConfig(seed=0, size=13, comb_count=5),
        ExperimentConfig(seed=0, size=13, comb_count=2, families=("l1", "t2")),
    ):
        findings = run_search(config)
        assert len(findings["certified"]) == config.comb_count


def test_search_certifies_all_l1_samples():
    findings = run_search(
        ExperimentConfig(seed=5, size=4, comb_count=100, families=("l1",))
    )
    assert len(findings["certified"]) == 100
    assert findings["failures"] == []


def test_search_rediscovers_a_violated_comb():
    findings = run_search(
        ExperimentConfig(seed=2, size=4, comb_count=80, families=("wild",))
    )
    assert findings["violated"]
    entry = findings["violated"][0]
    assert Fraction(entry["margin"]) > 0


@pytest.mark.parametrize("families", ["foo", "", "l1,", "l1,wild,L2"])
def test_cli_search_unknown_family_exit_2(families, capsys):
    code = main(["search", "--seed", "0", "--count", "1", "--families", families])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["field"] == "families"
    assert "unknown" in error["reason"]


@pytest.mark.parametrize(
    "option,value,field",
    [("--size", "2", "size"), ("--size", "-1", "size"), ("--count", "-3", "count")],
)
def test_cli_search_refuses_impossible_sizes_and_counts(
    option, value, field, capsys, monkeypatch
):
    _refuse_sampling(monkeypatch)
    assert main(["search", "--seed", "0", option, value]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["field"] == field
    assert value in error["reason"]


def test_cli_verify_point_past_the_violated_set_budget_exit_2(
    tmp_path, capsys, monkeypatch
):
    # Two disjoint 4-cycles of weight 1: unions {C1}, {C2} and V are listed.
    doc = {
        "class1": ["a", "b", "c", "d"],
        "class2": ["e", "f", "g", "h"],
        "weights": {
            edge: "1" for edge in ("a-e", "a-f", "b-e", "b-f", "c-g", "c-h", "d-g", "d-h")
        },
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-point", "--instance", str(path)]) == 1
    capsys.readouterr()
    monkeypatch.setattr(constraints, "VIOLATED_SET_BUDGET", 2)
    assert main(["verify-point", "--instance", str(path), "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["message"] == "violated subtour sets: size 3 exceeds the enumeration cap 2"
