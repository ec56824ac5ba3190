"""`verify` reads a result file only through the shipped schema of its
kind: the validator in `cli` knows each keyword those schemas use, raises
on any other, and agrees with `jsonschema` on which files are malformed,
except that an integer written as a float (9.0) is malformed to `verify`.
"""
import contextlib
import copy
import io
import json
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborpack.cli import main, schema_violations
from arborpack.errors import InternalError

RESULT_SCHEMAS = ("hierarchy", "mincut", "packing")
ANNOTATIONS = {"$schema", "$id", "title"}


def load_schema(kind: str) -> dict:
    return json.loads(resources.files("arborpack.schemas").joinpath(f"{kind}.schema.json")
                      .read_text())


def keywords(schema: dict) -> set:
    """Every keyword in `schema`, at any depth."""
    found = set(schema)
    subschemas = list(schema.get("properties", {}).values()) + schema.get("allOf", [])
    subschemas += [schema[key] for key in ("items", "if", "then") if key in schema]
    for sub in subschemas:
        found |= keywords(sub)
    return found


def violation(value, schema):
    return next(schema_violations(value, schema, "$"), None)


def integral_floats(value) -> bool:
    """Whether `value` holds a float with an integral value, which JSON
    Schema counts as an integer and `verify` does not."""
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, (list, dict)):
        return any(map(integral_floats, value.values() if isinstance(value, dict) else value))
    return False


_PHI = {"type": "string", "pattern": "^[0-9]+(/[0-9]+)?$"}
_IF_CUT = {"if": {"properties": {"result": {"const": "cut"}}}, "then": {"required": ["cut"]}}

# Keyword -> (schema, values it accepts, values it rejects). 9.0 is the
# one value the validator and JSON Schema disagree on.
KEYWORD_CASES = {
    "type": ({"type": "integer"}, [0, -3, 10**30], [9.0, True, "9", None, [], {}]),
    "const": ({"const": "mincut"}, ["mincut"], ["packing", 1, None]),
    "enum": ({"enum": ["approx", "exact", 1]}, ["exact", 1], ["bogus", 0, ["exact"], True, 1.0]),
    "minimum": ({"type": "integer", "minimum": 1}, [1, 5], [0, -1]),
    "pattern": (_PHI, ["1/16", "3", "1/16\n"], ["-1", "0.0625", " 1/16", "1e-3", "1/"]),
    "minItems": ({"type": "array", "minItems": 1}, [[0]], [[]]),
    "items": ({"type": "array", "items": {"type": "integer", "minimum": 0}},
              [[], [0, 4]], [[-1], [0, 1.0], [[0]], [0, True]]),
    "uniqueItems": ({"type": "array", "uniqueItems": True},
                    [[], [0, 4], [1, True], ["1", 1], [[1, 2], [2, 1]]],
                    [[0, 0], [3, 1, 3], [None, None], [{"a": 1, "b": 2}, {"b": 2, "a": 1}]]),
    "required": ({"type": "object", "required": ["k"]}, [{"k": 1}], [{}]),
    "properties": ({"type": "object", "properties": {"k": {"type": "integer"}}},
                   [{}, {"k": 1}], [{"k": "1"}]),
    "additionalProperties": ({"type": "object", "properties": {"k": {}},
                              "additionalProperties": False}, [{"k": 1}], [{"k": 1, "x": 2}]),
    "allOf": ({"allOf": [{"required": ["a"]}, {"required": ["b"]}]}, [{"a": 1, "b": 2}],
              [{"a": 1}, {"b": 2}]),
    "if": (_IF_CUT, [{"result": "trees"}, {"result": "cut", "cut": [1]}], [{"result": "cut"}]),
    "then": ({"if": {"required": ["result"]}, "then": {"required": ["cut"]}},
             [{}, {"result": 1, "cut": 2}], [{"result": 1}]),
}


def test_every_schema_keyword_has_a_case():
    used = set().union(*(keywords(load_schema(kind)) for kind in RESULT_SCHEMAS))
    assert used - ANNOTATIONS == KEYWORD_CASES.keys()


@pytest.mark.parametrize("keyword", sorted(KEYWORD_CASES))
def test_validator_applies_each_keyword(keyword):
    schema, accepted, rejected = KEYWORD_CASES[keyword]
    checker = jsonschema.Draft202012Validator(schema)
    for value in accepted:
        assert violation(value, schema) is None, value
        assert checker.is_valid(value), value
    for value in rejected:
        assert violation(value, schema) is not None, value
        assert checker.is_valid(value) == integral_floats(value), value


@pytest.mark.parametrize("schema", [
    {"type": "array", "maxItems": 3},
    {"oneOf": [{"type": "integer"}]},
    {"$ref": "#"},
    {"type": "object", "additionalProperties": True},
    {"type": "object", "additionalProperties": {"type": "integer"}},
    {"type": "array", "items": {"type": "integer", "maximum": 9}},
], ids=["maxItems", "oneOf", "$ref", "additional-true", "additional-schema",
        "nested-maximum"])
def test_validator_raises_on_any_other_keyword(schema):
    # The value fits what the validator can read of each schema.
    with pytest.raises(InternalError):
        violation([1] if schema.get("type") == "array" else {}, schema)


def json_paths(value, path=()):
    """Each (path, value) in the JSON `value`, the root first."""
    yield path, value
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from json_paths(item, path + (key,))


def json_type(value) -> str:
    return {bool: "boolean", int: "integer", float: "number", str: "string", list: "array",
            dict: "object", type(None): "null"}[type(value)]


def mutation_sites(doc) -> dict:
    """Each way to mutate `doc`, with the paths it can take."""
    sites: dict = {}
    for path, value in json_paths(doc):
        key = path[-1] if path else None
        ways = ["extra"] * (type(value) is dict) + ["type"] * bool(path)
        ways += ["drop"] * isinstance(key, str) + ["negative", "float"] * (type(value) is int)
        ways += ["empty"] * (type(value) is list and bool(value))
        ways += ["enum"] * (key in ("kind", "method", "result"))
        phi = key == "factor" or bool(path) and path[0] in ("phi_target", "level_phis")
        ways += ["phi"] * phi
        for way in ways:
            sites.setdefault(way, []).append(path)
    return sites


_OTHER_VALUES = [None, True, "x", 7, 2.5, [], {}]
_ENUMS = ["bogus", "hierarchy", "mincut", "packing", "approx", "exact", "arborescences", "cut"]
# Phi text that breaks the pattern, and one that `re.search` lets through.
_PHIS = ["0.0625", "-1", "1/", "6.25e-2", " 1/16", "1/16x", "1/16\n"]


@st.composite
def mutated(draw, doc):
    """`doc` with one mutation; the way it took."""
    sites = mutation_sites(doc)
    way = draw(st.sampled_from(sorted(sites)))
    path = draw(st.sampled_from(sites[way]))
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if way == "extra":
        (parent[path[-1]] if path else doc)["extra"] = 1
        return doc, way
    key = path[-1]
    old = parent[key]
    if way == "drop":
        del parent[key]
    elif way == "type":
        parent[key] = draw(st.sampled_from([v for v in _OTHER_VALUES
                                            if json_type(v) != json_type(old)]))
    elif way == "negative":
        parent[key] = -1 - old
    elif way == "float":
        parent[key] = float(old)
    elif way == "enum":
        parent[key] = draw(st.sampled_from([v for v in _ENUMS if v != old]))
    elif way == "empty":
        parent[key] = []
    else:
        parent[key] = draw(st.sampled_from(_PHIS))
    return doc, way


def run(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    """Real `hierarchy`, `mincut` and `pack` results, each with its graph:
    `pack` at k = lambda (trees) and lambda + 1 (a cut)."""
    work = tmp_path_factory.mktemp("schemas")
    found = []
    for name, gen in (("bridge", ["two_cliques_bridge", "--half", "4", "--seed", "0"]),
                      ("known", ["known_packing", "--n", "12", "--k", "3", "--seed", "1"])):
        graph = work / f"{name}.dmc"
        assert main(["gen", *gen, "--out", str(graph)]) == 0
        lam = run(["mincut", graph, "--exact"])[1]["value"]
        for argv in (["hierarchy"], ["mincut"], ["mincut", "--verbose"], ["mincut", "--exact"],
                     ["pack", "--k", lam], ["pack", "--k", lam + 1]):
            code, doc = run([argv[0], graph, *argv[1:], *["--seed", 1] * (argv[-1] != "--exact")])
            assert code == 0
            found.append((graph, doc))
    assert {doc.get("result") for _g, doc in found} >= {"arborescences", "cut"}
    return work, found


@given(data=st.data())
@settings(max_examples=200)
def test_verify_agrees_with_jsonschema_on_malformed_files(results, data):
    work, found = results
    kind = data.draw(st.sampled_from(RESULT_SCHEMAS))
    graph, doc = data.draw(st.sampled_from([(g, d) for g, d in found if d["kind"] == kind]))
    payload, way = data.draw(mutated(doc))
    result = work / "mutated.json"
    result.write_text(json.dumps(payload))
    code, report = run(["verify", result, graph])
    schema = load_schema(doc["kind"])
    rejected = not jsonschema.Draft202012Validator(schema).is_valid(payload)
    if integral_floats(payload):
        assert way == "float" and not rejected
        rejected = True
    assert (code == 2) == rejected, (way, payload, report)
    if code == 2:
        assert report["error_type"] == "parameter"


def _first(found, want):
    return next((g, copy.deepcopy(d)) for g, d in found if want(d))


@pytest.mark.parametrize("case", ["empty_component", "negative_candidate_id",
                                  "repeated_mincut_vertex", "repeated_packing_cut_vertex",
                                  "repeated_component_vertex"])
def test_verify_rejects_what_the_schema_rejects(results, case):
    # An empty component would reach `min()` when the partitions are
    # compared, and a candidate cut lists vertex ids like every other
    # id list: the schema rejects both, and `verify` names the path. A
    # repeated id in a set verified ok before the schemas asked for
    # unique items.
    work, found = results
    if case == "empty_component":
        graph, doc = _first(found, lambda d: d["kind"] == "hierarchy")
        doc["partitions"][1].append([])
        where = f"$.partitions[1][{len(doc['partitions'][1]) - 1}] must have at least 1 items"
    elif case == "negative_candidate_id":
        graph, doc = _first(found, lambda d: d.get("candidates"))
        doc["candidates"][0]["cut"][0] = -1
        where = "$.candidates[0].cut[0] must be at least 0"
    elif case == "repeated_component_vertex":
        graph, doc = _first(found, lambda d: d["kind"] == "hierarchy")
        comp = doc["partitions"][1][1]
        comp.insert(1, comp[0])
        where = "$.partitions[1][1][1] repeats an earlier item"
    else:
        kind = "mincut" if case == "repeated_mincut_vertex" else "packing"
        graph, doc = _first(found, lambda d: d["kind"] == kind and "cut" in d)
        doc["cut"].insert(1, doc["cut"][0])
        where = "$.cut[1] repeats an earlier item"
    assert not jsonschema.Draft202012Validator(load_schema(doc["kind"])).is_valid(doc)
    result = work / f"{case}.json"
    result.write_text(json.dumps(doc))
    code, report = run(["verify", result, graph])
    assert code == 2
    assert report["message"] == f"malformed {doc['kind']} result: {where}"
