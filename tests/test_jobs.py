"""Schema acceptance: `jobs._conforms` decides exactly what jsonschema does."""

import copy
import json
import math
import os
import random
import subprocess
import sys

import jsonschema
import pytest

from okbodies.errors import ConsistencyError
from okbodies.jobs import _TYPES, _checked_schema, _conforms, _schema, _validator

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")
KINDS = ("linsys", "rank", "curve-body", "toric-body", "verify")
# values a field is swapped for: floats equal to integers, booleans (which
# are not integers in JSON Schema), NaN (which no minimum rejects), and
# values of every other JSON type
ODD = (1.0, -2.0, 0.0, 2.5, float("nan"), True, False, None, 0, 1, -1, 3,
       "", "x", "1/2", [], ["a"], ["a", "b", "c"], [1, 2], {}, {"a": 1})


def _job_docs():
    docs = []
    for name in sorted(os.listdir(JOBS)):
        with open(os.path.join(JOBS, name)) as fh:
            docs.append(json.load(fh))
    return docs


def _nodes(doc, path=()):
    """(path, value) of every node of a JSON document, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _nodes(v, path + (i,))


def _replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutate(rng, doc):
    """One random edit: swap a node for an odd value or another kind, turn
    an integer into the equal float or a boolean, delete or add a key, or
    shorten, lengthen or duplicate into a list (edges included)."""
    path, node = rng.choice(list(_nodes(doc)))
    op = rng.randrange(6)
    if op == 0 and isinstance(doc, dict):
        doc["kind"] = rng.choice(KINDS + ("nope",))
    elif op == 1 and type(node) is int:
        doc = _replace(doc, path, rng.choice((float(node), bool(node % 2))))
    elif op == 2 and isinstance(node, dict) and node:
        del node[rng.choice(sorted(node))]
    elif op == 3 and isinstance(node, dict):
        node[rng.choice(("extra", "base", "seed", "effective", "phi"))] = rng.choice(ODD)
    elif op == 4 and isinstance(node, list):
        if node and rng.random() < 0.5:
            del node[rng.randrange(len(node))]
        else:
            node.append(copy.deepcopy(rng.choice(node)) if node else rng.choice(ODD))
    else:
        doc = _replace(doc, path, copy.deepcopy(rng.choice(ODD)))
    return doc


def test_conforms_equals_jsonschema_on_mutated_jobs():
    validator = _validator()
    rng = random.Random(59)
    accepted = rejected = float_accepted = 0
    for doc in _job_docs():
        for _ in range(600):
            mutated = copy.deepcopy(doc)
            for _ in range(rng.randint(1, 3)):
                mutated = _mutate(rng, mutated)
            want = validator.is_valid(mutated)
            assert _conforms(_schema(), mutated) == want, mutated
            accepted += want
            rejected += not want
            float_accepted += want and any(
                type(v) is float and not math.isnan(v) for _, v in _nodes(mutated))
    assert accepted > 500 and rejected > 5000 and float_accepted > 150


def test_conforms_on_edge_values():
    # the count of a verify job has minimum 1 and must be an integer
    validator = _validator()
    for count in (1, 1.0, 2.0, 0, 0.0, -1, 1.5, True, False, float("nan"),
                  float("inf"), "1", None):
        doc = {"kind": "verify", "payload": {"target": "random-curves",
                                             "count": count}}
        assert _conforms(_schema(), doc) == validator.is_valid(doc), count


def test_types_are_jsonschemas_draft_07_types():
    checker = jsonschema.Draft7Validator.TYPE_CHECKER
    for value in ODD + (float("inf"), 10 ** 30, -0.0, 1e300):
        for name, is_type in _TYPES.items():
            assert is_type(value) == checker.is_type(value, name), (value, name)


def test_valid_jobs_never_load_jsonschema():
    # jsonschema only words rejections; a conforming run never imports it
    code = ("import sys, okbodies.cli, okbodies.jobs as j\n"
            "for name in sys.argv[1:]:\n"
            "    j.run_job(j.parse_job(open(name).read()))\n"
            "assert 'jsonschema' not in sys.modules\n")
    names = [os.path.join(JOBS, n) for n in ("quartic-rank.json", "toric-d1.json")]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(JOBS), "src"))
    subprocess.run([sys.executable, "-c", code, *names], env=env, check=True)


def test_conforms_accepts_every_job_file():
    for doc in _job_docs():
        assert _conforms(_schema(), doc)


def _schema_with(**extra):
    graph = {"type": "object", "properties": {"edges": {"type": "array"}}}
    graph.update(extra)
    return {"$schema": "http://json-schema.org/draft-07/schema#",
            "type": "object",
            "properties": {"graph": {"$ref": "#/definitions/graph"}},
            "definitions": {"graph": graph}}


def test_schema_the_check_cannot_decide_is_refused():
    _checked_schema(_schema_with())
    for extra in ({"pattern": "a"}, {"anyOf": [{"type": "object"}]},
                  {"else": {}}, {"patternProperties": {"a": {}}},
                  {"enum": [1, "a"]}, {"const": True}, {"type": ["object", "map"]},
                  {"properties": {"edges": {"maximum": 3}}},
                  {"properties": {"edges": {"$ref": "#/definitions/nope"}}},
                  {"properties": {"edges": {"$ref": "other.json#/a"}}}):
        with pytest.raises(ConsistencyError):
            _checked_schema(_schema_with(**extra))
    # a JSON-pointer escape: "#/definitions/a~1b" names "a/b", not "a~1b"
    escaped = _schema_with(properties={"edges": {"$ref": "#/definitions/a~1b"}})
    escaped["definitions"]["a~1b"] = {}
    with pytest.raises(ConsistencyError):
        _checked_schema(escaped)
    draft4 = dict(_schema_with(), **{"$schema": "http://json-schema.org/draft-04/schema#"})
    with pytest.raises(ConsistencyError):
        _checked_schema(draft4)
