"""The job reader against its documented format: `parse_job` refuses every
document that job.schema.json refuses, and raises SchemaError for no other."""

import copy
import json
import os
import random
import subprocess
import sys

import jsonschema

from okbodies.errors import OkbodiesError, SchemaError
from okbodies.jobs import parse_job

ROOT = os.path.join(os.path.dirname(__file__), "..")
JOBS = os.path.join(ROOT, "jobs")
SCHEMA = os.path.join(ROOT, "src", "okbodies", "schema", "job.schema.json")
KINDS = ("linsys", "rank", "curve-body", "toric-body", "verify")
# values a field is swapped for: floats equal to integers, booleans, NaN,
# and values of every other JSON type
ODD = (1.0, -2.0, 0.0, 2.5, float("nan"), True, False, None, 0, 1, -1, 3,
       "", "x", "1/2", [], ["a"], ["a", "b", "c"], [1, 2], {}, {"a": 1})


def _oracle():
    """A draft-07 validator of the schema file in which an integer is a
    Python int and nothing else: JSON's 1.0 and true are not integers."""
    with open(SCHEMA) as fh:
        schema = json.load(fh)
    checker = jsonschema.Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: type(x) is int)
    strict = jsonschema.validators.extend(jsonschema.Draft7Validator,
                                          type_checker=checker)
    strict.check_schema(schema)
    return strict(schema)


def _agrees(oracle, doc) -> bool:
    """Whether `doc` is valid; asserts that parse_job refuses it, with an
    OkbodiesError, if the oracle does, and with SchemaError only then.  An
    exception of any other type fails the test."""
    valid = oracle.is_valid(doc)
    try:
        parse_job(json.dumps(doc))
    except SchemaError:
        assert not valid, doc
    except OkbodiesError:
        pass  # a domain error: a document can be valid and still be refused
    else:
        assert valid, doc
    return valid


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


def test_reader_matches_the_schema_on_mutated_jobs():
    oracle = _oracle()
    rng = random.Random(59)
    accepted = rejected = 0
    for doc in _job_docs():
        for _ in range(600):
            mutated = copy.deepcopy(doc)
            for _ in range(rng.randint(1, 3)):
                mutated = _mutate(rng, mutated)
            valid = _agrees(oracle, mutated)
            accepted += valid
            rejected += not valid
    assert accepted > 100 and rejected > 5000


def test_reader_matches_the_schema_on_edge_values():
    oracle = _oracle()
    for count in (1, 1.0, 2.0, 0, 0.0, -1, 1.5, True, False, float("nan"),
                  float("inf"), "1", None):
        _agrees(oracle, {"kind": "verify",
                         "payload": {"target": "random-curves", "count": count}})
    with open(os.path.join(JOBS, "toric-d1.json")) as fh:
        toric = json.load(fh)
    for dim in (1, 1.0, 0, -1, True, 10 ** 30, "1"):
        doc = copy.deepcopy(toric)
        doc["payload"]["model"]["ambient_dim"] = dim
        _agrees(oracle, doc)
    with open(os.path.join(JOBS, "path-linsys-min.json")) as fh:
        linsys = json.load(fh)
    for op in ("min", "member", "shift", "max"):
        for phi in (None, {"a": 0, "b": 1}, {"a": 0.0, "b": 1}):
            doc = copy.deepcopy(linsys)
            doc["payload"]["op"] = op
            if phi is not None:
                doc["payload"]["phi"] = phi
            _agrees(oracle, doc)


def test_every_job_file_matches_the_schema():
    oracle = _oracle()
    for doc in _job_docs():
        assert _agrees(oracle, doc), doc


def test_jobs_run_without_jsonschema(tmp_path):
    # the reader needs no jsonschema, to accept a job or to refuse one
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "rank", "payload": {
        "graph": {"vertices": ["a"], "edges": []}, "divisor": {"a": 1.0}}}))
    code = ("import sys\n"
            "sys.modules['jsonschema'] = None\n"
            "from okbodies.cli import main\n"
            "assert main(['rank', '--input', sys.argv[1]]) == 0\n"
            "assert main(['toric-body', '--input', sys.argv[2]]) == 0\n"
            "assert main(['rank', '--input', sys.argv[3]]) == 1\n")
    names = [os.path.join(JOBS, n) for n in ("quartic-rank.json", "toric-d1.json")]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code, *names, str(bad)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("error: at payload/divisor/a: 1.0 is not of type")
