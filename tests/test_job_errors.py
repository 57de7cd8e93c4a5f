"""The exact text of every diagnostic a malformed job document gets: each
message names the first offending field as the job reader has always
named it, whatever shortcuts it takes on well-formed input."""

import copy
import json

import pytest

from okbodies.errors import OkbodiesError
from okbodies.jobs import parse_job

QUARTIC = {"vertices": ["P", "Q1", "Q2", "P'"],
           "edges": [["P", "Q1"], ["P", "Q1"], ["P", "Q2"], ["P", "Q2"],
                     ["Q1", "P'"], ["Q2", "P'"]]}
DIVISOR = {"P": 2, "Q1": 1, "Q2": 1, "P'": 0}
BASES = {
    "rank": {"kind": "rank", "payload": {"graph": QUARTIC, "divisor": DIVISOR}},
    "linsys": {"kind": "linsys", "payload": {
        "op": "member", "graph": QUARTIC, "divisor": DIVISOR,
        "phi": {"P": 0, "Q1": 0, "Q2": 0, "P'": 0}}},
    "curve": {"kind": "curve-body", "payload": {
        "graph": QUARTIC, "divisor": DIVISOR,
        "flag": {"type": "tropical", "vertex": "P",
                 "y1": {"P": 1, "Q1": 0, "Q2": 0, "P'": 0}}}},
}


def _set(*keys, value):
    def edit(payload):
        for k in keys[:-1]:
            payload = payload[k]
        payload[keys[-1]] = value
    return edit


def _delete(*keys):
    def edit(payload):
        for k in keys[:-1]:
            payload = payload[k]
        del payload[keys[-1]]
    return edit


def _both(first, second):
    def edit(payload):
        first(payload)
        second(payload)
    return edit


# payload edits made on every base document
COMMON = {
    "vertex-3-not-a-string": _set("graph", "vertices", 3, value=3),
    "edge-of-three": _set("graph", "edges", 1, value=["P", "Q1", "Q2"]),
    "int-edge-endpoint": _set("graph", "edges", 4, value=["Q1", 2]),
    "divisor-true": _set("divisor", "Q1", value=True),
    "divisor-float": _set("divisor", "Q1", value=1.0),
    "divisor-zero-denominator": _set("divisor", "Q1", value="1/0"),
    "divisor-unknown-vertex": _set("divisor", "Z", value=1),
    "divisor-missing-vertex": _delete("divisor", "P'"),
}
# payload edits made on one base document
ONE = {
    ("rank", "two-bad-vertices"): _both(_set("graph", "vertices", 1, value=1),
                                        _set("graph", "vertices", 3, value=3)),
    ("rank", "edge-not-a-list"): _set("graph", "edges", 0, value="PQ1"),
    ("rank", "edge-of-one"): _set("graph", "edges", 2, value=["P"]),
    ("rank", "two-bad-edges"): _both(_set("graph", "edges", 3, value=["P", None]),
                                     _set("graph", "edges", 5, value=["P"])),
    ("rank", "edge-endpoint-object"): _set("graph", "edges", 0, value=[{"v": 1}, "P"]),
    ("rank", "edge-unknown-vertex"): _set("graph", "edges", 5, value=["Q2", "Z"]),
    ("rank", "duplicate-vertex"): _set("graph", "vertices", 3, value="P"),
    ("rank", "vertices-empty"): _set("graph", "vertices", value=[]),
    ("rank", "edges-not-a-list"): _set("graph", "edges", value={}),
    ("rank", "divisor-null"): _set("divisor", "P", value=None),
    ("rank", "divisor-half"): _set("divisor", "P", value="1/2"),
    ("rank", "divisor-spaces"): _set("divisor", "P", value=" 2 / 3 "),
    ("linsys", "phi-zero-denominator"): _set("phi", "Q2", value="3/0"),
    ("linsys", "phi-missing-vertex"): _delete("phi", "P"),
    ("curve", "y1-true"): _set("flag", "y1", "P", value=True),
    ("curve", "y1-not-rational"): _set("flag", "y1", "Q1", value="1/x"),
}
# options.window of the curve document
WINDOWS = {
    "window-zero-denominator": [0, 1, "1/0", 2],
    "window-not-rational": [0, "a", 0, 2],
    "window-empty": [0, 0, 0, 2],
}

# "type: message" of each case, as the reader has always written it
EXPECTED = {
    'curve/window-zero-denominator':
        "BadRational: in options.window[2]: zero denominator in '1/0'",
    'curve/window-not-rational':
        "BadRational: in options.window[1]: cannot parse rational 'a'",
    'curve/window-empty':
        'WindowEmpty: options.window needs x0 < x1 and y0 < y1',
    'rank/vertex-3-not-a-string':
        "SchemaError: at payload/graph/vertices/3: 3 is not of type 'string'",
    'rank/edge-of-three':
        "SchemaError: at payload/graph/edges/1: ['P', 'Q1', 'Q2'] is too long",
    'rank/int-edge-endpoint':
        "SchemaError: at payload/graph/edges/4/1: 2 is not of type 'string'",
    'rank/divisor-true':
        "SchemaError: at payload/divisor/Q1: True is not of type 'integer', 'string'",
    'rank/divisor-float':
        "SchemaError: at payload/divisor/Q1: 1.0 is not of type 'integer', 'string'",
    'rank/divisor-zero-denominator':
        "BadRational: in divisor['Q1']: zero denominator in '1/0'",
    'rank/divisor-unknown-vertex':
        "UnknownVertex: in divisor: values given for unknown vertices: ['Z']",
    'rank/divisor-missing-vertex':
        'UnknownVertex: in divisor: no value for vertices: ["P\'"]',
    'linsys/vertex-3-not-a-string':
        "SchemaError: at payload/graph/vertices/3: 3 is not of type 'string'",
    'linsys/edge-of-three':
        "SchemaError: at payload/graph/edges/1: ['P', 'Q1', 'Q2'] is too long",
    'linsys/int-edge-endpoint':
        "SchemaError: at payload/graph/edges/4/1: 2 is not of type 'string'",
    'linsys/divisor-true':
        "SchemaError: at payload/divisor/Q1: True is not of type 'integer', 'string'",
    'linsys/divisor-float':
        "SchemaError: at payload/divisor/Q1: 1.0 is not of type 'integer', 'string'",
    'linsys/divisor-zero-denominator':
        "BadRational: in divisor['Q1']: zero denominator in '1/0'",
    'linsys/divisor-unknown-vertex':
        "UnknownVertex: in divisor: values given for unknown vertices: ['Z']",
    'linsys/divisor-missing-vertex':
        'UnknownVertex: in divisor: no value for vertices: ["P\'"]',
    'curve/vertex-3-not-a-string':
        "SchemaError: at payload/graph/vertices/3: 3 is not of type 'string'",
    'curve/edge-of-three':
        "SchemaError: at payload/graph/edges/1: ['P', 'Q1', 'Q2'] is too long",
    'curve/int-edge-endpoint':
        "SchemaError: at payload/graph/edges/4/1: 2 is not of type 'string'",
    'curve/divisor-true':
        "SchemaError: at payload/divisor/Q1: True is not of type 'integer', 'string'",
    'curve/divisor-float':
        "SchemaError: at payload/divisor/Q1: 1.0 is not of type 'integer', 'string'",
    'curve/divisor-zero-denominator':
        "BadRational: in divisor['Q1']: zero denominator in '1/0'",
    'curve/divisor-unknown-vertex':
        "UnknownVertex: in divisor: values given for unknown vertices: ['Z']",
    'curve/divisor-missing-vertex':
        'UnknownVertex: in divisor: no value for vertices: ["P\'"]',
    'rank/two-bad-vertices':
        "SchemaError: at payload/graph/vertices/1: 1 is not of type 'string'",
    'rank/edge-not-a-list':
        "SchemaError: at payload/graph/edges/0: 'PQ1' is not of type 'array'",
    'rank/edge-of-one':
        "SchemaError: at payload/graph/edges/2: ['P'] is too short",
    'rank/two-bad-edges':
        "SchemaError: at payload/graph/edges/3/1: None is not of type 'string'",
    'rank/edge-endpoint-object':
        "SchemaError: at payload/graph/edges/0/0: {'v': 1} is not of type 'string'",
    'rank/edge-unknown-vertex':
        "UnknownVertex: edge ('Q2', 'Z') uses an undeclared vertex",
    'rank/duplicate-vertex':
        'UnknownVertex: duplicate vertex identifiers',
    'rank/vertices-empty':
        'SchemaError: at payload/graph/vertices: [] is too short',
    'rank/edges-not-a-list':
        "SchemaError: at payload/graph/edges: {} is not of type 'array'",
    'rank/divisor-null':
        "SchemaError: at payload/divisor/P: None is not of type 'integer', 'string'",
    'rank/divisor-half':
        'NonIntegerDivisor: rank jobs need an integer divisor',
    'rank/divisor-spaces':
        'NonIntegerDivisor: rank jobs need an integer divisor',
    'linsys/phi-zero-denominator':
        "BadRational: in phi['Q2']: zero denominator in '3/0'",
    'linsys/phi-missing-vertex':
        "UnknownVertex: in phi: no value for vertices: ['P']",
    'curve/y1-true':
        "SchemaError: at payload/flag/y1/P: True is not of type 'integer', 'string'",
    'curve/y1-not-rational':
        "BadRational: in flag.y1['Q1']: cannot parse rational '1/x'",
}


def _cases():
    for m, window in WINDOWS.items():
        doc = copy.deepcopy(BASES["curve"])
        doc["options"] = {"window": window}
        yield f"curve/{m}", doc
    edits = [((kind, m), edit) for kind in BASES for m, edit in COMMON.items()]
    for (kind, m), edit in edits + list(ONE.items()):
        doc = copy.deepcopy(BASES[kind])
        edit(doc["payload"])
        yield f"{kind}/{m}", doc


CASES = dict(_cases())


def test_the_table_covers_every_case():
    assert set(CASES) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_document_message(name):
    with pytest.raises(OkbodiesError) as info:
        parse_job(json.dumps(CASES[name]))
    assert f"{type(info.value).__name__}: {info.value}" == EXPECTED[name]


def test_well_formed_bases_parse():
    for doc in BASES.values():
        parse_job(json.dumps(doc))
