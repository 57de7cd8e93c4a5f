"""Every job example in README.md runs through the CLI."""

import json
import os
import re

from okbodies.cli import main

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def _json_blocks():
    with open(README) as fh:
        text = fh.read()
    return re.findall(r"^```json\n(.*?)^```", text, flags=re.S | re.M)


def _argv(job):
    kind = job["kind"]
    if kind == "linsys":
        return [kind, job["payload"]["op"]]
    if kind == "curve-body":
        return [kind, job["payload"]["flag"]["type"]]
    return [kind]


def test_readme_jobs_run(tmp_path):
    jobs = [json.loads(b) for b in _json_blocks() if '"kind"' in b]
    assert jobs, "README.md has no job example"
    for k, job in enumerate(jobs):
        path = tmp_path / f"job{k}.json"
        path.write_text(json.dumps(job))
        argv = _argv(job) + ["--input", str(path), "--output", str(tmp_path / f"r{k}.json")]
        assert main(argv) == 0, f"README job {k} ({job['kind']}) failed"
