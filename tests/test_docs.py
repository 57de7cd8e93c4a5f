"""Every job example in README.md runs through the CLI, and README's CLI
synopsis lists exactly the options each subcommand takes."""

import json
import os
import re

from okbodies.cli import _PARSER, main

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


def test_readme_synopsis_lists_each_subcommands_options():
    with open(README) as fh:
        text = fh.read()
    synopsis = re.search(r"^## CLI\n.*?^```\n(.*?)^```", text, flags=re.S | re.M).group(1)
    listed = {}
    for line in synopsis.splitlines():
        words = line.split()
        if words[0] == "okbodies":
            command = words[1]
        listed.setdefault(command, set()).update(re.findall(r"--[a-z]+", line))
    (subs,) = [a for a in _PARSER._actions if a.dest == "command"]
    taken = {name: {o for a in sub._actions for o in a.option_strings} - {"-h", "--help"}
             for name, sub in subs.choices.items()}
    assert listed == taken
