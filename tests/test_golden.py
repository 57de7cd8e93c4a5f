"""Every job in jobs/ through the CLI, against digests recorded before
jobs were parsed once and bodies kept for rendering and verification:
the exit code, the SHA-256 of the result's canonical section and, for the
2-D bodies, the SHA-256 of the SVG."""

import hashlib
import json
import os

import pytest

from okbodies import curves
from okbodies.cli import main
from tests.test_docs import _argv

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")

# name -> (exit code, canonical SHA-256, SVG SHA-256 or None)
GOLDEN = {
    "path-linsys-min": (
        0, "0e4544161aaa4547334110947343350353b098ae85928135f3be37816a950b9a", None),
    "path-linsys-shift": (
        0, "49d078784ae05b633a9ea610f3d1fdb64c0ec38fb9cde152939b963217c6968f", None),
    "quartic-arakelov": (
        0, "4721a97dea92ad2d97e5019a8187d2c58bd122d270d02f1f3231abd5c092f10f",
        "fec740fb1a89de3440a3017e940ab504ccb3014a99328137aa0621a655c52137"),
    "quartic-rank": (
        0, "697fd3fa5315a24b02cb3170008a5067ef8678342a6730ef2290de40328e4689", None),
    "quartic-tropical": (
        0, "14769a468b9f8f1e48f49f872a5ee19b701f34798b4994c0c8a62703c9ed4371",
        "2f84459901e1de4d7687716277892b4abcfb415fd50cf6d3c3c84afa7de1de85"),
    "toric-d1": (
        0, "b27fbbd3e3297479a4ad83db70e1708939d8d15d45e8b3c7690c2021f43ade80",
        "458deddffec53340be882b3b418ab3b7841c11a97b14b8ff968d7e7cfac62d8c"),
    "toric-d2-square": (
        0, "c5a3a8fcfd12517748ac4bf0b6ce4c424f471fcae1309a0b79f1ec57c5e31367", None),
    "verify-quartic-tropical": (
        0, "a70c1c9b796577c39e4761773de371a0793e39985d16bbfdcd689237c7f1b07e", None),
    "verify-random-curves": (
        0, "aa41bc77427e6548d2957de0e41b81b7661f13aa860b8fc7010dacf34bc24158", None),
    "verify-toric-d1": (
        0, "cb6e2b270b7eb3ea23b8ddb2d86a55b621395b1f8a1e5eaffab04dc67431a1cc", None),
}


def _job_argv(name, tmp_path, svg):
    with open(os.path.join(JOBS, name + ".json")) as fh:
        job = json.load(fh)
    argv = _argv(job) + ["--input", os.path.join(JOBS, name + ".json"),
                         "--output", str(tmp_path / "r.json")]
    if svg:
        argv += ["--svg", str(tmp_path / "fig.svg")]
    return argv


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_covers_every_job():
    assert sorted(f[:-5] for f in os.listdir(JOBS) if f.endswith(".json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_job_results_unchanged(name, tmp_path):
    code, canonical_sha, svg_sha = GOLDEN[name]
    assert main(_job_argv(name, tmp_path, svg_sha is not None)) == code
    with open(tmp_path / "r.json") as fh:
        canonical = json.load(fh)["canonical"]
    assert _sha256(json.dumps(canonical, sort_keys=True, indent=2).encode()) == canonical_sha
    if svg_sha is not None:
        assert _sha256((tmp_path / "fig.svg").read_bytes()) == svg_sha


@pytest.mark.parametrize("name,svg", [("quartic-tropical", True),
                                      ("verify-quartic-tropical", False)])
def test_body_is_built_once(name, svg, tmp_path, monkeypatch):
    """--svg draws the body the job computed, and verify checks recession
    closure on the body its cross-check built: the least-element route
    builds it once.  A curve-body job and a verify job run the same
    cross-check, the parametric route once, and no support LP."""
    calls = dict.fromkeys(("combinatorial_body", "tropical_body_parametric",
                           "tropical_body_projection", "arakelov_body_projection"), 0)

    def counted(attr):
        build = getattr(curves, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return build(*args, **kwargs)
        return wrapper

    for attr in calls:
        monkeypatch.setattr(curves, attr, counted(attr))
    assert main(_job_argv(name, tmp_path, svg)) == 0
    assert calls == {"combinatorial_body": 1, "tropical_body_parametric": 1,
                     "tropical_body_projection": 0, "arakelov_body_projection": 0}
