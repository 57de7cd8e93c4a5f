"""Command-line front end.

    okbodies linsys {min|member|shift} --input job.json [--output out.json]
    okbodies rank --input job.json
    okbodies curve-body {tropical|arakelov} --input job.json [--svg fig.svg]
    okbodies toric-body --input job.json [--svg fig.svg]
    okbodies verify --input job.json [--seed N]

Exit codes: 0 success, 2 empty-system outcomes, 1 errors (internal
errors included, reported as "internal error: ..." on stderr).  The subcommand
must match the job file's kind (and op/flag type where applicable).
--svg draws the body the job computed; an empty body writes no SVG.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import curves, jobs
from .errors import OkbodiesError, WindowEmpty
from .jobs import EXIT_ERROR
from .svgplot import render_svg


def _add_common(sub):
    sub.add_argument("--input", required=True, help="job JSON file")
    sub.add_argument("--output", help="write the result JSON here (default stdout)")
    sub.add_argument("--svg", help="render the body to this SVG file")
    sub.add_argument("--window", help="viewing window x0,x1,y0,y1 (exact rationals)")
    sub.add_argument("--seed", type=int, help="seed for verify sampling")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okbodies",
        description="linear systems on graphs and Newton-Okounkov bodies "
                    "of curves and toric schemes over DVRs, in exact rationals")
    subs = parser.add_subparsers(dest="command", required=True)

    ls = subs.add_parser("linsys", help="linear-system operations")
    ls.add_argument("op", choices=["min", "member", "shift"])
    _add_common(ls)

    rk = subs.add_parser("rank", help="non-negative rank of an integer divisor")
    _add_common(rk)

    cb = subs.add_parser("curve-body", help="curve Newton-Okounkov body")
    cb.add_argument("regime", choices=["tropical", "arakelov"])
    _add_common(cb)

    tb = subs.add_parser("toric-body", help="toric Newton-Okounkov body")
    _add_common(tb)

    vf = subs.add_parser("verify", help="run independent oracles against the main algorithms")
    _add_common(vf)
    return parser


# built once per process: about 1 ms a parser, and parse_args keeps no
# state between calls
_PARSER = build_parser()


def _check_match(args, job) -> None:
    if job.kind != args.command:
        raise OkbodiesError(
            f"job kind {job.kind!r} does not match subcommand {args.command!r}")
    if args.command == "linsys" and job.payload.get("op") != args.op:
        raise OkbodiesError(
            f"job op {job.payload.get('op')!r} does not match {args.op!r}")
    if args.command == "curve-body":
        ftype = job.payload.get("flag", {}).get("type")
        if ftype != args.regime:
            raise OkbodiesError(
                f"job flag type {ftype!r} does not match {args.regime!r}")


def _default_window(body) -> tuple:
    """A window with one unit of margin around the bounded features."""
    if isinstance(body, curves.NOBody2D):
        f = body.lower if body.kind == "overgraph" else body.upper
        ts = [t for t, _ in f.breakpoints]
        ys = [v for _, v in f.breakpoints] + [Fraction(0)]
    else:
        pts = list(body.vertices) or [(Fraction(0), Fraction(0))]
        ts = [p[0] for p in pts]
        ys = [p[1] for p in pts]
    return (min(ts) - 1, max(ts) + 1, min(ys) - 1, max(ys) + 1)


def _render(args, job, result) -> None:
    if not args.svg:
        return
    if job.kind not in ("curve-body", "toric-body"):
        raise OkbodiesError(f"--svg is not available for {job.kind!r} jobs")
    if result.status == "empty":
        return
    body = result.body
    if job.kind == "toric-body" and body.dimension != 2:
        raise OkbodiesError(f"--svg needs a 2-D body; this body is {body.dimension}-D")
    if args.window:
        window = jobs.parse_window(args.window.split(","), "--window")
    else:
        window = job.window or _default_window(body)
    svg = render_svg(body, window)
    with open(args.svg, "w") as fh:
        fh.write(svg)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        job = jobs.parse_job(text)
        _check_match(args, job)
        result = jobs.run_job(job, seed=args.seed)
        _render(args, job, result)
    except WindowEmpty as exc:
        print(f"error: empty window: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OkbodiesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (AssertionError, RuntimeError) as exc:
        # a failed internal check or a non-terminating loop: a bug, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    out_path = args.output or job.options.get("output")
    doc = json.dumps(result.as_document(), sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(doc)
    else:
        sys.stdout.write(doc)
    if job.kind == "verify" and not result.result.get("pass", True):
        return EXIT_ERROR
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
