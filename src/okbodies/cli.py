"""Command-line front end.

    okbodies linsys {min|member|shift} --input job.json [--output out.json]
    okbodies rank --input job.json [--output out.json]
    okbodies curve-body {tropical|arakelov} --input job.json [--output out.json]
        [--svg fig.svg] [--window x0,x1,y0,y1]
    okbodies toric-body --input job.json [--output out.json]
        [--svg fig.svg] [--window x0,x1,y0,y1]
    okbodies verify --input job.json [--output out.json] [--seed N]

Each subcommand takes only the options shown; any other is a usage error,
refused with that subcommand's usage before the job file is read.

Exit codes: 0 success, 2 empty-system outcomes and usage errors, 1 errors
(internal errors included, reported as "internal error: ..." on stderr;
an unreadable input or unwritable output as "error: cannot read ..." or
"error: cannot write ...").  The subcommand must match the job file's
kind (and op/flag type where applicable).  --svg draws the body the job
computed; an empty body writes no SVG.
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


def _subcommand(subs, name, summary, body=False):
    """A subcommand with --input and --output, and with --svg and --window
    when it computes a body."""
    sub = subs.add_parser(name, help=summary)
    sub.set_defaults(subparser=sub)
    sub.add_argument("--input", required=True, help="job JSON file")
    sub.add_argument("--output", help="write the result JSON here (default stdout)")
    if body:
        sub.add_argument("--svg", help="render the body to this SVG file")
        sub.add_argument("--window", help="viewing window x0,x1,y0,y1 (exact rationals)")
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="okbodies",
        description="linear systems on graphs and Newton-Okounkov bodies "
                    "of curves and toric schemes over DVRs, in exact rationals")
    # what a subcommand without these options reads
    parser.set_defaults(svg=None, window=None, seed=None)
    subs = parser.add_subparsers(dest="command", required=True)
    ls = _subcommand(subs, "linsys", "linear-system operations")
    ls.add_argument("op", choices=["min", "member", "shift"])
    _subcommand(subs, "rank", "non-negative rank of an integer divisor")
    cb = _subcommand(subs, "curve-body", "curve Newton-Okounkov body", body=True)
    cb.add_argument("regime", choices=["tropical", "arakelov"])
    _subcommand(subs, "toric-body", "toric Newton-Okounkov body", body=True)
    vf = _subcommand(subs, "verify", "run independent oracles against the main algorithms")
    vf.add_argument("--seed", type=int, help="seed for verify sampling")
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
        bps = body.boundary.breakpoints
        ts = [t for t, _ in bps]
        ys = [v for _, v in bps] + [Fraction(0)]
    else:
        pts = list(body.vertices) or [(Fraction(0), Fraction(0))]
        ts = [p[0] for p in pts]
        ys = [p[1] for p in pts]
    return (min(ts) - 1, max(ts) + 1, min(ys) - 1, max(ys) + 1)


def _render(args, job, result) -> None:
    if not args.svg or result.status == "empty":
        return
    body = result.body
    if job.kind == "toric-body" and body.dimension != 2:
        raise OkbodiesError(f"--svg needs a 2-D body; this body is {body.dimension}-D")
    if args.window:
        window = jobs.parse_window(args.window.split(","), "--window")
    else:
        window = job.window or _default_window(body)
    _write(args.svg, render_svg(body, window))


def _write(path, text) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OkbodiesError(f"cannot write {path}: {exc}") from None


def main(argv=None) -> int:
    args, extra = _PARSER.parse_known_args(argv)
    if extra:
        # refused by the subcommand's own parser, whose usage line shows
        # the options it takes; exits 2
        args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
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
        doc = json.dumps(result.as_document(), sort_keys=True, indent=2) + "\n"
        out_path = args.output or job.options.get("output")
        if out_path:
            _write(out_path, doc)
        else:
            sys.stdout.write(doc)
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
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
