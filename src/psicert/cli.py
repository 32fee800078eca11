"""Command-line interface.

Subcommands:
  certify   run a job file end to end and emit the certification report
  fixtures  run the bundled worked-example corpus and compare stored expectations
  tau       emit only the depth check and the level-k cochain for a job
  charpoly  characteristic polynomial of a matrix file

Exit codes: 0 success, 2 validation error, 3 filtration-depth failure,
4 fixture mismatch.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import DepthError, FixtureError, JobError
from .fixtures import verify_fixtures
from .jobs import (Job, SCHEMA_VERSION, canonical_json, load_job, parse_matrix, read_json,
                   run_job, run_tau)
from .polylab import charpoly
from .words import clipped

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEPTH = 3
EXIT_FIXTURE = 4


def _write_output(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".psicert-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _parse_primes(text: str) -> list[int]:
    """The comma-separated integers of `--primes`; empty entries are skipped."""
    primes = []
    for entry in filter(str.strip, text.split(",")):
        try:
            primes.append(int(entry))
        except ValueError:
            raise JobError(f"--primes: {clipped(entry.strip())!r} is not an integer") from None
    return primes


def _load_job(args) -> Job:
    """The job file named on the command line, with its option overrides."""
    options = {}
    if getattr(args, "primes", None) is not None:
        options["primes"] = _parse_primes(args.primes)
    if args.truncation is not None:
        options["truncation"] = args.truncation
    if getattr(args, "contraction_spec", None):
        options["contraction_spec"] = read_json(args.contraction_spec)
    return load_job(args.job, options)


def _cmd_certify(args) -> int:
    job = _load_job(args)
    report = run_job(job, want_timings=args.timings)
    _write_output(report.to_json(), args.out)
    return EXIT_OK


def _cmd_tau(args) -> int:
    job = _load_job(args)
    depth, cochain = run_tau(job)
    obj = {"schema": SCHEMA_VERSION, "name": job.name,
           "observed_depth": depth.to_json_obj() if depth is not None else None,
           "tau": cochain.to_json_obj()}
    _write_output(canonical_json(obj), args.out)
    return EXIT_OK


def _cmd_charpoly(args) -> int:
    m = parse_matrix(read_json(args.matrix))
    chi = charpoly(m)
    obj = {"schema": SCHEMA_VERSION, "charpoly": chi.to_json_obj()}
    _write_output(canonical_json(obj), args.out)
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    summary = verify_fixtures(args.dir)
    for line in summary.lines():
        print(line)
    if not summary.ok:
        for r in summary.results:
            for fieldname, expected, actual in r.mismatches:
                print(f"  {r.name}.{fieldname}: expected {json.dumps(expected)}, got {json.dumps(actual)}",
                      file=sys.stderr)
        return EXIT_FIXTURE
    print(f"{len(summary.results)} fixtures passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="psicert",
                                     description="Exact certification of pseudo-Anosov mapping classes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run a job end to end")
    p.add_argument("--job", required=True, help="job JSON file")
    p.add_argument("--out", help="write the report here (default stdout)")
    p.add_argument("--primes", help="comma-separated certificate primes (overrides job options)")
    p.add_argument("--truncation", type=int, help="expansion truncation override")
    p.add_argument("--contraction-spec", dest="contraction_spec",
                   help="JSON file with a slot-pairing contraction spec")
    p.add_argument("--timings", action="store_true", help="include timings (non-canonical)")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("tau", help="emit the depth check and level-k cochain")
    p.add_argument("--job", required=True)
    p.add_argument("--out")
    p.add_argument("--truncation", type=int, help="expansion truncation override")
    p.set_defaults(func=_cmd_tau)

    p = sub.add_parser("charpoly", help="characteristic polynomial of a matrix file")
    p.add_argument("--matrix", required=True, help="JSON file: row-major integer matrix")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser("fixtures", help="verify the bundled worked-example corpus")
    p.add_argument("--dir", help="alternative fixture directory")
    p.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DepthError as exc:
        print(f"depth error: {exc}", file=sys.stderr)
        return EXIT_DEPTH
    except RecursionError:
        print("error: document nested too deeply", file=sys.stderr)
        return EXIT_VALIDATION
    except (FixtureError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
