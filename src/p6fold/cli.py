"""Command-line front end: verify, profile, check, bound, scan.

Thin adapters only: every number printed here is produced by the library
modules.  Exit codes: 0 success / feasible / all identities pass, 1
infeasible or some identity failed, 2 usage error or a failed write of the
output, 3 domain error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys

from . import bounds, constraints, identities
from .errors import DomainError, UnknownIdentityError
from .invariants import InvariantTuple, profile
from .scan import ScanBox, scan as run_scan

_AXES = InvariantTuple._fields
_TUPLE_METAVAR = ",".join(_AXES)
_BOX_METAVAR = ",".join([f"{_AXES[0]}=LO..HI"]
                        + [f"{axis}=.." for axis in _AXES[1:]])


def parse_tuple(text: str) -> InvariantTuple:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            f"expected 5 comma-separated integers {_TUPLE_METAVAR}, "
            f"got {len(parts)} field(s) in {text!r}"
        )
    values = []
    for name, part in zip(_AXES, parts):
        try:
            values.append(int(part.strip()))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"field {name!r} is not an integer: {part.strip()!r}"
            ) from None
    return InvariantTuple(*values)


def parse_box(text: str) -> ScanBox:
    try:
        return ScanBox.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_format_flags(parser, choices, default):
    group = parser.add_mutually_exclusive_group()
    for name in choices:
        group.add_argument(
            f"--{name}", dest="fmt", action="store_const", const=name,
            help=f"{name} output" + (" (default)" if name == default else ""),
        )
    parser.set_defaults(fmt=default)


# The cover flags, the paper's extra hypotheses: each forces K_S^2 <= 9, so
# each sets ks2_cap=9 unless --kappa gives the cap.
_COVER_FLAGS = ("covered_by_lines", "kx_plus_h_empty",
                "section_not_general_type")


def _add_hypothesis_flags(parser):
    parser.add_argument("--kappa", type=int, default=None, metavar="K",
                        help="enforce K_S^2 <= K")
    parser.add_argument("--raw", action="store_true",
                        help="skip the basic geometric constraints B1-B5")
    parser.add_argument("--min-degree", type=int, default=1, metavar="D",
                        help="minimal degree required by B1 (default 1)")
    for flag in _COVER_FLAGS:
        parser.add_argument(f"--{flag.replace('_', '-')}",
                            dest="cover_flags", action="append_const",
                            const=flag,
                            help="geometric condition forcing K_S^2 <= 9")
    parser.set_defaults(cover_flags=None)


def _config_from_args(args) -> constraints.HypothesisConfig:
    flags = sorted(set(args.cover_flags or ()))
    action = ("applying that cap" if args.kappa is None
              else f"--kappa {args.kappa} overrides it")
    for flag in flags:
        print(f"note: {flag} forces K_S^2 <= 9; {action}", file=sys.stderr)
    return constraints.HypothesisConfig(
        geometric_mode=not args.raw,
        ks2_cap=9 if flags and args.kappa is None else args.kappa,
        min_degree=args.min_degree,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="p6fold",
        description="Exact Chern-number identities, feasibility constraints, "
                    "and degree bounds for smooth threefolds in P^6.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run the symbolic identity registry")
    which = p_verify.add_mutually_exclusive_group()
    which.add_argument("--id", dest="identity_id", metavar="ID",
                       help="verify a single identity")
    which.add_argument("--all", action="store_true",
                       help="verify the whole registry (default)")
    p_verify.add_argument("--show", action="store_true",
                          help="print each side in canonical text form")
    _add_format_flags(p_verify, ("human", "json"), "human")
    p_verify.set_defaults(run=_cmd_verify)

    p_profile = sub.add_parser(
        "profile", help="derived numbers of one invariant tuple")
    p_profile.add_argument("--tuple", type=parse_tuple, required=True,
                           metavar=_TUPLE_METAVAR, dest="invariants")
    _add_format_flags(p_profile, ("human", "json"), "human")
    p_profile.set_defaults(run=_cmd_profile)

    p_check = sub.add_parser(
        "check", help="evaluate the constraint system on a tuple")
    p_check.add_argument("--tuple", type=parse_tuple, required=True,
                         metavar=_TUPLE_METAVAR, dest="invariants")
    _add_hypothesis_flags(p_check)
    _add_format_flags(p_check, ("human", "json"), "human")
    p_check.set_defaults(run=_cmd_check)

    p_bound = sub.add_parser(
        "bound", help="compute the degree bound for an excluded "
                      "fourfold degree")
    p_bound.add_argument("--s", type=int, required=True,
                         help="excluded fourfold degree (effective even "
                              "degree must be >= 34)")
    p_bound.add_argument("--kappa", type=int, default=9,
                         help="K_S^2 cap (default 9)")
    p_bound.add_argument("--sharp", action="store_true",
                         help="use the exact quadratic root instead of the "
                              "published relaxation")
    _add_format_flags(p_bound, ("json", "human"), "json")
    p_bound.set_defaults(run=_cmd_bound)

    p_scan = sub.add_parser(
        "scan", help="stream the feasible tuples of an integer box")
    p_scan.add_argument("--box", type=parse_box, required=True,
                        metavar=_BOX_METAVAR)
    _add_hypothesis_flags(p_scan)
    p_scan.add_argument("--with-profile", action="store_true",
                        help="append profile columns to each row (CSV "
                             "only: a JSONL row always carries them all)")
    p_scan.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility; the scan runs in "
                             "one process")
    p_scan.add_argument("--out", metavar="FILE", default=None,
                        help="write to FILE instead of stdout")
    _add_format_flags(p_scan, ("csv", "jsonl"), "csv")
    p_scan.set_defaults(run=_cmd_scan)

    return parser


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _cmd_verify(args) -> int:
    if args.identity_id is not None:
        results = [identities.verify_identity(args.identity_id)]
    else:
        results = identities.verify_all()

    if args.fmt == "json":
        _emit_json([{"pass" if key == "passed" else key: value
                     for key, value in r._asdict().items()}
                    | {"comparisons": [c._asdict() for c in r.comparisons]}
                    for r in results])
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.id:8s} "
                  f"{r.description}")
            if args.show or not r.passed:
                for c in r.comparisons:
                    tag = f" [{c.label}]" if c.label else ""
                    print(f"        lhs{tag}: {c.lhs}")
                    print(f"        rhs{tag}: {c.rhs}")
                    if not c.equal:
                        print(f"        diff{tag}: {c.diff}")
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} identities pass")
    return 0 if all(r.passed for r in results) else 1


def _cmd_profile(args) -> int:
    data = profile(args.invariants).to_json_dict()
    if args.fmt == "json":
        _emit_json(data)
    else:
        print("tuple: " + " ".join(
            f"{axis}={x}" for axis, x in zip(_AXES, args.invariants)))
        for key, value in data.items():
            print(f"  {key:5s} = {value}")
    return 0


def _cmd_check(args) -> int:
    cfg = _config_from_args(args)
    report = constraints.evaluate(args.invariants, cfg)
    if args.fmt == "json":
        _emit_json(report.to_json_dict())
    else:
        for entry in report.entries:
            mark = "ok " if entry.satisfied else "FAIL"
            print(f"  {entry.id:3s} {mark} value = {entry.value}")
        print("feasible" if report.feasible else "infeasible")
    return 0 if report.feasible else 1


def _cmd_bound(args) -> int:
    mode = "sharp" if args.sharp else "paper"
    report = bounds.degree_bound(args.s, args.kappa, mode=mode)
    if args.fmt == "human":
        print(bounds.proof_trace(report))
    else:
        _emit_json(report.to_json_dict())
    return 0


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that bytes a failed
    write left in its buffer do not fail again when the interpreter exits.
    A stdout with no descriptor is left alone."""
    with contextlib.suppress(AttributeError, OSError, ValueError):
        fd = sys.stdout.fileno()
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def _open_beside(path: str):
    """A new file beside ``path``, created as ``open(path, "w")`` would
    create ``path``, so its mode follows the umask: ``(name, file)``."""
    head, tail = os.path.split(path)
    n = 0
    while True:
        name = os.path.join(head, f".{tail}.{os.getpid()}.{n}.tmp")
        try:
            fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            n += 1
            continue
        return name, open(fd, "w")


def _write_replacing(path: str, write):
    """``write(file)`` into ``path``, returning what it returns.  A path that
    does not exist, or is a regular file, is replaced at once by a finished
    file (written beside it, then renamed over it), so a failed write
    leaves it as it was and leaves no file behind.  Any other path, such as
    a device, a FIFO or a symlink, is written in place."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w") as out:
            return write(out)
    name, out = _open_beside(path)
    try:
        with out:
            if mode is not None:
                os.chmod(out.fileno(), stat.S_IMODE(mode))
            result = write(out)
        os.replace(name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(name)
        raise
    return result


def _cmd_scan(args) -> int:
    cfg = _config_from_args(args)
    print(f"# box volume {args.box.volume()}", file=sys.stderr)

    def write(out):
        return run_scan(args.box, cfg, out, fmt=args.fmt,
                        with_profile=args.with_profile)

    if args.out:
        result = _write_replacing(args.out, write)
    else:
        result = write(sys.stdout)
        sys.stdout.flush()
    print(f"# scanned {result.scanned} feasible {result.feasible}",
          file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "raw", False) and args.min_degree != 1:
            parser.error("--min-degree sets B1, which --raw skips")
        if getattr(args, "workers", 1) < 1:
            parser.error(f"--workers must be at least 1, got {args.workers}")
        if getattr(args, "out", None) == "":
            parser.error("--out needs a file name, got ''")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except (OSError, UnicodeEncodeError) as exc:
        # Only output can fail: no subcommand reads a file.  A stdout whose
        # encoding lacks a character (the delta of verify --show) raises
        # UnicodeEncodeError, which has no strerror.
        target = getattr(args, "out", None)
        print(f"error: cannot write {target or 'stdout'}: "
              f"{getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
        if not target:
            _discard_stdout()
        return 2
    except UnknownIdentityError as exc:
        print(f"error: unknown identity id {exc.args[0]!r}; known ids: "
              f"{', '.join(identities.identity_ids())}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
