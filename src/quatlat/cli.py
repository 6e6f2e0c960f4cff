"""Command-line front end.

Usage:
    quatlat verify [--radius L] [--json]                      run every certificate; exit 0 iff all pass
    quatlat present {lambda,gr,gamma,orbifold} [--json]       print a fixed or the generated presentation
    quatlat ball-check --radius L [--json]                    the simple-transitivity ball check
    quatlat invariants [--N 4] [--q 2] [--ell 5 7] [--json]   counting formulas, Chern numbers, kernel dims
    quatlat export --what complex --format json [--out FILE]  the square complex as JSON
    quatlat export --what links --format dot [--out FILE]     its links as DOT
    quatlat [SUBCOMMAND] --help                               print this text

A value follows its option or an `=` (--radius=5), the last of a repeated
option wins, and options are spelled out in full.  Exit codes: 0 success, 1 a
certificate failed or stdout closed early (nothing on stderr), 2 a usage
error, reported as one `quatlat: error:` line.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

from .certify import ball_check
from .invariants import albanese_kernel_dim, chern_numbers, complex_counts, is_prime
from .lattice import standard_structure
from .presentations import abelianization, fixed_presentations, gamma_presentation, orbifold_presentation
from .squares import complex_to_json, links_to_dot
from .suite import run_all


def _print_results(results, as_json: bool) -> int:
    all_passed = all(r.passed for r in results)
    if as_json:
        payload = {
            "schema_version": 1,
            "all_passed": all_passed,
            "results": [{"name": r.name, "passed": r.passed, "details": r.details} for r in results],
            "failures": [r.name for r in results if not r.passed],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:28s} ({r.elapsed_ms:8.1f} ms)")
        print(f"{'all passed' if all_passed else 'FAILURES: ' + ', '.join(r.name for r in results if not r.passed)}")
    return 0 if all_passed else 1


def _usage_error(message: str) -> int:
    print(f"quatlat: error: {message}", file=sys.stderr)
    return 2


def cmd_verify(args) -> int:
    if args.radius < 0:
        return _usage_error("--radius must be non-negative")
    return _print_results(run_all(radius=args.radius), args.json)


def cmd_present(args) -> int:
    if args.which == "orbifold":
        pres = orbifold_presentation(standard_structure())
    else:
        pres = fixed_presentations()[args.which]
    if args.json:
        print(json.dumps(pres.to_json(), indent=2, sort_keys=True))
    else:
        print(pres.text())
    return 0


def cmd_ball_check(args) -> int:
    if args.radius < 0:
        return _usage_error("--radius must be non-negative")
    report = ball_check(args.radius)
    if args.json:
        print(json.dumps({"schema_version": 1, **report._asdict()}, indent=2, sort_keys=True))
    else:
        print(
            f"radius {report.radius}: {report.word_count} words, "
            f"{report.distinct_elements} elements, {report.distinct_vertices} vertices "
            f"(expected {report.expected_vertices})"
        )
        print("injective" if report.injective else "NOT injective")
    return 0 if report.injective else 1


def cmd_invariants(args) -> int:
    try:
        counts = complex_counts(args.N, args.q)
    except ValueError as exc:
        return _usage_error(f"--N {args.N} --q {args.q}: {exc}")
    for ell in args.ell:
        try:
            prime = is_prime(ell)
        except ValueError as exc:
            return _usage_error(f"--ell {exc}")
        if not prime:
            return _usage_error(f"--ell {ell} is not prime")
    c1_sq, c2 = chern_numbers(args.N, args.q)
    payload = {
        "schema_version": 1,
        "N": args.N,
        "q": args.q,
        "edges": counts.edges,
        "squares": counts.squares,
        "chi": counts.chi,
        "c1_squared": c1_sq,
        "c2": c2,
    }
    if (args.N, args.q) == (4, 2):
        structure = standard_structure()
        payload["kernel_dims"] = {str(ell): dim for ell, dim in albanese_kernel_dim(structure, args.ell).items()}
        factors, rank = abelianization(gamma_presentation())
        payload["gamma_ab"] = {"factors": factors, "free_rank": rank}  # text output prints [15]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            if key == "schema_version":
                continue
            print(f"{key}: {value}")
    return 0


def cmd_export(args) -> int:
    structure = standard_structure()
    if args.what == "complex":
        if args.format != "json":
            return _usage_error("the complex exports as json only")
        text = json.dumps(complex_to_json(structure), indent=2, sort_keys=True)
    else:
        if args.format != "dot":
            return _usage_error("links export as dot only")
        text = links_to_dot(structure)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _usage_error(f"--out {args.out}: {exc.strerror}")
    else:
        print(text)
    return 0


# Each subcommand's handler and options, as name: (type, default).  A type is
# int, str, bool (a flag), list (zero or more ints) or a tuple of choices; the
# default None makes an option required; a name without dashes is positional.
_COMMANDS = {
    "verify": (cmd_verify, {"--radius": (int, 3), "--json": (bool, False)}),
    "present": (cmd_present, {"which": (("lambda", "gr", "gamma", "orbifold"), None), "--json": (bool, False)}),
    "ball-check": (cmd_ball_check, {"--radius": (int, None), "--json": (bool, False)}),
    "invariants": (cmd_invariants, {"--N": (int, 4), "--q": (int, 2), "--ell": (list, (5, 7)), "--json": (bool, False)}),
    "export": (cmd_export, {"--what": (("complex", "links"), None), "--format": (("json", "dot"), None), "--out": (str, "")}),
}


def _fail(message: str):
    raise SystemExit(_usage_error(message))


def _value(name: str, kind, text: str):
    if isinstance(kind, tuple):
        return text if text in kind else _fail(f"argument {name}: invalid choice {text!r} (one of {', '.join(kind)})")
    try:
        return text if kind is str else int(text)
    except ValueError:
        _fail(f"argument {name}: invalid int value {text!r}")


def main(argv: list[str] | None = None) -> int:
    """Run the subcommand that argv (default sys.argv[1:]) names.  If the
    reader of stdout (`head`, say) leaves before the output is written, exit
    1 with nothing on stderr: the rest of the output goes to devnull, so the
    flush at exit cannot fail again."""
    try:
        try:
            return _dispatch(sys.argv[1:] if argv is None else argv)
        finally:
            sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(argv: list[str]) -> int:
    """Parse argv and run its handler; --opt=value reads as --opt value, and
    a value may start with a dash (--radius -1)."""
    if "-h" in argv or "--help" in argv:
        print(__doc__)
        raise SystemExit(0)
    if not argv or argv[0] not in _COMMANDS:
        what = f"invalid subcommand {argv[0]!r}" if argv else "a subcommand is required"
        _fail(f"{what} (one of {', '.join(_COMMANDS)})")
    handler, options = _COMMANDS[argv[0]]
    positionals = [name for name in options if not name.startswith("-")]
    values = {name: default for name, (_, default) in options.items()}
    words = [part for arg in argv[1:] for part in (arg.split("=", 1) if arg.startswith("--") else [arg])]
    rest = words[::-1]  # the words left, the next one last
    while rest:
        name = rest.pop()
        if not name.startswith("-"):  # a positional's value: name the positional
            rest.append(name)
            name = positionals.pop(0) if positionals else _fail(f"unrecognized argument {name!r}")
        kind = options[name][0] if name in options else _fail(f"unrecognized option {name}")
        if kind is bool:
            values[name] = True
        elif kind is list:
            values[name] = []
            while rest and not rest[-1].startswith("-"):
                values[name].append(_value(name, int, rest.pop()))
        else:
            values[name] = _value(name, kind, rest.pop()) if rest else _fail(f"argument {name}: expected a value")
    if missing := [name for name, value in values.items() if value is None]:
        _fail(f"the following arguments are required: {', '.join(missing)}")
    return handler(SimpleNamespace(**{name.lstrip("-"): value for name, value in values.items()}))


if __name__ == "__main__":
    sys.exit(main())
