"""Command-line front end.

Subcommands:
    verify      run every certificate; exit 0 iff all pass
    present     print one of the fixed presentations, or the generated one
    ball-check  the simple-transitivity ball check at a chosen radius
    invariants  counting formulas, Chern numbers, kernel dims, abelianization
    export      JSON of the square complex or DOT of its links

verify, present, ball-check and invariants accept --json for
machine-readable output; export has no --json and picks its format with
--format (json for the complex, dot for the links).  Exit codes: 0 success,
1 a certificate failed, 2 usage error (argparse's default).
"""

from __future__ import annotations

import argparse
import json
import sys

from .certify import ball_check
from .invariants import albanese_kernel_dim, chern_numbers, complex_counts, is_prime
from .lattice import standard_structure
from .presentations import abelianizations, fixed_presentations, orbifold_presentation
from .squares import complex_to_json, links_to_dot
from .suite import run_all


def _print_results(results, as_json: bool) -> int:
    all_passed = all(r.passed for r in results)
    if as_json:
        payload = {
            "schema_version": 1,
            "all_passed": all_passed,
            "results": [r.as_json() for r in results],
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
        factors, rank = abelianizations()[0]
        payload["gamma_ab"] = {"factors": list(factors), "free_rank": rank}  # text output prints [15]
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quatlat", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run all certificates")
    p_verify.add_argument("--radius", type=int, default=3, help="ball-check radius (default 3)")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(fn=cmd_verify)

    p_present = sub.add_parser("present", help="print a presentation")
    p_present.add_argument("which", choices=("lambda", "gr", "gamma", "orbifold"))
    p_present.add_argument("--json", action="store_true")
    p_present.set_defaults(fn=cmd_present)

    p_ball = sub.add_parser("ball-check", help="simple-transitivity ball check")
    p_ball.add_argument("--radius", type=int, required=True)
    p_ball.add_argument("--json", action="store_true")
    p_ball.set_defaults(fn=cmd_ball_check)

    p_inv = sub.add_parser("invariants", help="counting formulas and surface invariants")
    p_inv.add_argument("--N", type=int, default=4)
    p_inv.add_argument("--q", type=int, default=2)
    p_inv.add_argument("--ell", type=int, nargs="*", default=[5, 7])
    p_inv.add_argument("--json", action="store_true")
    p_inv.set_defaults(fn=cmd_invariants)

    p_export = sub.add_parser("export", help="write the complex or its links")
    p_export.add_argument("--what", choices=("complex", "links"), required=True)
    p_export.add_argument("--format", choices=("json", "dot"), required=True)
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(fn=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
