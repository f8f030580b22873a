"""Command line front end.

Subcommands run the enumerations and fan constructions (``FANS``), export
fans and posets as JSON, and execute the verification suite (``CLAIMS``).
The library computes any n it is asked for; only the size guards in
``GUARDS`` keep runs at desk scale, and ``--force`` lifts them with a
warning.  Identical configurations (including the seed) produce
byte-identical output files, so timings are printed to the console only.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import sys
import time
from typing import Callable, Optional

from . import gitfan as gfan
from . import grassmann as gr
from . import semilattice as sl
from .polyhedral import Fan, FanAxiomViolation

# (minimum n, maximum n) of every command, fan and claim.  Below the minimum
# n is outside the domain; the maximum keeps runs at desk scale, and --force
# lifts only the maximum.
GUARDS: dict[str, tuple[int, float]] = {
    "ysets": (2, 6),
    "oracle": (2, 3),  # ysets --oracle
    "centers": (3, 5),
    "gitfan": (2, 5),
    "gitfan-star": (3, 5),
    "sigma0": (3, 5),
    "sigma1": (3, 5),
    "sigmar": (3, 5),
    "delta": (3, 5),
    "walls": (2, 5),
    "star-subfan": (3, 5),
    "fk-bridge": (2, math.inf),
    "thm44": (2, math.inf),
    "delta-subfan": (3, 5),
    "rays": (3, 5),
    "nu-equality": (3, 5),
}

# The library functions are looked up when called, so that a function
# wrapped or patched in its module is the one that runs.
FANS: dict[str, Callable[[int], Fan]] = {
    "gitfan": lambda n: gfan.git_fan(n),
    "gitfan-star": lambda n: gfan.git_fan_star(n),
    "sigma0": lambda n: gfan.sigma_fan_cached(n, 0),
    "sigma1": lambda n: gfan.sigma_fan_cached(n, 1),
    "sigmar": lambda n: gfan.sigma_r(n),
    "delta": lambda n: gfan.delta_reduction(n),
}

# claim -> runner of (n, seed, jobs), in the order of ``verify all``
CLAIMS: dict[str, Callable[[int, int, int], dict]] = {
    "walls": lambda n, seed, jobs: gfan.verify_walls(n),
    "star-subfan": lambda n, seed, jobs: gfan.verify_star_subfan(n),
    "fk-bridge": lambda n, seed, jobs: sl.verify_fk_bridge(seed=seed, jobs=jobs),
    "thm44": lambda n, seed, jobs: sl.verify_blowup_join_criterion(),
    "delta-subfan": lambda n, seed, jobs: gfan.verify_delta_subfan(n),
    "rays": lambda n, seed, jobs: gfan.verify_ray_classification(n),
    "nu-equality": lambda n, seed, jobs: gfan.verify_nu_equality(n),
}

EXIT_OK = 0
EXIT_CLAIM_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    """Bad input from the command line or environment: exit 2, one stderr line."""


def _jobs_from_env(value: Optional[int]) -> int:
    if value is None:
        env = os.environ.get("GITFANKIT_JOBS")
        try:
            value = int(env) if env else 1
        except ValueError:
            raise UsageError(f"GITFANKIT_JOBS must be an integer (got {env!r})") from None
        if value < 1:
            raise UsageError(f"GITFANKIT_JOBS must be at least 1 (got {value})")
    elif value < 1:
        raise UsageError(f"--jobs must be at least 1 (got {value})")
    return value


def _check_output_path(path: str) -> None:
    """Fail before any computation when ``path`` cannot take the payload; the
    file itself is neither created nor truncated here."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(code)}")


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise UsageError(f"cannot write {args.output}: {err.strerror}") from None
    elif args.format == "json":
        args.payload_stream.write(text)


def fan_payload(fan: Fan, n: int) -> dict:
    """JSON fan format: integer-string rays, cones as sorted ray indices."""
    rays = list(fan.rays)
    index = {r: i for i, r in enumerate(rays)}
    cones = []
    for c in sorted(fan.maximal, key=lambda c: c.rays):
        entry: dict = {"rays": sorted(index[r] for r in c.rays)}
        if c.lineality:
            entry["lineality"] = [[str(x) for x in l] for l in c.lineality]
        cones.append(entry)
    return {
        "n": n,
        "rays": [[str(x) for x in r] for r in rays],
        "cones": cones,
    }


def _guard_check(key: str, what: str, n: int, force: bool, skip: bool = False) -> bool:
    """True when n lies in the domain and size guard of ``key`` in
    ``GUARDS``; warns when forcing past a guard.  A refusal prints one line:
    an error on stderr, or with ``skip`` a "skipped" line on stdout."""
    lo, hi = GUARDS[key]
    if lo <= n <= hi:
        return True
    if n > hi and force:
        print(
            f"warning: forcing {what} past its guard (n={n} > {hi}); "
            "expect a long run",
            file=sys.stderr,
        )
        return True
    if skip:
        lift = "; --force lifts the maximum" if n > hi else ""
        print(f"{key}: skipped (n={n} outside {lo}..{hi}{lift})")
    elif n < lo:
        print(f"{what} needs n >= {lo} (got {n})", file=sys.stderr)
    else:
        print(f"guard: {what} needs n <= {hi} (got {n}); use --force", file=sys.stderr)
    return False


def cmd_ysets(args) -> int:
    n = args.n
    if not _guard_check("ysets", "ysets", n, args.force) or (
        args.oracle and not _guard_check("oracle", "ysets --oracle", n, args.force)
    ):
        return EXIT_USAGE
    # mask bits ascend in canonical pair order, which is sorted order
    all_pairs, _ = gr.pairs(n)
    labels = [f"{i},{j}" for i, j in all_pairs]
    masks = gr.y_set_masks(n)
    payload = {
        "n": n,
        "count": len(masks),
        "ysets": [[s for k, s in enumerate(labels) if m >> k & 1] for m in masks],
    }
    print(f"n={n}: {len(masks)} Y-sets")
    if args.oracle:
        brute = set(gr.brute_force_supports(n))
        equal = brute == set(masks)
        payload["oracle"] = {"count": len(brute), "equal": equal}
        print(f"equal: {str(equal).lower()}")
        if not equal:
            _emit(payload, args)
            return EXIT_CLAIM_FAILED
    _emit(payload, args)
    return EXIT_OK


def _build_fan(which: str, n: int) -> Fan:
    return FANS[which](n)


def cmd_fan(args) -> int:
    n = args.n
    if not _guard_check(args.which, f"fan {args.which}", n, args.force):
        return EXIT_USAGE
    fan = _build_fan(args.which, n)
    payload = fan_payload(fan, n)
    print(
        f"fan {args.which} n={n}: {len(fan.rays)} rays, "
        f"{len(fan.maximal)} maximal cones"
    )
    _emit(payload, args)
    return EXIT_OK


def _run_claim(claim: str, n: int, seed: int, jobs: int) -> dict:
    return CLAIMS[claim](n, seed, jobs)


def cmd_verify(args) -> int:
    n = args.n
    every = args.claim == "all"
    reports = []
    for claim in CLAIMS if every else [args.claim]:
        if not _guard_check(claim, f"verify {claim}", n, args.force, skip=every):
            if every:
                continue
            return EXIT_USAGE
        t0 = time.perf_counter()
        try:
            rep = _run_claim(claim, n, args.seed, args.jobs)
        except (FanAxiomViolation, AssertionError, ValueError) as err:
            print(f"internal validation failure in {claim}: {err}", file=sys.stderr)
            return EXIT_INTERNAL
        elapsed = time.perf_counter() - t0
        reports.append(rep)
        print(f"{claim}: {'pass' if rep['result'] else 'FAIL'} ({elapsed:.1f}s)")
    payload = reports[0] if len(reports) == 1 else {"n": n, "reports": reports}
    _emit(payload, args)
    return EXIT_OK if all(r["result"] for r in reports) else EXIT_CLAIM_FAILED


def cmd_centers(args) -> int:
    n = args.n
    if not _guard_check("centers", "centers", n, args.force):
        return EXIT_USAGE
    try:
        block = sorted({int(x) for x in args.block.split(",")})
    except ValueError:
        print("block must be a comma-separated list of indices", file=sys.stderr)
        return EXIT_USAGE
    if len(block) < 2 or not set(block) <= set(range(2, n + 1)):
        print(
            f"block must be a subset of {{2..{n}}} with at least two elements",
            file=sys.stderr,
        )
        return EXIT_USAGE
    nu = gfan.nu_vector(block, n)
    sigma0 = gfan.sigma_fan_cached(n, 0)
    ideal = gfan.center_ideal(sigma0, nu, n)
    displayed = gfan.center_pullback(block, n)
    extra = sorted(set(ideal.pullback_generators) - set(displayed))
    payload = {
        "n": n,
        "block": block,
        "nu": [str(x) for x in nu],
        "carrier_pairs": [f"{i},{j}" for i, j in ideal.carrier_pairs],
        "alphas": list(ideal.alphas),
        "c": ideal.c,
        "exponents": [list(e) for e in ideal.exponents],
        "pullback": list(ideal.pullback_generators),
        "displayed": displayed,
        "extra": extra,
    }
    print(f"nu = {nu}")
    print(f"carrier: {ideal.carrier_pairs}  alphas: {ideal.alphas}  c: {ideal.c}")
    print(f"pullback:  {{{', '.join(ideal.pullback_generators)}}}")
    print(f"displayed: {{{', '.join(displayed)}}}")
    print(f"extra: {', '.join(extra) if extra else '(none)'}")
    _emit(payload, args)
    return EXIT_OK


def cmd_poset(args) -> int:
    n = args.n
    if not _guard_check(args.which, f"poset {args.which}", n, args.force):
        return EXIT_USAGE
    fan = _build_fan(args.which, n)
    poset = sl.face_poset(fan)
    payload = poset.dump()
    payload["n"] = n
    payload["fan"] = args.which
    print(
        f"face poset of {args.which} n={n}: {len(poset)} elements, "
        f"{len(payload['hasse'])} cover relations"
    )
    _emit(payload, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gitfankit",
        description="Exact GIT-fan and blow-up combinatorics of Gr(2, n+1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-n", type=int, required=True, help="number of marked points")
        p.add_argument("--output", "-o", help="write the JSON payload to a file")
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--force", action="store_true", help="override size guards")
        p.add_argument("--jobs", type=int, default=None, help="worker processes")

    p = sub.add_parser("ysets", help="enumerate Y-sets, optionally against the oracle")
    common(p)
    p.add_argument("--oracle", action="store_true", help="compare with brute force")
    p.set_defaults(func=cmd_ysets)

    p = sub.add_parser("fan", help="compute and export a fan")
    p.add_argument("which", choices=list(FANS))
    common(p)
    p.set_defaults(func=cmd_fan)

    p = sub.add_parser("verify", help="run verification claims")
    p.add_argument("claim", choices=[*CLAIMS, "all"])
    common(p)
    p.add_argument("--seed", type=int, default=2024, help="seed of the randomised sweeps")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("centers", help="blow-up center ideal of a block")
    common(p)
    p.add_argument("-A", "--block", required=True, help="comma separated block, e.g. 2,3")
    p.set_defaults(func=cmd_centers)

    p = sub.add_parser("poset", help="dump the face poset of a fan")
    p.add_argument("which", choices=list(FANS))
    common(p)
    p.set_defaults(func=cmd_poset)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.n < 2:
        print("need n >= 2", file=sys.stderr)
        return EXIT_USAGE
    try:
        args.jobs = _jobs_from_env(args.jobs)
        if args.output:
            _check_output_path(args.output)
        args.payload_stream = sys.stdout
        if args.format == "json" and not args.output:
            # stdout carries the payload alone; summary lines go to stderr
            with contextlib.redirect_stdout(sys.stderr):
                return args.func(args)
        return args.func(args)
    except UsageError as err:
        print(err, file=sys.stderr)
        return EXIT_USAGE
    # the inputs were validated above, so a ValueError from the library is
    # internal too
    except (FanAxiomViolation, AssertionError, ValueError) as err:
        print(f"internal validation failure: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
