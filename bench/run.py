"""gitfankit benchmark: cold CLI processes, end-to-end and per-layer metrics.

usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gitfankit checkout.  Each workload is a fixed list of
``gitfankit`` invocations (one round); the benchmark runs whole rounds until
the invocations have taken at least S seconds, checks every payload with the
exact code in ``checks.py``, and prints one JSON object as its last line.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the same invocations with the layers wrapped (``tracer.py``) and
reports the per-layer metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 5
STDERR_TAIL_LINES = 6


@dataclass(frozen=True)
class Invocation:
    """One gitfankit command line; without ``payload`` it writes no -o file
    and is checked by its exit code alone (the contract probe)."""

    key: str
    args: list
    payload: bool = True


def workloads(seed: int) -> dict[str, tuple[list[Invocation], list[Invocation]]]:
    """workload -> (timed invocations of one round, untimed reference runs)."""
    return {
        "battery-n4": (
            [
                Invocation("battery", ["verify", "all", "-n", "4", "--seed", str(seed)]),
                # contract probe (checks.check_probe): a claim outside its
                # domain must exit 2
                Invocation("probe", ["verify", "delta-subfan", "-n", "2"], payload=False),
            ],
            [],
        ),
        # sigmar -n 5 takes about 70 s a run, too long for a benchmark that
        # is repeated dozens of times per comparison; BENCHMARK.json names
        # sigmar-n4, which runs the same stellar code path.  sigmar-n5 stays
        # runnable by name for claims made at n=5.
        **{
            f"sigmar-n{n}": (
                [Invocation("sigmar", ["fan", "sigmar", "-n", str(n)])],
                [Invocation("sigma1", ["fan", "sigma1", "-n", str(n)])],
            )
            for n in (4, 5)
        },
        "poset-n5": (
            [
                Invocation("poset", ["poset", "gitfan", "-n", "5"]),
                Invocation("ysets", ["ysets", "-n", "6"]),
            ],
            [Invocation("gitfan", ["fan", "gitfan", "-n", "5"])],
        ),
    }


@dataclass
class Result:
    inv: Invocation
    rc: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    setup_s: Optional[float] = None
    rss_mb: float = 0.0
    payload_bytes: Optional[bytes] = None
    stderr: str = ""
    trace: Optional[dict] = None


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("GITFANKIT_JOBS", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def spawn(root: str, work: str, inv: Invocation, deadline: float, trace: bool) -> Result:
    """Run one cold CLI process; time it from spawn to exit and to import."""
    res = Result(inv)
    stamp = os.path.join(work, f"{inv.key}.stamp")
    out = os.path.join(work, f"{inv.key}.json")
    trace_path = os.path.join(work, f"{inv.key}.trace.json") if trace else "-"
    argv = list(inv.args)
    if argv:
        argv += ["--jobs", "1"] + (["-o", out] if inv.payload else [])
    for path in (stamp, out, trace_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), stamp, trace_path, "--"] + argv
    with open(os.path.join(work, f"{inv.key}.stdout"), "wb") as fo, open(
        os.path.join(work, f"{inv.key}.stderr"), "wb"
    ) as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=fo, stderr=fe)
        timer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    res.rc = proc.returncode
    res.wall_s = t1 - t0
    res.rss_mb = usage.ru_maxrss / 1024.0
    res.cpu_s = usage.ru_utime + usage.ru_stime
    if os.path.exists(stamp):
        with open(stamp) as fh:
            res.setup_s = float(fh.read()) - t0
    with open(os.path.join(work, f"{inv.key}.stderr"), errors="replace") as fh:
        res.stderr = fh.read()
    if inv.payload and os.path.exists(out):
        with open(out, "rb") as fh:
            res.payload_bytes = fh.read()
    if trace and os.path.exists(trace_path):
        with open(trace_path) as fh:
            res.trace = json.load(fh)
    return res


def source_fingerprint(root: str) -> str:
    """Hash of the package source: stored payloads belong to one program."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "gitfankit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def stored_path(store: str, inv: Invocation) -> str:
    digest = hashlib.sha256(" ".join(inv.args).encode()).hexdigest()[:12]
    return os.path.join(store, f"{inv.key}-{digest}.json")


def first_payload(store: str, res: Result) -> bytes:
    """The payload of the first run of this invocation; stores it if new."""
    path = stored_path(store, res.inv)
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(res.payload_bytes)
        os.replace(tmp, path)
    with open(path, "rb") as fh:
        return fh.read()


def reference_payload(root: str, work: str, store: str, inv: Invocation, deadline: float):
    """Untimed reference output, computed once per program version; None
    when the reference run fails."""
    path = stored_path(store, inv)
    if not os.path.exists(path):
        res = spawn(root, work, inv, deadline, trace=False)
        if res.rc != 0 or res.payload_bytes is None:
            print(f"FAILED reference {' '.join(inv.args)}: exit {res.rc}; stderr: {tail(res.stderr)}")
            return None
        first_payload(store, res)
    with open(path) as fh:
        return json.load(fh)


def tail(text: str) -> str:
    return " | ".join(text.strip().splitlines()[-STDERR_TAIL_LINES:])


def run_round(root, work, store, invs, refs, workload, seed, deadline, trace, first_round):
    """One round: the invocations, their checks and the operation count."""
    results = [spawn(root, work, inv, deadline, trace) for inv in invs]
    failed = 0
    problems: list[str] = []
    payloads = dict(refs)
    for res in results:
        op = f"{workload} {' '.join(res.inv.args)}"
        # a broken exit-code contract or a crash fails the operation; only a
        # wrong payload also makes the run incorrect
        if res.inv.payload:
            broken = [f"exit {res.rc}"] if res.rc != 0 else []
        else:
            broken = checks.check_probe(res.rc, res.stderr)
        if broken:
            failed += 1
            print(f"FAILED {op}: {'; '.join(broken)}; stderr: {tail(res.stderr)}")
            continue
        if not res.inv.payload:
            continue
        if res.payload_bytes is None:
            bad = ["no payload written"]
        elif res.payload_bytes != first_payload(store, res):
            bad = ["payload differs from the first run of this invocation and seed"]
        else:
            payloads[res.inv.key] = json.loads(res.payload_bytes)
            bad = []
        if bad:
            failed += 1
            problems.extend(f"{op}: {b}" for b in bad)
            print(f"FAILED {op}: {'; '.join(bad)}; stderr: {tail(res.stderr)}")
    missing = [key for key, ref in refs.items() if ref is None]
    problems.extend(f"reference payload {key} is missing" for key in missing)
    keys = {inv.key for inv in invs if inv.payload} | refs.keys()
    if not missing and keys <= payloads.keys():
        bad = checks.check_payloads(workload, payloads, seed)
        if bad:
            failed += 1
            problems.extend(bad)
            print(f"FAILED {workload} payload checks: {'; '.join(bad[:5])}")
        elif first_round:
            missed = checks.self_test(workload, payloads, seed)
            problems.extend(f"checker accepted corrupted payload {m}" for m in missed)
    return results, failed, problems


def median(xs):
    return statistics.median(xs) if xs else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gitfankit", "cli.py")):
        print("no gitfankit source under ./src: run from the root of a checkout", file=sys.stderr)
        return 2
    table = workloads(args.seed)
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    invs, ref_invs = table[args.workload]
    trace = bool(args.trace)

    # "build": byte-compile the package so no timed process compiles it
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    base = os.path.join(root, ".bench_work")
    store = os.path.join(base, source_fingerprint(root))
    work = os.path.join(base, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(store, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    try:
        refs = {inv.key: reference_payload(root, work, store, inv, deadline) for inv in ref_invs}
        setup_samples = []
        if not trace:
            probe = Invocation("setup-probe", [], payload=False)
            for _ in range(SETUP_PROBES):
                res = spawn(root, work, probe, deadline, trace=False)
                if res.rc == 0 and res.setup_s is not None:
                    setup_samples.append(res.setup_s)
        rounds = []
        attempted = failed = 0
        problems: list[str] = []
        measured = 0.0
        while not rounds or measured < args.seconds:
            results, n_failed, bad = run_round(
                root, work, store, invs, refs, args.workload, args.seed, deadline, trace, not rounds
            )
            rounds.append(results)
            attempted += len(invs)
            failed += n_failed
            problems.extend(bad)
            round_wall = sum(r.wall_s for r in results)
            measured += round_wall
            print(f"round {len(rounds)}: " + ", ".join(f"{r.inv.key} {r.wall_s:.3f}s (cpu {r.cpu_s:.3f}s) rc={r.rc}" for r in results))
            if time.perf_counter() + round_wall > deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload}: attempted {attempted} failed {failed} in {len(rounds)} round(s)")
    for p in problems:
        print(f"PROBLEM {p}")
    walls = [sum(r.wall_s for r in rs) for rs in rounds]
    if trace:
        per_round = [[r.trace for r in rs if r.trace is not None] for rs in rounds]
        layer = [tracer.layer_metrics(s) for s in per_round]
        metrics = {
            name: {"value": statistics.median_low([m[name]["value"] for m in layer]), "unit": layer[0][name]["unit"]}
            for name in layer[0]
        }
        spans = sum(s["spans"] for s in per_round[0])
        print(f"traced wall_s {median(walls):.3f} (median of {len(walls)} rounds), {spans} spans per round")
    else:
        for rs in rounds:
            setup_samples.extend(r.setup_s for r in rs if r.setup_s is not None)
        metrics = {
            "wall_s": {"value": median(walls), "unit": "s"},
            "setup_s": {"value": len(invs) * median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for rs in rounds for r in rs), "unit": "MiB"},
        }
        print(f"wall_s per round: {[round(w, 3) for w in walls]}; {len(setup_samples)} set-up samples")
    line = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
