"""One cold gitfankit CLI process, as the ``gitfankit`` console script runs it.

usage: python3 bench/child.py STAMP TRACE -- [CLI ARGS...]

Writes the monotonic clock right after ``gitfankit.cli`` is imported to
STAMP, so the parent can time set-up from its own spawn time.  With no CLI
arguments the process only imports (a set-up probe).  When TRACE is not
``-``, the layers are wrapped before ``cli.main`` runs, and the spans go to
TRACE + ".spans.tsv" and their summary to TRACE as JSON, also when the
command raises.
"""

import sys
import time


def main() -> int:
    stamp, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    from gitfankit import cli

    imported = time.perf_counter()
    with open(stamp, "w") as fh:
        fh.write(repr(imported))
    if not argv:
        return 0
    if trace == "-":
        return cli.main(argv)
    import json

    import tracer

    spans = tracer.install()
    try:
        return cli.main(argv)
    finally:
        summary = spans.dump(trace + ".spans.tsv")
        with open(trace, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
