"""Run ``repro serve`` from a source tree, optionally recording layer spans.

Usage::

    python daemon.py --src <checkout>/src --rss-out FILE [--spans-out FILE] \
        -- <serve args>

Once the daemon has drained after SIGTERM, its peak RSS (its own plus
its largest child's, in KiB) is written to the ``--rss-out`` file as
``{"peak_kb": N}``.

With ``--spans-out`` the daemon's layer boundaries (graph build, trace
cache, plan, replay, summarize, ledger) are wrapped by the benchmark's
tracer, and every span is written to ``FILE`` as JSON once the daemon
has drained.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--rss-out", required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    sys.path.insert(0, args.src)

    tracer = None
    if args.spans_out:
        from tracing import Tracer, install_layer_patches

        tracer = Tracer()
        install_layer_patches(tracer)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    if tracer is not None:
        tracer.restore()
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump([s.as_dict() for s in tracer.spans], handle)
    peak_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    with open(args.rss_out, "w", encoding="utf-8") as handle:
        json.dump({"peak_kb": peak_kb}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
