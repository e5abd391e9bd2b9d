"""Benchmark-owned server entry point for the traced service runs.

Usage: ``python -m perfbench.traced_serve SPANS.json serve [flags...]``.
Wraps the layers named in :data:`perfbench.layers.SERVICE_HOOKS`, then
runs the same ``repro serve`` command line the untraced runs spawn.
Spans stay in memory until the server shuts down and are then written
to ``SPANS.json``; the wrappers are removed before the process exits.
"""

from __future__ import annotations

import json
import pathlib
import sys

from perfbench import common, layers


def main(argv: list[str]) -> int:
    spans_path = pathlib.Path(argv[0])
    common.require_source()
    # Import every module that binds a hooked function by name, so the
    # probe can rebind it there too.
    from repro import cli
    import repro.service.api  # noqa: F401
    import repro.service.ingest  # noqa: F401

    probe = layers.Probe(layers.SERVICE_HOOKS).install()
    try:
        return cli.main(argv[1:])
    finally:
        probe.restore()
        spans_path.write_text(json.dumps(
            {"absent": sorted(probe.absent), "spans": probe.spans}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
