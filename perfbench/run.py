"""Run one benchmark workload and print its result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig10_sora_firm --seed 1 \
        --seconds 40 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the untraced measurement plus the traced passes and
prints every per-layer metric. The last line of standard output is the
JSON result: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

WORKLOADS = ("fig10_sora_firm", "service_scrape_1k", "service_traces")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the timed window of the service "
                             "workloads; the DES simulates its fixed-length "
                             "scenario as often as fits in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = pathlib.Path(__file__).resolve().parent.parent
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from perfbench import common

    common.require_source()
    trace = bool(args.trace)
    if args.workload == "fig10_sora_firm":
        from perfbench import des

        result = des.run_workload(args.seed, args.seconds, trace)
    else:
        from perfbench import service

        result = service.run_workload(args.workload, args.seed,
                                      args.seconds, trace)
    section = "per_layer" if trace else "end_to_end"
    result.emit(name for name, _unit in common.declared_metrics(section))
    return 0


if __name__ == "__main__":
    sys.exit(main())
