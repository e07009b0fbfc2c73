#!/usr/bin/env python3
"""Real wall-clock benchmark of the repository, one workload per process.

    python3 perfbench/run.py --workload allpairs --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the checkout that holds this file, and every file the run writes
stays under ``.bench_work/`` (removed on exit) and ``.bench_out/``
(span dumps of traced runs).  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sets up
once with every layer's public functions wrapped (see ``layers.py``),
then runs every second operation of each kind wrapped and the rest
plain, and reports the per-layer metrics of the wrapped ones plus the
tracing overhead (wrapped minus plain median).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import layers
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("allpairs", "serve_dense", "mixed_sharded"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="sets the operation counts (about this many "
                        "seconds of measured work on a 2-core x86 host)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else float("nan")


def median(values) -> float:
    return percentile(values, 50)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def one_pass(workload, work: Path, counts: dict, setups: int, tracer=None):
    """Set up ``setups`` times (keeping the last), then drive the workload.

    With a ``tracer`` the set-up runs traced, and then every second op
    of each kind (see :class:`workloads.Client`).
    """
    install = None if tracer is None else (lambda: layers.install(tracer))
    client = workloads.Client(tracer, install)
    for i in range(setups):
        where = work / f"setup{i}"
        state = None  # release the previous set-up before the next
        gc.collect()
        t0 = time.perf_counter()
        workload.generate(where)
        if tracer is not None:
            client.out.stats["missing_bindings"] = install()
        try:
            state = workload.build(where)
        finally:
            if tracer is not None:
                tracer.uninstall()
        client.out.setup_s.append(time.perf_counter() - t0)
        if i + 1 < setups:
            shutil.rmtree(where, ignore_errors=True)
    workload.drive(state, client, counts)
    return client.out


def end_to_end(out, workload) -> dict:
    """The end-to-end metrics of one untraced pass."""
    primary = out.seconds(workload.primary) * 1e3
    bulk = out.seconds(workload.bulk) * 1e3
    return {
        "setup_s": (median(out.setup_s), "s"),
        "op_ms_mean": (float(np.mean(primary)), "ms"),
        "op_ms_p95": (percentile(primary, 95), "ms"),
        "batch_ms_mean": (float(np.mean(bulk)), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def report_end_to_end(name: str, out, workload) -> None:
    """Human-readable lines, in the workload's own terms, real beside modelled."""
    p, b = workload.primary, workload.bulk
    prim, bulk = out.seconds(p), out.seconds(b)
    print(f"== {name}: {out.attempted} ops attempted, {out.failed} failed "
          f"({out.wrong} with a wrong value)")
    print(f"   setup_s        {median(out.setup_s):10.3f} s   "
          f"(median of {len(out.setup_s)} set-ups)")
    labels = {
        "job": "allpairs_s", "query": "query_ms", "ingest": "ingest_s",
        "batch": "batch_ms", "add": "add_ms",
    }
    for kind, vals in ((p, prim), (b, bulk)):
        scale, unit = (1.0, "s") if kind in ("job", "ingest") else (1e3, "ms")
        modelled = (
            f"modelled {median(out.modelled(kind)) * scale:.6f} {unit}"
            if kind != "ingest" else "not modelled"
        )
        print(f"   {labels[kind] + '_p50':<14} {median(vals) * scale:10.3f} {unit:<3} "
              f"(n={len(vals)}; mean {np.mean(vals) * scale:.3f}; {modelled})")
        if kind == "query":
            print(f"   query_ms_p95   {percentile(vals, 95) * 1e3:10.3f} ms")
    if b == "batch" and bulk.size:
        print(f"   batch_qps      {32 * bulk.size / bulk.sum():10.2f} queries/s")
    print(f"   peak_rss_mb    {peak_rss_mb():10.1f} MB")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {src}/repro; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    cls = workloads.WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            tracer = Tracer()
            out = one_pass(cls(args.seed, work), work, cls.counts(args.seconds), 1, tracer)
            metrics = layers.per_layer(tracer, out, cls.primary)
            tracer.dump(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json")
            missing = out.stats.get("missing_bindings", [])
            print(f"== {args.workload} traced: {len(tracer.spans)} spans, "
                  f"overhead {metrics['trace.overhead_ms']:.3f} ms "
                  f"({100 * metrics['trace.overhead_frac']:.1f}%) on the "
                  f"{cls.primary} median")
            if missing:
                print(f"   not traced (binding gone): {', '.join(missing)}")
            for k, v in metrics.items():
                print(f"   {k:<42} {v:.6g}")
            units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
            out_metrics = {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}
        else:
            workload = cls(args.seed, work)
            out = one_pass(workload, work, cls.counts(args.seconds), cls.setups)
            report_end_to_end(args.workload, out, cls)
            out_metrics = {
                k: {"value": v, "unit": u}
                for k, (v, u) in end_to_end(out, cls).items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": out_metrics,
    }))
    return 0


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


if __name__ == "__main__":
    sys.exit(main())
