"""Where the traced run cuts the program into layers, and what it reports.

:func:`install` wraps each layer's public functions at the binding its
caller looks up; :func:`per_layer` turns the recorded spans, counters,
operations and cost ledgers into the per-layer metrics named in
``BENCHMARK.json``.  Time metrics sum the traced set-up and the traced
operations, so the index build shows in the service layers; answer
counts, the dispatcher's density and the real-vs-modelled calibration
(the ledger is diffed per operation) cover traced operations only.
"""

from __future__ import annotations

import inspect

import numpy as np

from spans import has_ancestor, outermost, self_times

KERNELS = ("outer", "blocked", "bitpacked")

#: Ledger phase -> the spans whose real time the phase models.
PHASES = {
    "read": {"core.read"},
    "filter": {"core.filter"},
    "pack": {"core.pack"},
    "spgemm": {"sparse.gram"},
    "query": {"service.query", "service.sharded.query"},
    "query_batch": {"service.batch"},
}

QUERY_KINDS = ("query", "batch")


def _count_bases(tracer, args, kwargs, out):
    tracer.count("genomics.bases", sum(len(r.sequence) for r in out))


def _count_kmers(tracer, args, kwargs, out):
    tracer.count("genomics.kmers_kept", out[0].size)


def _count_rows(tracer, args, kwargs, out):
    tracer.count("core.rows_kept", out.n_nonzero_rows)
    tracer.count("core.rows_total", out.n_batch_rows)


def _count_density(tracer, args, kwargs, out):
    if tracer.op is not None:  # a set-up warm-up job is not the workload
        tracer.count("sparse.density_sum", out.density)
        tracer.count("sparse.decisions")


def _count_frame(tracer, args, kwargs, out):
    frame = args[0]
    tracer.count("runtime.bytes_decoded", getattr(frame, "nbytes", None) or len(frame))


def _count_written(tracer, args, kwargs, out):
    tracer.count(f"store.bytes_written.{tracer.kind}", len(args[1]))


def bindings():
    """``(owner, attribute, span name, counter)`` for every traced call."""
    import repro.core.indicator as indicator
    import repro.core.similarity as similarity
    import repro.genomics.pipeline as pipeline
    import repro.runtime.codec as codec
    import repro.service.api as api
    import repro.service.batch as batch
    import repro.service.incremental as incremental
    import repro.service.query as query
    import repro.service.sharded as sharded
    import repro.service.store as store
    from repro.genomics.samples import SampleStore

    out = [
        (pipeline, "read_fasta", "genomics.read_fasta", _count_bases),
        (pipeline, "clean_sample", "genomics.clean", _count_kmers),
        (SampleStore, "add_sample", "genomics.sample_write", None),
        (similarity.SimilarityAtScale, "run", "core.run", None),
        (similarity, "distribute_and_pack", "core.pack", None),
        (similarity, "choose_kernel", "sparse.dispatch", _count_density),
        (similarity, "summa_gram_2d", "sparse.gram", None),
        (similarity, "gram_1d_allreduce", "sparse.gram", None),
        (batch, "gram_popcount_blocked", "sparse.kernel.blocked", None),
        (incremental, "gram_popcount_blocked", "sparse.kernel.blocked", None),
        (store, "read_record", "service.store.read", None),
        (store, "read_records", "service.store.read", None),
        (store, "write_records", "service.store.write", None),
        (store, "_atomic_write_bytes", "service.store.file_write", _count_written),
        (store.IndexStore, "compact", "service.store.compact", None),
        (sharded.ShardedStore, "compact", "service.store.compact", None),
        (query.SimilarityIndex, "query_values", "service.query", None),
        (query.ShardedSimilarityIndex, "query_values", "service.sharded.query", None),
        (query, "sketch_estimates", "service.query.sketch", None),
        (batch, "sketch_estimates", "service.query.sketch", None),
        (query, "exact_jaccard", "service.query.verify", None),
        (query, "merge_shard_results", "service.sharded.merge", None),
        (api, "merge_shard_results", "service.sharded.merge", None),
        (batch.QueryBatcher, "query_many", "service.batch", None),
        (store.StoreSnapshot, "load_values", "service.batch.load", None),
        (api, "add_genomes", "service.incremental.add", None),
    ]
    for cls in (indicator.SetSource, indicator.CooSource, indicator.FileSource,
                indicator.SyntheticSource):
        out.append((cls, "read_batch", "core.read", None))
    for mod in (similarity, incremental):
        out.append((mod, "apply_filter", "core.filter", _count_rows))
        out.append((mod, "distribute_and_pack_1d", "core.pack", None))
    for mod in (codec, store):
        out.append((mod, "encode_frame", "runtime.encode", None))
        out.append((mod, "decode_frame", "runtime.decode", _count_frame))
    for meth in ("query", "query_batch", "add"):
        out.append((api.SimilarityService, meth, "service.api", None))
    return out


def install(tracer) -> list[str]:
    """Wrap every binding; returns the ones the program no longer has."""
    from repro.sparse.dispatch import GRAM_KERNELS

    missing = []
    for owner, attr, name, counter in bindings():
        found = (
            inspect.getattr_static(owner, attr, None) is not None
            if isinstance(owner, type)
            else hasattr(owner, attr)
        )
        if found:
            tracer.wrap(owner, attr, name, counter)
        else:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    for kernel in KERNELS:
        if kernel in GRAM_KERNELS:
            tracer.wrap_entry(GRAM_KERNELS, kernel, f"sparse.kernel.{kernel}")
        else:
            missing.append(f"GRAM_KERNELS[{kernel!r}]")
    return missing


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(tracer, outcome, primary: str) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see ``BENCHMARK.json``).

    The difference between the medians of the traced and the untraced
    primary operations is the tracing overhead.
    """
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    c = tracer.counters

    def total(*names, ops_only=False):
        return sum(
            s.end - s.start
            for s in outermost(spans, set(names))
            if not ops_only or s.op is not None
        )

    def self_total(name):
        return sum(t for s, t in zip(spans, selfs) if s.name == name)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    m: dict[str, float] = {}
    m["genomics.fasta_read_s"] = total("genomics.read_fasta")
    m["genomics.clean_s"] = total("genomics.clean")
    m["genomics.sample_write_s"] = total("genomics.sample_write")
    m["genomics.bases_per_s"] = _ratio(
        c.get("genomics.bases", 0), m["genomics.fasta_read_s"] + m["genomics.clean_s"]
    )
    m["genomics.kmers_kept"] = c.get("genomics.kmers_kept", 0)

    m["core.read_s"] = total("core.read")
    m["core.filter_s"] = total("core.filter")
    m["core.pack_s"] = total("core.pack")
    m["core.rows_kept_frac"] = _ratio(c.get("core.rows_kept", 0), c.get("core.rows_total", 0))
    m["core.run_self_s"] = self_total("core.run")

    m["sparse.gram_s"] = total("sparse.gram")
    for k in KERNELS:
        m[f"sparse.kernel_s.{k}"] = total(f"sparse.kernel.{k}")
        m[f"sparse.kernel_calls.{k}"] = calls(f"sparse.kernel.{k}")
    m["sparse.batch_density"] = _ratio(c.get("sparse.density_sum", 0), c.get("sparse.decisions", 0))

    m["runtime.encode_s"] = total("runtime.encode")
    m["runtime.decode_s"] = total("runtime.decode")
    m["runtime.frames_decoded"] = calls("runtime.decode")
    m["runtime.bytes_decoded"] = c.get("runtime.bytes_decoded", 0)

    # Real vs modelled per ledger phase, over timed operations.  The
    # border Gram of an add runs its kernels outside SUMMA, under the
    # ledger's "spgemm" phase, so those kernel spans count there too.
    ops = [o for o in outcome.ops if o.traced and o.kind != "job"]
    m["runtime.modelled_s"] = sum(o.modelled for o in ops)
    border = sum(
        s.end - s.start
        for s in spans
        if s.name.startswith("sparse.kernel.") and s.op is not None
        and not has_ancestor(by_id, s, {"sparse.gram", "service.batch", "service.query"})
    )
    for phase, names in PHASES.items():
        real = total(*names, ops_only=True) + (border if phase == "spgemm" else 0.0)
        modelled = sum(o.phases.get(phase, 0.0) for o in ops)
        m[f"runtime.real_s.{phase}"] = real
        m[f"runtime.modelled_s.{phase}"] = modelled
        m[f"runtime.real_over_modelled.{phase}"] = _ratio(real, modelled)

    answers = [r for traced, r in outcome.results if traced]
    queries = [r for r in answers if not r.from_cache]
    batched = [r for r in queries if r.batch_size > 1]
    n_queries = len(answers)
    query_decodes = sum(
        1 for s in spans if s.name == "runtime.decode" and s.kind in QUERY_KINDS
    )
    m["service.store.read_s"] = total("service.store.read")
    m["service.store.frames_per_query"] = _ratio(query_decodes, n_queries)
    m["service.store.write_s"] = total("service.store.write")
    m["service.store.write_amplification"] = _ratio(
        c.get("store.bytes_written.add", 0),
        outcome.stats.get("traced_added_value_bytes", 0),
    )
    m["service.store.compact_s"] = total("service.store.compact")
    m["service.store.bytes_rewritten"] = c.get("store.bytes_written.compact", 0)
    m["service.store.space_per_live_byte"] = _ratio(
        outcome.stats.get("store_bytes", 0), outcome.stats.get("live_value_bytes", 0)
    )

    m["service.query.self_s"] = self_total("service.query")
    m["service.query.sketch_s"] = total("service.query.sketch")
    m["service.query.verify_s"] = total("service.query.verify")
    m["service.query.candidates_per_query"] = _ratio(
        sum(r.n_candidates for r in queries), len(queries)
    )
    m["service.query.verified_per_query"] = _ratio(
        sum(r.n_verified for r in queries), len(queries)
    )
    m["service.query.matches_per_verified"] = _ratio(
        sum(len(r.matches) for r in queries), sum(r.n_verified for r in queries)
    )

    m["service.batch.s"] = total("service.batch")
    m["service.batch.load_s"] = total("service.batch.load")
    m["service.batch.verified_per_query"] = _ratio(
        sum(r.n_verified for r in batched), len(batched)
    )

    m["service.cache.hit_rate"] = _ratio(
        outcome.stats.get("cache_hits", 0), outcome.stats.get("cache_lookups", 0)
    )
    m["service.cache.lookups"] = outcome.stats.get("cache_lookups", 0)

    fan_outs = [s for s in spans if s.name == "service.sharded.query"]
    band_calls = sum(
        1 for s in spans
        if s.name == "service.query" and s.parent is not None
        and by_id[s.parent].name == "service.sharded.query"
    )
    m["service.sharded.bands_per_query"] = _ratio(band_calls, len(fan_outs))
    m["service.sharded.merge_s"] = total("service.sharded.merge")
    m["service.incremental.add_s"] = total("service.incremental.add")
    m["service.api.self_s"] = self_total("service.api")

    traced = outcome.seconds(primary, traced=True)
    plain = outcome.seconds(primary, traced=False)
    if traced.size and plain.size:
        over = float(np.median(traced) - np.median(plain))
        m["trace.overhead_ms"] = 1e3 * over
        m["trace.overhead_frac"] = over / float(np.median(plain))
    else:
        m["trace.overhead_ms"] = m["trace.overhead_frac"] = 0.0
    m["trace.spans"] = len(spans)
    return {k: float(v) for k, v in m.items()}
