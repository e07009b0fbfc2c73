"""The benchmark's three workloads and its one closed-loop client.

Every input comes from the repository's own generators
(:mod:`repro.genomics.simulate`, :class:`repro.core.indicator.SyntheticSource`)
seeded by ``--seed``; the program only ever sees the generated inputs.
The client issues its next call only after the previous one returned,
on the default :class:`~repro.runtime.executor.SequentialExecutor`,
and checks each answer against :mod:`reference` outside the timed
region.

* ``allpairs`` — the paper's own job: FASTA files -> canonical k-mer
  sample store -> SUMMA Gram -> similarity matrix (genomics, core,
  sparse, runtime; the service package does nothing).
* ``serve_dense`` — read-mostly, warm threshold queries on a flat index
  in the dense Fig. 2a shape, single calls then batches of 32, a share
  of them repeats so the result cache answers (store read/decode,
  window, sketch, verify, cache; no genomics, no SUMMA).
* ``mixed_sharded`` — writes beside reads on a 4-band quantile sharded
  index in the hypersparse Fig. 2b shape: every cycle adds genomes,
  then queries a store whose version just changed; every 4th cycle
  removes genomes and compacts (border Gram, encode, commits, band
  routing and merge, with cache and per-version state cold).
"""

from __future__ import annotations

import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

#: Threshold of every service query, and the range of true Jaccard the
#: queries are perturbed to: straddling the threshold is what makes the
#: sketch prefilter's pruning decision hard.
THRESHOLD = 0.3
TARGET_J = (0.24, 0.40)
#: Share of ``serve_dense`` queries that repeat one of the last
#: :data:`REPEAT_WINDOW` distinct queries (well inside the default
#: 128-entry result cache).
REPEAT_SHARE = 0.2
REPEAT_WINDOW = 32
BATCH = 32
#: Smallest genome a mixed-workload query is perturbed from: below this
#: a set cannot land near the threshold.
MIN_QUERY_SIZE = 8


@dataclass
class Op:
    """One timed call: its kind, real seconds and modelled cost."""

    kind: str
    seconds: float
    modelled: float = 0.0
    phases: dict = field(default_factory=dict)
    traced: bool = False


@dataclass
class Outcome:
    """Everything one pass over a workload produced."""

    ops: list[Op] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Checked operations whose output held a wrong value (a wrong
    #: similarity, a non-qualifying genome, a bad matrix, a store that
    #: lost or kept the wrong genomes).  A qualifying genome left out of
    #: an answer fails the operation but returns no wrong value.
    wrong: int = 0
    #: ``(traced, QueryResult)`` of every checked query answer.
    results: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def seconds(self, kind: str, traced: bool | None = None) -> np.ndarray:
        return np.array(
            [
                o.seconds for o in self.ops
                if o.kind == kind and traced in (None, o.traced)
            ]
        )

    def modelled(self, kind: str) -> np.ndarray:
        return np.array([o.modelled for o in self.ops if o.kind == kind])


class Client:
    """One closed-loop client: times each call, then checks its answer.

    With a ``tracer``, every second call of each kind runs with the
    layer wrappers installed (``install()`` puts them in, the tracer's
    ``uninstall()`` takes them out) and the others run untraced, so the
    two sets interleave over the same stretch of time.
    """

    def __init__(self, tracer=None, install=None):
        self.tracer = tracer
        self.install = install
        self.out = Outcome()
        self._calls: dict[str, int] = {}
        #: Whether the latest call ran traced; the answers checked next
        #: (a batch's answers included) belong to it.
        self.last_traced = False

    def call(self, kind: str, fn, ledger=None, cost=None):
        """Run ``fn()`` as one timed op; returns ``(output, error)``.

        ``ledger`` (a ``CostLedger``) is diffed around the call, or
        ``cost(output)`` returns the op's own ledger, for the modelled
        seconds shown beside the real ones.
        """
        nth = self._calls.get(kind, 0)
        self._calls[kind] = nth + 1
        traced = self.tracer is not None and nth % 2 == 1
        self.last_traced = traced
        if traced:
            self.install()
            self.tracer.op, self.tracer.kind = len(self.out.ops), kind
        before = ledger.snapshot() if ledger is not None else None
        t0 = time.perf_counter()
        try:
            output, error = fn(), None
        except Exception as exc:  # a raising op is counted, not fatal
            output, error = None, exc
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
            self.tracer.op = None
        if error is not None:
            traceback.print_exception(error, file=sys.stderr)
        spent = None
        if ledger is not None:
            spent = ledger.diff(before)
        elif cost is not None and output is not None:
            spent = cost(output)
        op = Op(kind, seconds, traced=traced)
        if spent is not None:
            op.modelled = spent.simulated_seconds
            op.phases = {n: pc.seconds for n, pc in spent.phases.items()}
        self.out.ops.append(op)
        return output, error

    def verdict(self, error=None, missed=(), wrong=(), what: str = "") -> None:
        """Count one checked op: failed if it raised or was not exact."""
        self.out.attempted += 1
        if error is None and not missed and not wrong:
            return
        self.out.failed += 1
        if wrong:
            self.out.wrong += 1
        if missed or wrong:
            print(
                f"[check] {what}: missed {list(missed)[:4]} "
                f"wrong {list(wrong)[:4]}",
                file=sys.stderr,
            )

    def check_query(self, result, error, query, live, what: str) -> None:
        if error is not None:
            self.verdict(error)
            return
        sims = live.similarities(query)
        want = {n: s for n, s in sims.items() if s >= THRESHOLD}
        got = [(m.name, m.similarity) for m in result.matches]
        missed, wrong = reference.compare_matches(got, want, sims)
        self.out.results.append((self.last_traced, result))
        self.verdict(None, missed, wrong, what)

    def check_live(self, error, store, live, what: str) -> None:
        if error is not None:
            self.verdict(error)
            return
        # A genome lost or kept by mistake is a wrong store state.
        self.verdict(None, (), sorted(set(store.names) ^ set(live.names)), what)


# ---- shared input helpers ------------------------------------------------


def materialize(source) -> list[np.ndarray]:
    """Every sample of an indicator source as a sorted value array."""
    coo = source.read_batch(0, source.m, 0, 1)
    order = np.lexsort((coo.rows, coo.cols))
    rows, cols = coo.rows[order], coo.cols[order]
    bounds = np.searchsorted(cols, np.arange(source.n + 1))
    return [rows[bounds[j] : bounds[j + 1]] for j in range(source.n)]


def _fresh_values(rng, exclude: np.ndarray, count: int, m: int) -> np.ndarray:
    """``count`` distinct values of ``[0, m)`` outside ``exclude``."""
    got = np.empty(0, dtype=np.int64)
    while got.size < count:
        draw = rng.integers(0, m, size=2 * (count - got.size) + 16)
        got = np.concatenate([got, draw])
        got = got[~np.isin(got, exclude)]
        _, first = np.unique(got, return_index=True)
        got = got[np.sort(first)]
    return got[:count]


def perturb(rng, genome: np.ndarray, target: float, m: int) -> np.ndarray:
    """A query of ``genome``'s size whose Jaccard with it is ~``target``.

    Keeps ``s`` of the genome's values and adds ``|g| - s`` fresh ones,
    so ``J = s / (2|g| - s)``.
    """
    keep = int(round(2 * genome.size * target / (1 + target)))
    kept = rng.choice(genome, size=keep, replace=False)
    fresh = _fresh_values(rng, genome, genome.size - keep, m)
    return np.sort(np.concatenate([kept, fresh]))


class QueryStream:
    """Near-threshold queries, a share of them repeats of recent ones."""

    def __init__(self, rng, m: int, repeat_share: float):
        self.rng = rng
        self.m = m
        self.repeat_share = repeat_share
        self.recent: list[np.ndarray] = []

    def next(self, pick) -> np.ndarray:
        """The next query; ``pick(rng)`` chooses the genome to perturb."""
        rng = self.rng
        if self.recent and rng.random() < self.repeat_share:
            window = min(len(self.recent), REPEAT_WINDOW)
            return self.recent[-1 - int(rng.integers(window))]
        query = perturb(rng, pick(rng), rng.uniform(*TARGET_J), self.m)
        self.recent.append(query)
        return query


# ---- workloads -------------------------------------------------------------


class AllPairs:
    """FASTA -> similarity matrix, as ``GenomeAtScale.run_fasta`` runs it.

    Each job calls ``build_store`` then ``run_store`` — exactly the two
    halves ``run_fasta`` composes — so the ingest half is timed too.
    """

    primary, bulk = "job", "ingest"
    #: Set-ups per untraced run (``setup_s`` is their median): cheap
    #: ones are repeated more, the fsync-bound ones vary most.
    setups = 5
    n_genomes, genome_length, k = 128, 20_000, 19
    warmup_genomes = 4
    sampled_pairs = 64

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.n_genomes = max(4, int(self.n_genomes * scale))
        self.genome_length = max(200, int(self.genome_length * scale))
        self._kmers = None

    @staticmethod
    def counts(seconds: float) -> dict:
        return {"jobs": max(1, round(seconds / 10))}

    def generate(self, where: Path):
        from repro.genomics.fasta import write_fasta
        from repro.genomics.sequence import SequenceRecord
        from repro.genomics.simulate import (
            evolve_down_tree,
            kingsford_like,
            random_genome,
            random_phylogeny,
        )
        from repro.util.prng import rng_for

        spec = kingsford_like(self.n_genomes, self.genome_length, seed=self.seed)
        self.names = [f"{spec.name}_{i:04d}" for i in range(spec.n_samples)]
        # As simulate_cohort(spec), except that the phylogeny is always
        # the one kingsford_like's default seed draws: the tree's shape
        # alone moves post-filter density by about 8% between seeds,
        # across the Gram dispatcher's outer/blocked crossover, which
        # made job time bimodal in the seed.  The seed still draws the
        # root genome and every mutation.
        tree = random_phylogeny(
            rng_for(kingsford_like().seed, "tree"), self.names, spec.mean_branch
        )
        root = random_genome(rng_for(spec.seed, "root"), spec.genome_length, spec.gc)
        self.genomes = evolve_down_tree(rng_for(spec.seed, "evolve"), tree, root)
        (where / "fasta").mkdir(parents=True, exist_ok=True)
        self.paths = []
        for name in self.names:
            path = where / "fasta" / f"{name}.fasta"
            write_fasta(path, [SequenceRecord(name=name, sequence=self.genomes[name])])
            self.paths.append(path)

    def build(self, where: Path):
        from repro.genomics.pipeline import GenomeAtScale

        tool = GenomeAtScale(k=self.k)
        tool.run_fasta(self.paths[: self.warmup_genomes], where / "warmup")
        return tool

    def kmer_sets(self) -> list[np.ndarray]:
        if self._kmers is None:
            self._kmers = [
                reference.canonical_kmers(self.genomes[n], self.k)
                for n in self.names
            ]
        return self._kmers

    def drive(self, tool, client: Client, counts: dict) -> None:
        rng = np.random.default_rng([self.seed, 1])
        for job in range(counts["jobs"]):
            where = self.workdir / f"job{job}"
            built, error = client.call(
                "ingest",
                lambda: tool.build_store(self.paths, where / "samples"),
            )
            if error is None:
                ingest = client.out.ops[-1]
                result, error = client.call(
                    "similarity",
                    lambda: tool.run_store(built[0], cleaning=built[1]),
                    cost=lambda r: r.similarity_result.cost,
                )
            if error is None:
                sim = client.out.ops[-1]
                client.out.ops.append(
                    Op("job", ingest.seconds + sim.seconds, sim.modelled,
                       sim.phases, sim.traced)
                )
            pairs = rng.integers(0, self.n_genomes, size=(self.sampled_pairs, 2))
            if error is None:
                problems = reference.check_matrix(
                    result.similarity, self.kmer_sets(), pairs
                )
                if result.names != self.names:
                    problems.append("sample names out of order")
                client.verdict(None, (), problems, f"job {job}")
            else:
                client.verdict(error)
            shutil.rmtree(where, ignore_errors=True)


class ServeDense:
    """Warm near-threshold queries on a flat index, Fig. 2a shape."""

    primary, bulk = "query", "batch"
    setups = 3
    m, n, density = 12_000, 256, 0.35

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.m = max(500, int(self.m * scale))
        self.n = max(8, int(self.n * scale))

    @staticmethod
    def counts(seconds: float) -> dict:
        return {
            "single": max(1, round(10 * seconds)),
            "batches": max(1, round(seconds / 3)),
        }

    def generate(self, where: Path):
        from repro.core.indicator import SyntheticSource

        self.values = materialize(
            SyntheticSource(m=self.m, n=self.n, density=self.density, seed=self.seed)
        )
        self.names = [f"g{j:04d}" for j in range(self.n)]

    def build(self, where: Path):
        from repro.service import SimilarityService

        service = SimilarityService.create(where / "index", m=self.m)
        service.add(list(zip(self.names, self.values)))
        # Warm-up: a threshold-0 query reads every stored genome once.
        service.query(values=self.values[0], threshold=0.0)
        return service

    def drive(self, service, client: Client, counts: dict) -> None:
        live = reference.LiveSet(self.m)
        for name, vals in zip(self.names, self.values):
            live.add(name, vals)
        stream = QueryStream(
            np.random.default_rng([self.seed, 2]), self.m, REPEAT_SHARE
        )

        def pick(rng):
            return self.values[int(rng.integers(self.n))]

        ledger = service.machine.ledger
        cache0 = service.engine.cache.stats

        def single(i):
            q = stream.next(pick)
            res, err = client.call(
                "query",
                lambda: service.query(values=q, threshold=THRESHOLD),
                ledger,
            )
            client.check_query(res, err, q, live, f"query {i}")

        def batch(b):
            qs = [stream.next(pick) for _ in range(BATCH)]
            res, err = client.call(
                "batch",
                lambda: service.query_batch(qs, threshold=THRESHOLD),
                ledger,
            )
            for j, q in enumerate(qs):
                client.check_query(
                    res[j] if err is None else None, err, q, live,
                    f"batch {b} query {j}",
                )

        # A batch after every n_single / n_batch singles: the host's
        # speed drifts over seconds, and interleaving lets both metrics
        # sample the whole run instead of one half of it each.
        n_single, n_batch = counts["single"], counts["batches"]
        done = 0
        for i in range(n_single):
            single(i)
            while done < n_batch and (done + 1) * n_single <= (i + 1) * n_batch:
                batch(done)
                done += 1
        finish_stats(client, service, cache0, live)


class MixedSharded:
    """Adds, queries and compactions on a 4-band sharded index, Fig. 2b shape."""

    primary, bulk = "query", "add"
    setups = 5
    m, n, density, skew = 2_000_000, 512, 2e-5, 1.5
    indexed, shards = 384, 4
    add_size, queries_per_cycle, compact_every, removals = 8, 12, 4, 4

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        self.seed = seed
        self.workdir = workdir
        self.n = max(16, int(self.n * scale))
        self.indexed = max(8, int(self.indexed * scale))

    @staticmethod
    def counts(seconds: float) -> dict:
        return {"cycles": max(1, round(1.5 * seconds))}

    def _source(self, seed: int):
        from repro.core.indicator import SyntheticSource

        return SyntheticSource(
            m=self.m, n=self.n, density=self.density, seed=seed,
            density_skew=self.skew,
        )

    def generate(self, where: Path):
        values = materialize(self._source(self.seed))
        self.names = [f"g{j:04d}" for j in range(self.n)]
        self.values = values

    def _held_out(self):
        """Genomes to add: the source's unindexed columns, then fresh
        columns of the same shape from derived seeds."""
        yield from zip(self.names[self.indexed :], self.values[self.indexed :])
        extra = 0
        while True:
            extra += 1
            vals = materialize(self._source(self.seed + 1_000_000 * extra))
            yield from ((f"x{extra}_{j:04d}", v) for j, v in enumerate(vals))

    def build(self, where: Path):
        from repro.core.config import SimilarityConfig
        from repro.service import SimilarityService

        head = self.values[: self.indexed]
        service = SimilarityService.create(
            where / "index", m=self.m,
            config=SimilarityConfig(
                store_shards=self.shards, shard_band_policy="quantile"
            ),
            size_hint=np.array([v.size for v in head], dtype=np.int64),
        )
        service.add(list(zip(self.names[: self.indexed], head)))
        service.query(values=head[0], threshold=THRESHOLD)
        return service

    def drive(self, service, client: Client, counts: dict) -> None:
        live = reference.LiveSet(self.m)
        for name, vals in zip(self.names[: self.indexed], self.values):
            live.add(name, vals)
        rng = np.random.default_rng([self.seed, 3])
        # No repeats: every query should find the cache cold.
        stream = QueryStream(rng, self.m, 0.0)
        pool = self._held_out()
        ledger = service.machine.ledger
        cache0 = service.engine.cache.stats

        def pick(rng):
            names = [n for n in live.names if live.values[n].size >= MIN_QUERY_SIZE]
            return live.values[names[int(rng.integers(len(names)))]]

        added = 0
        for cycle in range(counts["cycles"]):
            batch = [next(pool) for _ in range(self.add_size)]
            _, err = client.call("add", lambda: service.add(batch), ledger)
            if err is None:
                for name, vals in batch:
                    live.add(name, vals)
                if client.last_traced:  # the bytes it wrote were counted
                    added += sum(v.size for _, v in batch)
            client.check_live(err, service.store, live, f"add {cycle}")
            for i in range(self.queries_per_cycle):
                q = stream.next(pick)
                res, err = client.call(
                    "query",
                    lambda: service.query(values=q, threshold=THRESHOLD),
                    ledger,
                )
                client.check_query(res, err, q, live, f"cycle {cycle} query {i}")
            if cycle % self.compact_every == self.compact_every - 1:
                names = live.names
                victims = [
                    names[int(i)]
                    for i in rng.choice(len(names), self.removals, replace=False)
                ]

                def remove_and_compact():
                    for name in victims:
                        service.remove(name)
                    return service.compact()

                _, err = client.call("compact", remove_and_compact, ledger)
                if err is None:
                    for name in victims:
                        live.remove(name)
                client.check_live(err, service.store, live, f"compact {cycle}")
        finish_stats(client, service, cache0, live, added)


def finish_stats(client, service, cache0, live, traced_added: int = 0) -> None:
    """Cache and space counters read once the pass is over."""
    stats = service.engine.cache.stats
    live_values = sum(v.size for v in live.values.values())
    client.out.stats.update(
        cache_hits=stats.hits - cache0.hits,
        cache_lookups=stats.lookups - cache0.lookups,
        store_bytes=service.store.total_bytes(),
        live_value_bytes=8 * live_values,
        traced_added_value_bytes=8 * traced_added,
    )


WORKLOADS = {
    "allpairs": AllPairs,
    "serve_dense": ServeDense,
    "mixed_sharded": MixedSharded,
}
