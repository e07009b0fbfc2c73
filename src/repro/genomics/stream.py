"""Streaming FASTA ingestion: chunked records -> k-mer batches.

The SampleStore path materializes every sample's full sequence set in
memory before any k-mer is extracted (``read_fasta`` loads the whole
file).  This module is the streaming alternative for datasets that
should never be fully materialized: FASTA records are consumed in
bounded-size chunks, k-mers are extracted chunk by chunk, and the
per-sample sorted code set is built by incremental merge — peak memory
is one chunk of sequence plus the (deduplicated) code set itself,
independent of genome length.

Three layers, each usable on its own:

* :func:`iter_sequence_chunks` — split a record stream into chunks of
  at most ``chunk_bases`` bases.  A sequence longer than the remaining
  chunk budget is *split across chunks with k-1 bases of overlap*, so
  every length-``k`` window lands in exactly one chunk and no k-mer is
  lost or double-counted at a boundary;
* :func:`stream_sample_kmers` — chunked FASTA -> iterator of per-chunk
  k-mer code batches (this is the "k-mer batches as an iterator" feed
  of the pipelined engine; with an executor that supports ``submit``,
  the next chunk's extraction is prefetched while the caller consumes
  the current one);
* :class:`StreamingKmerSource` — a full
  :class:`~repro.core.indicator.IndicatorSource` over FASTA files,
  plugging straight into :class:`~repro.core.similarity.SimilarityAtScale`
  (and therefore into the ``pipeline`` schedules) without an
  intermediate sample-store directory.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.indicator import _reader_samples
from repro.genomics.fasta import iter_fasta
from repro.genomics.kmer import canonical_kmers, encode_kmers, kmer_space_size
from repro.genomics.sequence import SequenceRecord
from repro.sparse.coo import CooMatrix
from repro.util.arrays import unique_sorted

#: Default chunk budget: 1 MiB of bases keeps peak sequence memory small
#: while leaving each chunk large enough to amortize extraction setup.
DEFAULT_CHUNK_BASES = 1 << 20


def iter_sequence_chunks(
    records: Iterable[SequenceRecord | str],
    k: int,
    chunk_bases: int = DEFAULT_CHUNK_BASES,
) -> Iterator[list[str]]:
    """Chunk a record stream into lists of segments of bounded size.

    Each yielded chunk is a list of sequence segments totalling at most
    ``chunk_bases`` bases (a single segment may exceed the budget only
    when ``chunk_bases < k`` would otherwise make progress impossible).
    Segments never join different records — no k-mer spans a record
    boundary — and a record split across chunks carries ``k - 1`` bases
    of overlap into the next chunk, so each of its length-``k`` windows
    appears in exactly one chunk.  Empty chunks are never yielded; an
    empty record stream yields nothing.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if chunk_bases <= 0:
        raise ValueError(f"chunk_bases must be positive, got {chunk_bases}")
    # A split segment must be able to hold at least one fresh window
    # beyond the k-1 overlap it repeats.
    min_split = max(chunk_bases, k)
    segments: list[str] = []
    used = 0
    for rec in records:
        seq = getattr(rec, "sequence", rec)
        pos = 0
        while pos < len(seq):
            room = min_split if not segments else chunk_bases - used
            if room < k:
                yield segments
                segments, used = [], 0
                continue
            take = min(len(seq) - pos, room)
            piece = seq[pos : pos + take]
            segments.append(piece)
            used += len(piece)
            # Advance past the piece; if the record continues, back up
            # k-1 bases so the next piece re-covers the boundary windows.
            pos += take
            if pos < len(seq):
                pos -= k - 1
                yield segments
                segments, used = [], 0
        if used >= chunk_bases:
            yield segments
            segments, used = [], 0
    if segments:
        yield segments


def _extract_chunk(segments: list[str], k: int, canonical: bool) -> np.ndarray:
    parts = []
    for seg in segments:
        codes = canonical_kmers(seg, k) if canonical else encode_kmers(seg, k)
        if codes.size:
            parts.append(codes)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return unique_sorted(np.concatenate(parts))


def stream_sample_kmers(
    path: str | Path,
    k: int,
    canonical: bool = True,
    chunk_bases: int = DEFAULT_CHUNK_BASES,
    executor=None,
) -> Iterator[np.ndarray]:
    """Yield one sorted, deduplicated k-mer code batch per FASTA chunk.

    Batches may overlap in content (the same k-mer can occur in several
    chunks); consumers dedupe across batches, e.g. with
    :func:`stream_kmer_set`.  A chunk containing no valid window (all
    bases ambiguous, or segments shorter than ``k``) yields an empty
    array rather than being skipped, so consumers can count chunks.

    ``executor`` may be any object with ``submit(fn, *args)`` returning
    a future (both runtime executors qualify); when given, the next
    chunk's extraction runs on it while the caller processes the
    current batch — genuine read/compute overlap for the ingestion
    front end under a :class:`~repro.runtime.executor.ThreadedExecutor`.
    """
    chunks = iter_sequence_chunks(iter_fasta(path), k, chunk_bases)
    if executor is None:
        for segments in chunks:
            yield _extract_chunk(segments, k, canonical)
        return
    pending = None
    for segments in chunks:
        nxt = executor.submit(_extract_chunk, segments, k, canonical)
        if pending is not None:
            yield pending.result()
        pending = nxt
    if pending is not None:
        yield pending.result()


def stream_kmer_set(
    path: str | Path,
    k: int,
    canonical: bool = True,
    chunk_bases: int = DEFAULT_CHUNK_BASES,
    executor=None,
) -> np.ndarray:
    """The sample's full sorted k-mer set, built by incremental merge.

    Equivalent to ``kmer_set(read_fasta(path), k)`` but never holds more
    than one chunk of sequence in memory.  Chunk batches are merged with
    a binary-counter strategy — pending batches accumulate until they
    rival the merged set's size, then fold in with one sort — so each
    code participates in O(log n_chunks) merge passes instead of the
    n_chunks full re-sorts a naive per-chunk ``union1d`` would pay.
    """
    merged = np.empty(0, dtype=np.int64)
    pending: list[np.ndarray] = []
    pending_n = 0
    for batch in stream_sample_kmers(path, k, canonical, chunk_bases, executor):
        if not batch.size:
            continue
        pending.append(batch)
        pending_n += batch.size
        if pending_n >= max(merged.size, batch.size):
            merged = unique_sorted(np.concatenate([merged, *pending]))
            pending, pending_n = [], 0
    if pending:
        merged = unique_sorted(np.concatenate([merged, *pending]))
    return merged


class StreamingKmerSource:
    """Batched indicator source over FASTA files, built by streaming.

    The streaming analogue of building a
    :class:`~repro.genomics.samples.SampleStore` and wrapping it in a
    :class:`~repro.core.indicator.FileSource`: sample ``j``'s sorted
    k-mer codes are assembled chunk by chunk on first access (memory
    bounded by one chunk plus the deduplicated set) and cached, then
    row-window reads serve the engine's batches via ``searchsorted``.
    Attribute rows are the k-mer codes, so ``m = 4^k``.

    ``executor`` (optional) prefetches chunk extraction during
    assembly; see :func:`stream_sample_kmers`.
    """

    def __init__(
        self,
        paths: Sequence[str | Path],
        k: int,
        canonical: bool = True,
        chunk_bases: int = DEFAULT_CHUNK_BASES,
        executor=None,
    ):
        self.paths = [Path(p) for p in paths]
        if not self.paths:
            raise ValueError("StreamingKmerSource requires at least one file")
        if chunk_bases <= 0:
            raise ValueError(
                f"chunk_bases must be positive, got {chunk_bases}"
            )
        self.k = int(k)
        self.canonical = canonical
        self.chunk_bases = int(chunk_bases)
        self.executor = executor
        self._m = kmer_space_size(self.k)
        self._cache: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return len(self.paths)

    @property
    def m(self) -> int:
        return self._m

    @property
    def names(self) -> list[str]:
        """Sample names derived from the file stems."""
        return [p.stem for p in self.paths]

    def _load(self, j: int) -> np.ndarray:
        if j not in self._cache:
            self._cache[j] = stream_kmer_set(
                self.paths[j], self.k, self.canonical, self.chunk_bases,
                self.executor,
            )
        return self._cache[j]

    def read_batch(self, lo: int, hi: int, rank: int, n_readers: int) -> CooMatrix:
        rows_parts, cols_parts = [], []
        for j in _reader_samples(self.n, rank, n_readers):
            vals = self._load(j)
            a, b = np.searchsorted(vals, [lo, hi])
            window = vals[a:b]
            rows_parts.append(window - lo)
            cols_parts.append(np.full(window.size, j, dtype=np.int64))
        rows = np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64)
        cols = np.concatenate(cols_parts) if cols_parts else np.empty(0, np.int64)
        return CooMatrix(rows, cols, (hi - lo, self.n))

    def read_bytes(self, lo: int, hi: int, rank: int, n_readers: int) -> int:
        # Count window sizes without building the coordinate arrays —
        # this runs once per rank per batch alongside read_batch.
        nnz = 0
        for j in _reader_samples(self.n, rank, n_readers):
            a, b = np.searchsorted(self._load(j), [lo, hi])
            nnz += int(b - a)
        return nnz * 8

    def nnz_estimate(self) -> int:
        return sum(self._load(j).size for j in range(self.n))
