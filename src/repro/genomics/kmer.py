"""k-mer extraction and 2-bit encoding.

Alignment-free comparison represents a sequencing sample as the set of
its length-``k`` subsequences (§II-B).  GenomeAtScale maps each k-mer to
an integer in ``[0, 4^k)`` via the 2-bit code A=0, C=1, G=2, T=3 — these
integers are the *row indices* of the indicator matrix ``A``.

Two conventions from the paper's evaluation (§V-A2):

* **canonical k-mers** — a k-mer and its reverse complement are the same
  molecule on opposite strands, so the smaller of the two encodings
  represents both;
* **odd k** — the paper uses k=19 for Kingsford (not 20) and k=31 for
  BIGSI precisely so no k-mer can equal its own reverse complement,
  which would bias canonical counting.

Windows containing an ambiguous base (``N``) produce no k-mer.
"""

from __future__ import annotations

import numpy as np

from repro.genomics.sequence import ALPHABET, sequence_to_codes
from repro.util.arrays import unique_sorted

#: k is capped so encodings fit a signed 64-bit integer: 4^31 < 2^63.
MAX_K = 31


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"k must be in [1, {MAX_K}], got {k}")


def encode_kmers(seq: str, k: int) -> np.ndarray:
    """All forward-strand k-mer codes of ``seq``, in order.

    Windows overlapping an ambiguous base are skipped.  Vectorized:
    builds the code array once and combines strided windows by
    polynomial evaluation in base 4.
    """
    _check_k(k)
    codes = sequence_to_codes(seq)
    n = codes.size - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(codes, k)
    valid = (windows != 255).all(axis=1)
    weights = (4 ** np.arange(k - 1, -1, -1, dtype=np.int64))
    vals = windows[valid].astype(np.int64) @ weights
    return vals


def reverse_complement_codes(kmers: np.ndarray, k: int) -> np.ndarray:
    """Reverse-complement encodings, computed arithmetically.

    Complement in 2-bit code is ``3 - digit``; reversal flips digit
    order.  Equivalent to encoding ``reverse_complement(decode(x))``.
    """
    _check_k(k)
    kmers = np.asarray(kmers, dtype=np.int64)
    out = np.zeros_like(kmers)
    rem = kmers.copy()
    for _ in range(k):
        digit = rem % 4
        out = out * 4 + (3 - digit)
        rem //= 4
    return out


def canonical_kmers(seq: str, k: int) -> np.ndarray:
    """Canonical (strand-independent) k-mer codes of ``seq``.

    For each window, the minimum of the forward and reverse-complement
    encodings.  With even ``k`` a palindromic k-mer can equal its own
    reverse complement; the paper avoids this by using odd ``k``
    (§V-A2), and so does every caller in this repository.
    """
    fwd = encode_kmers(seq, k)
    if fwd.size == 0:
        return fwd
    rev = reverse_complement_codes(fwd, k)
    return np.minimum(fwd, rev)


def kmer_set(
    sequences, k: int, canonical: bool = True
) -> np.ndarray:
    """The sorted, deduplicated k-mer set of a sample.

    ``sequences`` is an iterable of strings or
    :class:`~repro.genomics.sequence.SequenceRecord`; the result is the
    sample's row-index set for the indicator matrix.
    """
    parts = []
    for seq in sequences:
        text = getattr(seq, "sequence", seq)
        kmers = canonical_kmers(text, k) if canonical else encode_kmers(text, k)
        if kmers.size:
            parts.append(kmers)
    if not parts:
        return np.empty(0, dtype=np.int64)
    return unique_sorted(np.concatenate(parts))


def decode_kmer(code: int, k: int) -> str:
    """Inverse of the 2-bit encoding: code -> k-mer string."""
    _check_k(k)
    if not 0 <= code < 4**k:
        raise ValueError(f"code {code} out of range for k={k}")
    out = []
    for _ in range(k):
        out.append(ALPHABET[code % 4])
        code //= 4
    return "".join(reversed(out))


def kmer_space_size(k: int) -> int:
    """``m = 4^k``, the row count of the indicator matrix (§III-B)."""
    _check_k(k)
    return 4**k
