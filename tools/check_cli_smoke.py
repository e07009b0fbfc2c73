#!/usr/bin/env python3
"""End-to-end CLI smoke over the committed tiny FASTA set.

Three sections, all driving the ``genome-at-scale`` CLI as subprocesses
over ``tests/data/smoke_fasta``:

* ``estimator`` — the batch engine: one ``--estimator exact`` run and
  one ``--estimator minhash`` run must exit 0, write similarity
  matrices of equal shape, and agree within the analytic 95% bound the
  sketch run prints in its cost report.  Two more exact runs force
  ``--kernel-policy blocked`` and ``--kernel-policy outer``; both
  matrices must be bit-identical to the adaptive run's, so the Gram
  dispatcher never changes an answer.
* ``index`` — the serving layer: ``index build`` over three samples,
  ``index add`` of the fourth, then ``index query --threshold`` of one
  sample against the four-genome index; the query's matches must agree
  exactly with a fresh batch-engine exact run over the same four
  samples (same qualifying set, same similarities).  A second query
  pass feeds every sample through ``index query --batch-file`` and
  requires each batched answer to equal the per-query answer for the
  same sample, name for name and similarity for similarity.
* ``shard`` — the migration path: ``index build`` over every sample,
  per-sample baseline queries, then ``index shard --shards 2``
  upgrades the flat index into size bands in place; every re-run
  query must return the identical answer through the fan-out engine.
* ``similarity`` — the measure knob: ``index build`` + per-sample
  ``index query --similarity containment`` runs whose ``--json``
  payloads must report the containment measure and its one-sided
  bound, and whose matches must agree exactly with a fresh in-process
  containment reference computed straight from the k-mer sets.

These are the cheapest whole-pipeline checks there are: FASTA parsing,
k-mer extraction, the distributed engine, the sketch subsystem, the
persistent store, the incremental border-block update, the query
cascade, and the result writers all have to work for them to pass.

Run:  python tools/check_cli_smoke.py [--section all|estimator|index]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

FASTA_DIR = REPO_ROOT / "tests" / "data" / "smoke_fasta"

#: The bound line ``result.summary()`` prints for sketch runs.
BOUND_RE = re.compile(r"estimated J \+/- ([0-9.]+) at 95%")

SECTIONS = ("estimator", "index", "shard", "similarity")

#: Kernel policies the estimator section forces against the adaptive run.
FORCED_KERNELS = ("blocked", "outer")


def run_cli(args: list[str]) -> None:
    """Run the CLI as a subprocess; raise on a nonzero exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    cmd = [sys.executable, "-m", "repro.genomics.cli", *args]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"CLI exited {proc.returncode} for args {args}")


def check_estimator(
    workdir: Path, sketch_size: int, verbose: bool = False
) -> str:
    """Run both batch CLI modes and compare; returns a summary line."""
    exact_dir = workdir / "exact"
    sketch_dir = workdir / "minhash"
    run_cli(
        [str(FASTA_DIR), "-o", str(exact_dir), "--tree", "none",
         "--estimator", "exact"]
    )
    run_cli(
        [str(FASTA_DIR), "-o", str(sketch_dir), "--tree", "none",
         "--estimator", "minhash", "--sketch-size", str(sketch_size)]
    )
    exact = np.load(exact_dir / "similarity.npy")
    for policy in FORCED_KERNELS:
        forced_dir = workdir / f"exact-{policy}"
        run_cli(
            [str(FASTA_DIR), "-o", str(forced_dir), "--tree", "none",
             "--estimator", "exact", "--kernel-policy", policy]
        )
        forced = np.load(forced_dir / "similarity.npy")
        if not np.array_equal(forced, exact):
            raise SystemExit(
                f"--kernel-policy {policy} changed the exact similarity matrix"
            )
    approx = np.load(sketch_dir / "similarity.npy")
    if exact.shape != approx.shape:
        raise SystemExit(
            f"shape mismatch: exact {exact.shape} vs sketch {approx.shape}"
        )
    report = (sketch_dir / "cost_report.txt").read_text()
    match = BOUND_RE.search(report)
    if match is None:
        raise SystemExit(
            "sketch cost report prints no 'estimated J +/- ...' bound"
        )
    bound = float(match.group(1))
    diff = float(np.abs(exact - approx).max())
    if verbose:
        print(f"exact similarity:\n{np.round(exact, 4)}")
        print(f"minhash similarity:\n{np.round(approx, 4)}")
    if diff > bound:
        raise SystemExit(
            f"estimate disagrees with exact beyond the printed bound: "
            f"max |diff| = {diff:.4f} > {bound:.4f}"
        )
    return (
        f"cli smoke ok [estimator]: {exact.shape[0]} samples, "
        f"max |exact - minhash| = {diff:.4f} <= printed bound {bound:.4f}, "
        f"{'/'.join(FORCED_KERNELS)} kernels bit-identical to adaptive"
    )


def check_index(
    workdir: Path, threshold: float = 0.1, verbose: bool = False
) -> str:
    """build -> add -> query; matches must equal a fresh exact run."""
    fastas = sorted(FASTA_DIR.glob("*.fasta"))
    if len(fastas) < 2:
        raise SystemExit(f"need at least two smoke FASTA files in {FASTA_DIR}")
    index_dir = workdir / "index"
    query_json = workdir / "query.json"
    if index_dir.exists():
        # Keep the check rerunnable with a persistent --workdir: the
        # store refuses to build over an existing index.
        shutil.rmtree(index_dir)

    # Build from all but the last sample, then add the last incrementally.
    run_cli(
        ["index", "build", *map(str, fastas[:-1]), "--index", str(index_dir)]
    )
    run_cli(
        ["index", "add", str(fastas[-1]), "--index", str(index_dir)]
    )
    query_fasta = fastas[0]
    run_cli(
        [
            "index", "query", str(query_fasta), "--index", str(index_dir),
            "--threshold", str(threshold), "--json", str(query_json),
        ]
    )
    result = json.loads(query_json.read_text())

    # Fresh exact batch run over the same four samples, same order.
    exact_dir = workdir / "exact_reference"
    run_cli(
        [*map(str, fastas), "-o", str(exact_dir), "--tree", "none",
         "--estimator", "exact"]
    )
    similarity = np.load(exact_dir / "similarity.npy")
    names = [p.stem for p in fastas]
    qi = names.index(query_fasta.stem)
    expected = sorted(
        (
            (names[j], float(similarity[qi, j]))
            for j in range(len(names))
            if similarity[qi, j] >= threshold
        ),
        key=lambda pair: (-pair[1], names.index(pair[0])),
    )
    got = [(m["name"], m["similarity"]) for m in result["matches"]]
    if verbose:
        print(f"expected: {expected}")
        print(f"query returned: {got}")
    if [n for n, _ in got] != [n for n, _ in expected]:
        raise SystemExit(
            f"index query match set differs from the fresh exact run: "
            f"{[n for n, _ in got]} vs {[n for n, _ in expected]}"
        )
    for (gn, gs), (en, es) in zip(got, expected):
        if abs(gs - es) > 1e-9:
            raise SystemExit(
                f"index query similarity for {gn} differs from the fresh "
                f"exact run: {gs!r} vs {es!r}"
            )

    # Batched front end: every sample through one --batch-file run must
    # give the same answer the per-query path gives for that sample.
    per_query: dict[str, list[tuple[str, float]]] = {}
    for fasta in fastas:
        single_json = workdir / f"single_{fasta.stem}.json"
        run_cli(
            [
                "index", "query", str(fasta), "--index", str(index_dir),
                "--threshold", str(threshold), "--json", str(single_json),
            ]
        )
        single = json.loads(single_json.read_text())
        per_query[fasta.stem] = [
            (m["name"], m["similarity"]) for m in single["matches"]
        ]
    batch_list = workdir / "batch_queries.txt"
    batch_list.write_text("".join(f"{p}\n" for p in fastas))
    batch_json = workdir / "batch.json"
    run_cli(
        [
            "index", "query", "--batch-file", str(batch_list),
            "--index", str(index_dir),
            "--threshold", str(threshold), "--json", str(batch_json),
        ]
    )
    batch = json.loads(batch_json.read_text())
    if not batch.get("batched") or batch.get("n_queries") != len(fastas):
        raise SystemExit(
            f"--batch-file payload malformed: expected a batched run over "
            f"{len(fastas)} queries, got {batch!r}"
        )
    for entry in batch["queries"]:
        stem = Path(entry["query"]).stem
        got_b = [(m["name"], m["similarity"]) for m in entry["matches"]]
        want = per_query[stem]
        if [n for n, _ in got_b] != [n for n, _ in want]:
            raise SystemExit(
                f"batched query for {stem} returned a different match set "
                f"than the per-query path: "
                f"{[n for n, _ in got_b]} vs {[n for n, _ in want]}"
            )
        for (bn, bs), (_, ss) in zip(got_b, want):
            if abs(bs - ss) > 1e-9:
                raise SystemExit(
                    f"batched similarity for {stem}/{bn} differs from the "
                    f"per-query path: {bs!r} vs {ss!r}"
                )
    return (
        f"cli smoke ok [index]: build({len(fastas) - 1}) -> add(1) -> "
        f"query t={threshold:g} returned {len(got)} match(es) identical "
        f"to the fresh exact run "
        f"({result['n_candidates']} candidate(s), "
        f"{result['n_verified']} verified); --batch-file over "
        f"{len(fastas)} queries matched the per-query path"
    )


def check_shard(
    workdir: Path, threshold: float = 0.1, verbose: bool = False
) -> str:
    """Shard a live flat index in place; answers must not move."""
    fastas = sorted(FASTA_DIR.glob("*.fasta"))
    if len(fastas) < 2:
        raise SystemExit(f"need at least two smoke FASTA files in {FASTA_DIR}")
    index_dir = workdir / "shard_index"
    if index_dir.exists():
        shutil.rmtree(index_dir)
    run_cli(["index", "build", *map(str, fastas), "--index", str(index_dir)])

    def query_all(tag: str) -> dict[str, list[tuple[str, float]]]:
        answers = {}
        for fasta in fastas:
            out_json = workdir / f"shard_{tag}_{fasta.stem}.json"
            run_cli(
                [
                    "index", "query", str(fasta), "--index", str(index_dir),
                    "--threshold", str(threshold), "--json", str(out_json),
                ]
            )
            payload = json.loads(out_json.read_text())
            answers[fasta.stem] = [
                (m["name"], m["similarity"]) for m in payload["matches"]
            ]
        return answers

    before = query_all("flat")
    run_cli(["index", "shard", "--index", str(index_dir), "--shards", "2"])
    manifest = json.loads((index_dir / "manifest.json").read_text())
    if manifest.get("layout") != "sharded":
        raise SystemExit(
            f"index shard left no sharded manifest in {index_dir}: "
            f"layout = {manifest.get('layout')!r}"
        )
    after = query_all("sharded")
    if verbose:
        print(f"flat answers: {before}")
        print(f"sharded answers: {after}")
    for stem in before:
        if after[stem] != before[stem]:
            raise SystemExit(
                f"query for {stem} moved after index shard: "
                f"{before[stem]} -> {after[stem]}"
            )
    return (
        f"cli smoke ok [shard]: build({len(fastas)}) -> shard(2) kept "
        f"every query t={threshold:g} answer identical across "
        f"{len(fastas)} samples"
    )


def check_similarity(
    workdir: Path, threshold: float = 0.1, verbose: bool = False
) -> str:
    """``--similarity containment`` vs a fresh exact in-process reference."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.genomics.counting import clean_sample
    from repro.genomics.fasta import read_fasta
    from repro.semantics import get_measure

    fastas = sorted(FASTA_DIR.glob("*.fasta"))
    if len(fastas) < 2:
        raise SystemExit(f"need at least two smoke FASTA files in {FASTA_DIR}")
    index_dir = workdir / "containment_index"
    if index_dir.exists():
        shutil.rmtree(index_dir)
    run_cli(
        [
            "index", "build", *map(str, fastas),
            "--index", str(index_dir), "--similarity", "containment",
        ]
    )

    # The reference uses the CLI's own k-mer front end (default -k and
    # canonicalization) but scores with the measure object directly.
    measure = get_measure("containment")
    codes = {
        p.stem: clean_sample(read_fasta(p), 31)[0] for p in fastas
    }
    n_checked = 0
    for query_fasta in fastas:
        out_json = workdir / f"containment_{query_fasta.stem}.json"
        run_cli(
            [
                "index", "query", str(query_fasta), "--index", str(index_dir),
                "--similarity", "containment",
                "--threshold", str(threshold), "--json", str(out_json),
            ]
        )
        payload = json.loads(out_json.read_text())
        if payload.get("similarity") != "containment":
            raise SystemExit(
                f"--json reports similarity={payload.get('similarity')!r}, "
                f"expected 'containment'"
            )
        if payload.get("bound_type") != "one_sided_window":
            raise SystemExit(
                f"--json reports bound_type={payload.get('bound_type')!r}, "
                f"expected 'one_sided_window'"
            )
        q = codes[query_fasta.stem]
        expected = sorted(
            (
                (name, measure.exact_pair(q, c))
                for name, c in codes.items()
                if measure.exact_pair(q, c) >= threshold
            ),
            key=lambda pair: (-pair[1], pair[0]),
        )
        got = [(m["name"], m["similarity"]) for m in payload["matches"]]
        if verbose:
            print(f"{query_fasta.stem}: expected {expected}, got {got}")
        if [n for n, _ in got] != [n for n, _ in expected]:
            raise SystemExit(
                f"containment query for {query_fasta.stem} differs from the "
                f"fresh exact reference: {[n for n, _ in got]} vs "
                f"{[n for n, _ in expected]}"
            )
        for (gn, gs), (_, es) in zip(got, expected):
            if abs(gs - es) > 1e-9:
                raise SystemExit(
                    f"containment similarity for {query_fasta.stem}/{gn} "
                    f"differs from the fresh exact reference: {gs!r} vs {es!r}"
                )
        n_checked += len(got)
    return (
        f"cli smoke ok [similarity]: containment queries over "
        f"{len(fastas)} samples returned {n_checked} match(es) identical "
        f"to the fresh exact reference (one-sided bound reported)"
    )


def check(
    workdir: Path,
    sketch_size: int,
    verbose: bool = False,
    sections: tuple[str, ...] = SECTIONS,
) -> list[str]:
    out = []
    if "estimator" in sections:
        out.append(check_estimator(workdir, sketch_size, verbose))
    if "index" in sections:
        out.append(check_index(workdir, verbose=verbose))
    if "shard" in sections:
        out.append(check_shard(workdir, verbose=verbose))
    if "similarity" in sections:
        out.append(check_similarity(workdir, verbose=verbose))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        type=Path,
        default=None,
        help="where to write the output trees (default: a temp dir)",
    )
    parser.add_argument(
        "--sketch-size",
        type=int,
        default=256,
        help="bottom-s size of the minhash run (default 256)",
    )
    parser.add_argument(
        "--section",
        choices=["all", *SECTIONS],
        default="all",
        help="which smoke section(s) to run (default all)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print the compared results"
    )
    args = parser.parse_args(argv)
    if not FASTA_DIR.is_dir():
        raise SystemExit(f"committed FASTA directory missing: {FASTA_DIR}")
    sections = SECTIONS if args.section == "all" else (args.section,)
    if args.workdir is not None:
        args.workdir.mkdir(parents=True, exist_ok=True)
        lines = check(args.workdir, args.sketch_size, args.verbose, sections)
    else:
        with tempfile.TemporaryDirectory(prefix="cli_smoke_") as tmp:
            lines = check(Path(tmp), args.sketch_size, args.verbose, sections)
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
