"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test run;
they exercise the benchmark, not the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, outermost, self_times  # noqa: E402

TINY = {
    "allpairs": {"jobs": 2},
    "serve_dense": {"single": 6, "batches": 3},
    "mixed_sharded": {"cycles": 4},
}


def _tiny(name, tmp_path):
    return workloads.WORKLOADS[name](seed=3, workdir=tmp_path, scale=0.1)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_end_to_end(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    out = run.one_pass(_tiny(name, tmp_path), tmp_path, TINY[name], setups=2)
    assert len(out.setup_s) == 2
    assert out.attempted > 0
    assert out.wrong == 0
    assert out.seconds(cls.primary).size and out.seconds(cls.bulk).size
    metrics = run.end_to_end(out, cls)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_pass_reports_every_per_layer_metric(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    tracer = Tracer()
    out = run.one_pass(_tiny(name, tmp_path), tmp_path, TINY[name], 1, tracer)
    assert out.stats["missing_bindings"] == []
    primary = [o.traced for o in out.ops if o.kind == cls.primary]
    assert any(primary) and not all(primary)
    assert {s.op for s in tracer.spans} - {None} <= {
        i for i, o in enumerate(out.ops) if o.traced
    }
    metrics = layers.per_layer(tracer, out, cls.primary)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    # Wrappers are gone once the pass ends.
    from repro.service import query

    assert not hasattr(query.exact_jaccard, "__wrapped__")


def _result(*matches):
    return SimpleNamespace(
        matches=[SimpleNamespace(name=n, similarity=s) for n, s in matches]
    )


def _client_with_live():
    live = reference.LiveSet(m=20)
    live.add("a", np.array([1, 2, 3, 4]))
    live.add("b", np.array([10, 11, 12]))
    return workloads.Client(), live


def test_checker_passes_an_exact_answer():
    client, live = _client_with_live()
    q = np.array([1, 2, 3, 5])  # J(q, a) = 3/5
    client.check_query(_result(("a", 0.6)), None, q, live, "exact")
    assert (client.out.attempted, client.out.failed, client.out.wrong) == (1, 0, 0)


@pytest.mark.parametrize(
    "answer, wrong",
    [
        (_result(), 0),  # the qualifying genome is missing
        (_result(("a", 0.5)), 1),  # wrong similarity value
        (_result(("a", 0.6), ("b", 0.0)), 1),  # non-qualifying genome
        (_result(("a", 0.6), ("a", 0.6)), 1),  # repeated genome
    ],
)
def test_checker_flags_an_injected_wrong_answer(answer, wrong):
    client, live = _client_with_live()
    client.check_query(answer, None, np.array([1, 2, 3, 5]), live, "injected")
    assert (client.out.attempted, client.out.failed) == (1, 1)
    assert client.out.wrong == wrong


def test_checker_counts_a_raising_op_as_failed():
    client, live = _client_with_live()
    _, err = client.call("query", lambda: 1 / 0)
    client.check_query(None, err, np.array([1]), live, "raises")
    assert (client.out.attempted, client.out.failed) == (1, 1)
    assert client.out.ops[-1].kind == "query"


def test_matrix_checker_flags_a_wrong_entry():
    sets = [np.array([1, 2, 3]), np.array([2, 3, 4]), np.array([7])]
    good = np.array([[reference.jaccard(a, b) for b in sets] for a in sets])
    pairs = np.array([[0, 1], [1, 2]])
    assert reference.check_matrix(good, sets, pairs) == []
    bad = good.copy()
    bad[0, 1] = bad[1, 0] = 0.4
    assert reference.check_matrix(bad, sets, pairs)
    assert reference.check_matrix(good[:2, :2], sets, pairs)


def test_canonical_kmers_join_strands():
    seq = "ACGTTGCAAGGCT"
    rc = seq[::-1].translate(str.maketrans("ACGT", "TGCA"))
    assert np.array_equal(
        reference.canonical_kmers(seq, 5), reference.canonical_kmers(rc, 5)
    )


def test_self_time_on_a_hand_built_tree():
    #   root [0, 10]
    #     a [1, 4]       (child b [2, 3])
    #     c [3.5, 6]     (overlaps a: union of children is [1, 6])
    #     d [9, 12]      (runs past its parent: clipped to [9, 10])
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0, "x"),
        Span(1, "a", 1.0, 4.0, 0, 0, "x"),
        Span(2, "b", 2.0, 3.0, 1, 0, "x"),
        Span(3, "c", 3.5, 6.0, 0, 0, "x"),
        Span(4, "d", 9.0, 12.0, 0, 0, "x"),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 2.0, 1.0, 2.5, 3.0])
    assert [s.sid for s in outermost(spans, {"a", "b", "d"})] == [1, 4]


def test_tracer_records_parents_and_restores():
    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    tracer.wrap(Box, "outer", "outer")
    tracer.wrap(Box, "inner", "inner")
    assert Box().outer() == 2
    tracer.uninstall()
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0)]
    Box().outer()
    assert len(tracer.spans) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "allpairs",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
