"""Tests of the benchmark harness itself (not of spinchaos).

    python3 -m pytest bench/tests
"""

import csv
import io
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spinchaos import chaos, cli, gibbs, hermite, randgraph  # noqa: E402
from spinchaos.hypergraph import hypergraph, multi_index  # noqa: E402


def _span(sid, name, start, end, parent=None, **work):
    return spans.Span(sid, name, start, end, parent, "r", work)


# -- self time ---------------------------------------------------------------


def test_covered_merges_and_clips():
    assert spans.covered([], 0.0, 1.0) == 0.0
    assert spans.covered([(1, 4), (3, 6), (8, 9)], 0, 10) == pytest.approx(6.0)
    assert spans.covered([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2.0)


def test_self_time_on_hand_built_tree():
    tree = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, 0),
        _span(2, "b", 3.0, 6.0, 0),   # overlaps a: the union [1, 6] is covered once
        _span(3, "c", 8.0, 9.0, 0),
        _span(4, "a1", 2.0, 3.0, 1),
        _span(5, "root", 8.25, 8.75, 3),  # nested under itself through c
    ]
    st = spans.summarize(tree)
    assert st["root"]["calls"] == 2
    assert st["root"]["s"] == pytest.approx(10.0)  # inner root not counted twice
    assert st["root"]["self_s"] == pytest.approx(4.0 + 0.5)
    assert st["a"]["self_s"] == pytest.approx(2.0)
    assert st["c"]["self_s"] == pytest.approx(0.5)
    assert st["a1"]["s"] == st["a1"]["self_s"] == pytest.approx(1.0)


def test_spans_nest_within_their_own_thread():
    """Two threads hold open spans at once; each inner span's parent is
    the open span of its own thread."""
    t = spans.Tracer("threads")
    both_open = threading.Barrier(2)
    inner = {k: t.wrap(f"inner.{k}", lambda: None) for k in "ab"}

    def body(k):
        both_open.wait()
        inner[k]()

    outer = {k: t.wrap(f"outer.{k}", body) for k in "ab"}
    workers = [threading.Thread(target=outer[k], args=(k,)) for k in "ab"]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    by_name = {s.name: s for s in t.spans}
    for k in "ab":
        assert by_name[f"inner.{k}"].parent == by_name[f"outer.{k}"].id
        assert by_name[f"outer.{k}"].parent is None


# -- work counts against closed forms ----------------------------------------


@pytest.fixture
def tracer():
    t = spans.Tracer("test")
    originals = (gibbs.exact_correlations, cli.load_config, chaos.sample_diluted)
    t.install()
    yield t
    t.restore()
    assert (gibbs.exact_correlations, cli.load_config, chaos.sample_diluted) == originals


def test_work_counts_match_closed_forms(tracer):
    g = hypergraph(4, [(0, 1), (0, 2), (1, 3)])
    n, e = g.n, g.n_edges
    rng = np.random.default_rng(0)
    cs = rng.standard_normal(e)
    for _ in range(2):  # the second call repeats the system
        gibbs.exact_correlations(gibbs.spin_system(g, cs, 0.7))
    gibbs.ground_states(gibbs.spin_system(g, cs, None))
    gibbs.batch_moments(g, rng.standard_normal((5, e)), 0.7, [(0, 1)])
    order = 4
    phi = chaos.disorder_functional(g, chaos.dis.DisorderModel("identity"), 0.7, 0, 1)
    hermite.coeff_quadrature(phi, e, multi_index({0: 1}), order)
    hermite.coefficient_sweep(phi, e, 2, order)
    spec = randgraph.diluted_spec(50, {2: 0.6, 3: 0.2})
    drawn = chaos.sample_diluted(spec, rng)  # bound in chaos by from-import
    trace = randgraph.explore(drawn, 0, max_depth=3)

    m = spans.layer_metrics(tracer.spans)
    assert m["gibbs.exact_correlations.calls"] == 2
    assert m["gibbs.exact_correlations.states"] == 2 * 2 ** n
    assert m["gibbs.exact_correlations.repeat_frac"] == 0.5
    assert m["gibbs.ground_states.states"] == 2 * 2 ** n
    grid_rows = 2 * order ** e  # phi is evaluated on both grids
    assert m["gibbs.batch_moments.rows"] == 5 + grid_rows
    assert m["gibbs.batch_moments.states"] == (5 + grid_rows) * 2 ** n
    assert m["hermite.coeff_quadrature.nodes"] == order ** e
    assert m["hermite.coefficient_sweep.nodes"] == order ** e
    calls = (m["gibbs.exact_correlations.calls"] + m["gibbs.ground_states.calls"]
             + m["gibbs.batch_moments.calls"])
    assert m["gibbs.graph_reuse_frac"] == pytest.approx((calls - 1) / calls)
    assert m["randgraph.sample_diluted.edges"] == drawn.n_edges
    assert m["randgraph.explore.vertices"] == sum(len(s) for s in trace.i_sets)
    assert m["randgraph.explore.touched_frac"] == m["randgraph.explore.vertices"] / 50
    assert m["hypergraph.Hypergraph.s"] > 0
    assert m["hermite.coeff_quadrature.self_s"] < m["hermite.coeff_quadrature.s"]


def test_counterexample_nodes_match_traced_grid(tracer):
    chaos.counterexample_suite(1, draws=1, order=4)
    m = spans.layer_metrics(tracer.spans)
    assert m["hermite.coeff_quadrature.nodes"] == workloads.counterexample_nodes(4)


# -- output checks and error_rate --------------------------------------------


def _tiny_curve(tmp_path, seed=3):
    cfg = {"experiment": "bound-check", "seed": seed, "output": str(tmp_path / "out"),
           "model": {"graph": {"fixture": "remark-path-graph"},
                     "disorder": {"kind": "identity"}, "beta": 0.5,
                     "perturbation": "continuous"},
           "curve": {"t_grid": [0, 1], "replicas": 4, "bounds": ["general-ball"]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    cli.run_experiment(cli.load_config(path))
    return tmp_path / "out"


def _rewrite_csv(path: Path, column: str, value: str, row: int = 0):
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    rows[row][column] = value
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(out.getvalue())


def test_tampered_csv_fails_output_check(tmp_path):
    out = _tiny_curve(tmp_path)
    assert checks.check_output("bound-check", out) == []
    _rewrite_csv(out / "results.csv", "estimate", "1.5")
    assert checks.check_output("bound-check", out)


def test_digest_catches_change_the_range_checks_allow(tmp_path):
    out = _tiny_curve(tmp_path)
    data = (out / "results.csv").read_bytes()
    digests = {"w": {"3": {"bound-check": checks.sha256(data)}}}
    assert checks.check_digest(digests, "w", 3, "bound-check", data) == []
    assert checks.check_digest(digests, "w", 4, "bound-check", b"x")  # no record
    _rewrite_csv(out / "results.csv", "se", "0.0")
    assert checks.check_output("bound-check", out) == []
    tampered = (out / "results.csv").read_bytes()
    assert checks.check_digest(digests, "w", 3, "bound-check", tampered)


def test_tampered_sample_raises_error_rate(tmp_path, monkeypatch, capsys):
    """End to end: samples whose results.csv is altered after the run
    are counted as failed and the run is reported incorrect."""
    (tmp_path / "src").symlink_to(REPO / "src")
    check = run.Run.check

    def tamper_then_check(self, cdir, labels, sample):
        _rewrite_csv(cdir / "growth-stats" / "results.csv", "mean_I", "1e9", row=2)
        return check(self, cdir, labels, sample)

    monkeypatch.setattr(run.Run, "check", tamper_then_check)
    result = run.run_workload(tmp_path, "growth-1e4", 0, 0.0, False)
    assert result["attempted"] == result["failed"] == workloads.WORKLOADS["growth-1e4"].cycle
    assert not result["correct"]
    assert "mean_I" in capsys.readouterr().out


def test_runs_cycle_through_recorded_seeds():
    digests = checks.load_digests()
    for name, w in workloads.WORKLOADS.items():
        first = set()
        for bench_seed in (0, 1, 9, 19, 20, 1234):
            seeds = [workloads.config_seed(bench_seed, i, w.cycle) for i in range(2 * w.cycle)]
            assert seeds[:w.cycle] == seeds[w.cycle:]
            assert len(set(seeds)) == w.cycle
            assert all(str(s) in digests[name] for s in seeds)
            if bench_seed < 10:
                assert first.isdisjoint(seeds)
                first |= set(seeds)


# -- BENCHMARK.json agrees with the harness ----------------------------------


def test_benchmark_json_matches_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
