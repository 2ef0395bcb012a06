"""Golden outputs: one small config of every experiment kind.

tests/golden.json holds, per kind, the config and the results.csv and
results.json that `spinchaos run` wrote for it. A run must give the same
outputs: floats within rtol 1e-12 (so CI on another BLAS passes), ints,
bools and strings exactly. The bench digests stay the byte-exact gate.

Record the file again only when a change is meant to move these numbers:

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import pytest

from spinchaos import cli

GOLDEN = Path(__file__).with_name("golden.json")
RTOL = 1e-12

CONFIGS = {
    "chaos-curve": {
        "model": {"graph": {"fixture": "ea-ring"}, "disorder": {"kind": "identity"},
                  "beta": 0.8, "perturbation": "continuous"},
        "curve": {"t_grid": [0.0, 0.5, 1.0], "replicas": 4,
                  "bounds": ["general-ball", "lower-gaussian"]}},
    "bound-check": {
        "model": {"graph": {"diluted": {"n": 12, "alphas": {"2": 0.6, "3": 0.2}}},
                  "disorder": {"kind": "pareto-tail", "alpha": 1.5}, "beta": "infinity",
                  "perturbation": "discrete"},
        "curve": {"t_grid": [0.0, 0.5, 2.0], "replicas": 4, "bounds": ["general-ball"]}},
    "lower-bound-check": {
        "model": {"graph": {"fixture": "remark-path-graph"}, "disorder": {"kind": "identity"},
                  "beta": 0.7, "perturbation": "discrete"},
        "curve": {"t_grid": [0.0, 0.25, 1.0], "replicas": 3, "mode": "mcmc",
                  "mcmc_sweeps": 64, "mcmc_burn_in": 8, "bounds": ["lower-discrete"]}},
    "growth-stats": {
        "growth": {"n": 300, "alphas": {"2": 0.6, "3": 0.2}, "depth": 3, "replicas": 5}},
    "hypertree-trend": {
        "trend": {"alphas": {"2": 0.9}, "n_values": [100, 400], "eps": 0.2,
                  "replicas": 3}},
    "coefficient-audit": {
        "model": {"graph": {"fixture": "figure1-hypergraph"}, "disorder": {"kind": "identity"},
                  "beta": 1.0},
        "audit": {"i": 1, "j": 4, "degree_cap": 2, "order": 6}},
    "counterexamples": {"suite": {"draws": 3, "order": 6}},
    "levy-chaos": {
        "levy": {"alpha": 1.5, "beta": 0.5, "n_values": [3, 5], "replicas": 3, "t": 1.0}},
}


def run_outputs(kind: str) -> dict:
    """results.csv rows and the results.json payload of one golden run."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(CONFIGS[kind], experiment=kind, seed=11, output=str(Path(tmp) / "out"))
        cli.run_experiment(cli.load_config(_write(Path(tmp), cfg)))
        out = Path(cfg["output"])
        rows = list(csv.reader(io.StringIO((out / "results.csv").read_text())))
        return {"csv": rows, "json": json.loads((out / "results.json").read_text())["results"]}


def _write(tmp: Path, cfg: dict) -> Path:
    path = tmp / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def _cell(text: str):
    """A CSV cell as the float it spells, else as its text."""
    try:
        return float(text)
    except ValueError:
        return text


def assert_matches(got, want, where="results"):
    if isinstance(want, str) and isinstance(got, str):
        got, want = _cell(got), _cell(want)
    if isinstance(want, float) or isinstance(got, float):
        assert type(got) is type(want), f"{where}: {got!r} vs {want!r}"
        assert (math.isnan(got) and math.isnan(want)) or \
            math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0), f"{where}: {got!r} vs {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{k}]")
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} vs {want!r}"


def test_golden_covers_every_kind():
    assert sorted(CONFIGS) == sorted(cli.RUNNERS)
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(cli.RUNNERS)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_golden_outputs(kind):
    assert_matches(run_outputs(kind), json.loads(GOLDEN.read_text())[kind], kind)


def test_golden_comparison_is_strict():
    want = {"a": [1, 0.5, "x", True, "0.25"]}
    assert_matches({"a": [1, 0.5 * (1 + 1e-13), "x", True, "0.25"]}, want)
    for bad in ({"a": [1, 0.5 * (1 + 1e-11), "x", True, "0.25"]},
                {"a": [1.0, 0.5, "x", True, "0.25"]},
                {"a": [1, 0.5, "y", True, "0.25"]},
                {"a": [1, 0.5, "x", 1, "0.25"]},
                {"a": [1, 0.5, "x", True, "0.2500001"]},
                {"a": [1, 0.5, "x", True]}):
        with pytest.raises(AssertionError):
            assert_matches(bad, want)


if __name__ == "__main__":
    golden = {kind: run_outputs(kind) for kind in sorted(CONFIGS)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(golden)} kinds)", file=sys.stderr)
