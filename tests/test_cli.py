"""CLI tests: strict config validation, artifact layout, determinism.

Runs go through cli.main so argument parsing, exit codes, and file
output are all exercised the way a shell user would hit them.
"""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spinchaos import chaos, cli, fixtures, rng
from spinchaos.errors import ValidationError
from spinchaos.hypergraph import Hypergraph, hypergraph
from spinchaos.hypergraph import save as save_graph


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def curve_config(outdir, **over):
    cfg = {
        "experiment": "chaos-curve",
        "seed": 42,
        "output": str(outdir),
        "model": {
            "graph": {"fixture": "ea-ring"},
            "disorder": {"kind": "identity"},
            "beta": 0.8,
            "perturbation": "continuous",
        },
        "curve": {"t_grid": [0.0, 0.5, 1.0], "replicas": 4},
    }
    cfg.update(over)
    return cfg


# --------------------------------------------------------------------------
# validation is fail-closed


def test_load_config_happy(tmp_path):
    path = write_config(tmp_path, curve_config(tmp_path / "out"))
    cfg = cli.load_config(path)
    assert cfg["experiment"] == "chaos-curve"


def test_unknown_keys_rejected(tmp_path):
    base = curve_config(tmp_path / "out")
    bad_cases = []
    top = dict(base, typo=1)
    bad_cases.append(top)
    model = dict(base)
    model["model"] = dict(base["model"], extra="x")
    bad_cases.append(model)
    curve = dict(base)
    curve["curve"] = dict(base["curve"], replcias=4)
    bad_cases.append(curve)
    graph = dict(base)
    graph["model"] = dict(base["model"], graph={"fixture": "ea-ring", "n": 8})
    bad_cases.append(graph)
    for cfg in bad_cases:
        with pytest.raises(ValidationError):
            cli.load_config(write_config(tmp_path, cfg))


def test_section_mismatch_rejected(tmp_path):
    cfg = curve_config(tmp_path / "out")
    cfg["levy"] = {"alpha": 1.5, "beta": 0.5, "n_values": [4], "replicas": 2}
    with pytest.raises(ValidationError):
        cli.load_config(write_config(tmp_path, cfg))
    missing = {"experiment": "growth-stats", "seed": 1, "output": str(tmp_path / "o")}
    with pytest.raises(ValidationError):
        cli.load_config(write_config(tmp_path, missing))


@pytest.mark.parametrize("mutate,field", [
    (lambda c: c.__setitem__("experiment", "chaos"), "experiment"),
    (lambda c: c.__setitem__("seed", 0), "seed"),
    (lambda c: c.__setitem__("seed", "42"), "seed"),
    (lambda c: c.__setitem__("output", ""), "output"),
    (lambda c: c["model"].__setitem__("beta", -1.0), "beta"),
    (lambda c: c["model"].__setitem__("perturbation", "ou"), "perturbation"),
    (lambda c: c["curve"].__setitem__("t_grid", []), "t_grid"),
    (lambda c: c["curve"].__setitem__("t_grid", [0.0, "x"]), "t_grid"),
    (lambda c: c["curve"].__setitem__("replicas", 1.5), "replicas"),
    (lambda c: c["curve"].__setitem__("mode", "hybrid"), "mode"),
    (lambda c: c["curve"].__setitem__("bounds", ["thm-1.1"]), "bounds"),
    # a repeated tag wrote each of its rows twice
    (lambda c: c["curve"].__setitem__("bounds", ["general-ball", "general-ball"]),
     "bounds_repeated"),
    (lambda c: c["model"].__setitem__("graph", {"fixture": "nope"}), "fixture"),
    # a list is no fixture name, and no dict key either
    (lambda c: c["model"].__setitem__("graph", {"fixture": ["ea-ring"]}), "fixture_list"),
    (lambda c: c["model"].__setitem__("disorder", {"kind": "cauchy"}), "disorder"),
    (lambda c: c["curve"].__setitem__("t_grid", [0.0, math.nan]), "t_grid"),
    (lambda c: c["curve"].__setitem__("t_grid", [0.0, math.inf]), "t_grid"),
    (lambda c: c["curve"].__setitem__("t_grid", [0.0, -0.5]), "t_grid"),
    (lambda c: c["model"].__setitem__("beta", math.nan), "beta_nan"),
    (lambda c: c["model"]["disorder"].__setitem__("kappa", -math.inf), "kappa"),
    (lambda c: c["curve"].__setitem__("replicas", 1), "one_replica"),
    (lambda c: c["curve"].update(mode="mcmc", mcmc_sweeps="lots"), "mcmc_sweeps"),
    (lambda c: c["curve"].__setitem__("mcmc_burn_in", -1), "mcmc_burn_in"),
    (lambda c: c["curve"].__setitem__("bounds", "general-ball"), "bounds_not_list"),
    (lambda c: c["curve"].__setitem__("bounds", 5), "bounds_not_list"),
    (lambda c: c["curve"].__setitem__("bounds", ["poly-growth"]), "bound_params"),
    (lambda c: c["curve"].update(bounds=["poly-growth"], bound_params={"C": "x", "theta": 1}),
     "bound_params"),
    (lambda c: c["curve"].update(bounds=["levy"], bound_params={"K": 1, "c": 1, "eps": 0,
                                                                "alpha": 1.5, "kapa": 1}),
     "bound_params"),
    (lambda c: (c.update(experiment="lower-bound-check"),
                c["model"].__setitem__("beta", "infinity"),
                c["curve"].__setitem__("bounds", ["lower-gaussian"])), "lower_gaussian"),
    (lambda c: (c["model"].__setitem__("disorder", {"kind": "scaled-tanh"}),
                c["curve"].__setitem__("bounds", ["lower-gaussian"])), "lower_gaussian"),
    (lambda c: (c["model"].__setitem__("graph", {"diluted": {"n": 8, "alphas": {"2": 0.5}}}),
                c["curve"].__setitem__("bounds", ["lower-discrete"])), "lower_graph"),
    (lambda c: c["model"].__setitem__("graph", {"file": 3}), "graph_file"),
    (lambda c: c["model"]["graph"].__setitem__("diluted", {"n": 8, "alphas": {"2": 0.5}}),
     "graph_two_sources"),
    (lambda c: c.__setitem__("curve", [0.0, 1.0]), "section_not_object"),
])
def test_bad_values_rejected(tmp_path, capsys, mutate, field):
    cfg = curve_config(tmp_path / "out")
    mutate(cfg)
    assert_rejected(tmp_path, capsys, cfg)


def assert_rejected(tmp_path, capsys, cfg, code=2):
    """Both subcommands stop at the parse: exit `code`, one error line, no
    traceback (an unclassified exception would escape cli.main)."""
    path = write_config(tmp_path, cfg)
    for cmd in ("validate", "run"):
        assert cli.main([cmd, str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "out").exists()


SECTION_BASE = {
    "levy": ("levy-chaos", {"alpha": 1.5, "beta": 0.5, "n_values": [4, 6],
                            "replicas": 6, "t": 1.0}),
    "trend": ("hypertree-trend", {"alphas": {"2": 0.9}, "n_values": [60, 120],
                                  "eps": 0.5, "replicas": 30}),
    "growth": ("growth-stats", {"n": 400, "alphas": {"2": 0.6}, "depth": 3, "replicas": 4}),
    "suite": ("counterexamples", {"draws": 5, "order": 8}),
    "audit": ("coefficient-audit", {"i": 0, "j": 1, "degree_cap": 3, "order": 8}),
    "curve": ("chaos-curve", {"t_grid": [0.0, 0.5], "replicas": 2}),
}
DILUTED_30 = {"diluted": {"n": 30, "alphas": {"2": 0.5}}}  # over the exact cap
HUGE = 10 ** 20  # replicas whose result array cannot be held: a capacity error


@pytest.mark.parametrize("section,over,code", [
    pytest.param("levy", {"t": "x"}, 2, id="levy-t-string"),
    pytest.param("levy", {"t": math.nan}, 2, id="levy-t-nan"),
    pytest.param("levy", {"replicas": 1}, 2, id="levy-one-replica"),
    pytest.param("levy", {"n_values": [4.7]}, 2, id="levy-n-float"),
    pytest.param("levy", {"n_values": [4, 0]}, 2, id="levy-n-zero"),
    pytest.param("levy", {"n_values": [4, 6, 4]}, 2, id="levy-n-repeated"),
    pytest.param("levy", {"alpha": 0.5, "t": None}, 2, id="levy-alpha-default-t"),
    pytest.param("levy", {"beta": "infinity"}, 2, id="levy-beta-infinity"),
    pytest.param("trend", {"n_values": ["a", 500]}, 2, id="trend-n-string"),
    pytest.param("trend", {"replicas": 1}, 2, id="trend-one-replica"),
    pytest.param("trend", {"n_values": [120, 60]}, 2, id="trend-n-not-increasing"),
    pytest.param("trend", {"eps": math.inf}, 2, id="trend-eps-inf"),
    pytest.param("growth", {"n": 1}, 2, id="growth-n-one"),
    pytest.param("growth", {"alphas": {"2": math.nan}}, 2, id="growth-alpha-nan"),
    # int() reads both keys as arity 2, and the later value would win
    pytest.param("growth", {"alphas": {"2": 0.6, "02": 0.3}}, 2, id="growth-alpha-key-zero-padded"),
    pytest.param("growth", {"alphas": {"2_0": 0.6}}, 2, id="growth-alpha-key-underscore"),
    pytest.param("growth", {"alphas": {}}, 2, id="growth-alphas-empty"),
    pytest.param("suite", {"draws": "x"}, 2, id="suite-draws-string"),
    pytest.param("suite", {"order": 2.5}, 2, id="suite-order-float"),
    pytest.param("audit", {"j": 4}, 2, id="audit-j-outside-graph"),
    pytest.param("audit", {"i": -1}, 2, id="audit-i-negative"),
    pytest.param("audit", {"i": 0.5}, 2, id="audit-i-float"),
    pytest.param("audit", {"tol": math.nan, "sign_tol": math.nan}, 2, id="audit-tol-nan"),
    pytest.param("audit", {"tol": -1e-6}, 2, id="audit-tol-negative"),
    pytest.param("audit", {"sign_tol": -math.inf}, 2, id="audit-sign-tol-inf"),
    pytest.param("curve", {"mode": "mcmc", "mcmc_sweeps": 0}, 2, id="curve-mcmc-zero-sweeps"),
    pytest.param("growth", {"replicas": HUGE}, 3, id="growth-replicas-huge"),
    pytest.param("curve", {"replicas": HUGE}, 3, id="curve-replicas-huge"),
    pytest.param("levy", {"replicas": HUGE}, 3, id="levy-replicas-huge"),
    pytest.param("trend", {"replicas": HUGE}, 3, id="trend-replicas-huge"),
    pytest.param("trend", {"n_values": [5, 60]}, 2, id="trend-depth-zero"),
    # capacity limits that the config already fixes
    pytest.param("audit", {"fixture": "ea-ring"}, 3, id="audit-ring-over-axes"),
    pytest.param("audit", {"degree_cap": 11}, 3, id="audit-degree-over-cap"),
    pytest.param("levy", {"n_values": [4, 30]}, 3, id="levy-n-over-cap"),
    pytest.param("curve", {"model": {"graph": DILUTED_30}}, 3, id="curve-exact-n-over-cap"),
    pytest.param("curve", {"model": {"graph": DILUTED_30, "beta": "infinity"}, "mode": "mcmc"},
                 3, id="curve-ground-n-over-cap"),
    pytest.param("audit", {"model": {"graph": hypergraph(22, [(0, 1), (2, 3)])}}, 3,
                 id="audit-saved-n-over-batch-cap"),
    pytest.param("curve", {"model": {"graph": hypergraph(2049, [(0, 1)])}, "mode": "mcmc"}, 3,
                 id="curve-mcmc-n-over-cap"),
    # rules that validate once left to run, where each failed after all its replicas
    pytest.param("curve", {"experiment": "lower-bound-check", "fixture": "ea-ring",
                           "model": {"perturbation": "discrete"}, "t_grid": [0.0, 1.0],
                           "bounds": ["lower-discrete"]}, 2,
                 id="lower-discrete-no-point-by-inverse-E"),
    pytest.param("curve", {"experiment": "lower-bound-check", "t_grid": [0.0, 1.0],
                           "model": {"graph": hypergraph(3, []), "perturbation": "discrete"},
                           "bounds": ["lower-discrete"]}, 2, id="lower-discrete-zero-edges"),
    pytest.param("curve", {"experiment": "bound-check", "bounds": ["exp-growth"],
                           "bound_params": {"C": 1, "gamma": 0}}, 2, id="exp-growth-gamma-zero"),
    pytest.param("levy", {"t": 0}, 2, id="levy-t-zero"),
    pytest.param("suite", {"order": 25}, 3, id="suite-order-over-cap"),
    pytest.param("growth", {"n": 2000, "alphas": {"12": 0.1}}, 3, id="growth-binomial-overflow"),
    # the sampler's first block at the expected 5e9 edges would need 149 GiB
    pytest.param("growth", {"n": 100000, "alphas": {"2": 49999.0}}, 3,
                 id="growth-dense-sampler-block"),
    # lambda = 1.2: the second-moment bound's lambda^(2 depth) overflows a float
    pytest.param("growth", {"depth": 5000}, 3, id="growth-depth-bound-overflow"),
    pytest.param("curve", {"bounds": [["general-ball"]]}, 2, id="curve-bound-tag-unhashable"),
])
def test_section_values_rejected(tmp_path, capsys, section, over, code):
    experiment, block = SECTION_BASE[section]
    over = dict(over)
    experiment = over.pop("experiment", experiment)
    fixture = over.pop("fixture", "remark-path-graph")  # the model's graph
    model = over.pop("model", {})
    cfg = {"experiment": experiment, "seed": 3, "output": str(tmp_path / "out"),
           section: dict(block, **over)}
    if section in ("audit", "curve"):
        cfg["model"] = dict({"graph": {"fixture": fixture},
                             "disorder": {"kind": "identity"}, "beta": 1.0,
                             "perturbation": "continuous"}, **model)
        graph = cfg["model"]["graph"]
        if isinstance(graph, Hypergraph):  # read back from a saved file
            save_graph(graph, tmp_path / "graph.hg")
            cfg["model"]["graph"] = {"file": str(tmp_path / "graph.hg")}
    assert_rejected(tmp_path, capsys, cfg, code=code)


def test_output_must_not_be_a_file(tmp_path, capsys):
    """An output that is a file, or lies below one, is refused by both
    config subcommands before the run, and by `fixtures --write` before
    the listing, with one error line: mkdir would fail only after them."""
    (tmp_path / "taken").write_text("")
    for below in ("", "sub", "sub/deeper"):
        out = tmp_path / "taken" / below
        path = write_config(tmp_path, curve_config(out))
        before = sorted(tmp_path.rglob("*"))
        for argv, what in ((["validate", str(path)], "output"), (["run", str(path)], "output"),
                           (["fixtures", "--write", str(out)], "--write")):
            assert cli.main(argv) == 2, (argv, below)
            got = capsys.readouterr()
            assert got.out == "" and got.err.startswith(f"error: {what} must be a directory")
            assert got.err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before and (tmp_path / "taken").read_text() == ""
    # an empty --write is refused like an empty config output
    assert cli.main(["fixtures", "--write", ""]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err == "error: --write must be a directory path, got ''\n"


OMIT = object()  # leave the key out of the drawn block
CONSTANTS = {"C": 1.0, "theta": 1.0, "gamma": 2.0, "lambda": 2.0,
             "K": 1.0, "c": 1.0, "eps": 0.0, "alpha": 1.5}


def cap_config(exp: str, past: bool, by_edges: bool) -> dict:
    """A good config of a curve or audit kind whose graph sits at a size
    cap, or one past it when past is set: N = 24 at beta = infinity, where
    ground states enumerate each component's own half table, and the
    audit's N = 20 of batch enumeration or, with by_edges, 6 edges of the
    tensor grid, both at degree cap 10. A fixed graph is a Hypergraph, to
    be saved."""
    model = {"disorder": {"kind": "identity"}, "beta": "infinity", "perturbation": "discrete"}
    if exp == "coefficient-audit":
        graph = (hypergraph(7 + past, [(k, k + 1) for k in range(6 + past)]) if by_edges
                 else hypergraph(20 + past, [(0, 1), (1, 2, 3)]))
        return {"experiment": exp, "seed": 7, "model": dict(model, graph=graph, beta=0.7),
                "audit": {"i": 0, "j": 1, "degree_cap": 10, "order": 4}}
    curve = {"t_grid": [0.0, 1 / 32, 1.0], "replicas": 2}
    if exp == "lower-bound-check":  # the lower bounds need a fixed graph: six 4-cycles
        cycles = [(a + k, a + (k + 1) % 4) for a in range(0, 24, 4) for k in range(4)]
        model["graph"] = hypergraph(24 + past, cycles)
        curve["bounds"] = ["lower-discrete"]
    else:
        model["graph"] = {"diluted": {"n": 24 + past, "alphas": {"2": 0.6, "3": 0.2}}}
        if exp == "bound-check":
            curve["bounds"] = ["general-ball"]
    return {"experiment": exp, "seed": 7, "model": model, "curve": curve}


AT_CAP = st.sampled_from((False,) * 7 + (True,))  # now and then, a graph at a size cap


@st.composite
def small_config(draw, exp):
    """A config of kind exp at sizes that run in well under a second.
    Each field takes one of its good values or, now and then, one of its
    bad values; now and then a curve's graph sits at or just past the
    enumeration cap. The audit's caps, where an N = 20 run takes 0.4 s,
    are left to test_configs_at_the_caps."""
    def pick(good, bad=()):
        bad_draw = bad and draw(st.sampled_from((False,) * 7 + (True,)))
        return draw(st.sampled_from(bad if bad_draw else good))

    def block(**fields):
        drawn = {key: pick(*choices) for key, choices in fields.items()}
        return {key: val for key, val in drawn.items() if val is not OMIT}

    if exp in ("chaos-curve", "bound-check", "lower-bound-check") and draw(AT_CAP):
        return cap_config(exp, draw(st.booleans()), False)
    cfg = {"experiment": exp, "seed": pick((7, 90210), (0, "7"))}
    model = block(
        graph=(({"fixture": "remark-path-graph"}, {"fixture": "figure1-hypergraph"},
                {"fixture": "ea-ring"}, {"diluted": {"n": 6, "alphas": {"2": 0.5}}}),
               ({"diluted": {"n": 30, "alphas": {"2": 0.5}}}, {"fixture": 1})),
        disorder=(({"kind": "identity"}, {"kind": "scaled-tanh", "kappa": 2.0},
                   {"kind": "pareto-tail", "alpha": 1.5}),
                  ({"kind": "identity", "kappa": math.nan}, {"kind": "cauchy"})),
        beta=((0.7, 0, 3.0, "infinity"), (-1.0, math.nan)),
        perturbation=(("continuous", "discrete"), (OMIT, "ou")))
    if exp in ("chaos-curve", "bound-check", "lower-bound-check"):
        bounds = {"bound-check": (["general-ball"],
                                  ["poly-growth", "exp-growth", "diluted", "levy"]),
                  "lower-bound-check": (["lower-discrete"], ["lower-gaussian"])}.get(
                      exp, (OMIT, [], ["general-ball", "lower-discrete"], ["lower-gaussian"]))
        cfg["model"] = model
        cfg["curve"] = block(
            t_grid=(([0.0, 0.5], [0.0, 0.125, 1.0]), ([0.5, 0.25], [], [0.0, math.inf])),
            replicas=((3, 2), (1,)), mode=(("exact", "mcmc", OMIT), ("hybrid",)),
            mcmc_sweeps=((64,), (0, "lots")), mcmc_burn_in=((OMIT, 8), (-1,)),
            bounds=(bounds, ("general-ball", ["thm"], ["lower-discrete", "levy"])),
            bound_params=((OMIT, CONSTANTS),
                          (dict(CONSTANTS, gamma=0.0), dict(CONSTANTS, theta=2000.0), {"C": "x"})))
    elif exp == "growth-stats":
        cfg["growth"] = block(n=((200, 30), (1,)),
                              alphas=(({"2": 0.6, "3": 0.2}, {"2": 0.5}), ({"2": 0.0}, {"x": 1})),
                              depth=((2, 0), (-1, 5000)), replicas=((5, 2), (1,)))
    elif exp == "hypertree-trend":
        cfg["trend"] = block(alphas=(({"2": 0.9}, {"2": 0.6, "3": 0.3}), ({"2": 0.3},)),
                             n_values=(([60, 120], [2, 5]), (["a", 500], [60])),
                             eps=((0.5, 0.9), (0.0, 1.5)), replicas=((3,), (1,)))
    elif exp == "coefficient-audit":
        cfg["model"] = dict(model, graph=pick(({"fixture": "remark-path-graph"},
                                               {"fixture": "figure1-hypergraph"}),
                                              ({"fixture": "ea-ring"}, {"diluted": {"n": 6}})))
        cfg["audit"] = block(i=((0, 1), (-1,)), j=((1, 3), (7,)), degree_cap=((2, 0, 10), (11, "x")),
                             order=((4,), (0, 30)), tol=((OMIT, 0.0), (math.nan, -1.0)),
                             sign_tol=((OMIT, 1e-8),))
    elif exp == "counterexamples":
        cfg["suite"] = block(draws=((2,), (0, "x")), order=((4,), (0, 30)))
    else:
        cfg["levy"] = block(alpha=((1.5,), (0.5, 2.5)), beta=((0.5, 0.0), (-1.0, "infinity")),
                            n_values=(([3, 4], [1]), ([4.7], [], [30])), replicas=((2,), (1,)),
                            t=((OMIT, None, 1.0), (0.0, "x")))
    return cfg


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.tuples(*(small_config(exp) for exp in cli.RUNNERS)))
def test_validated_configs_run_or_fail_classified(cfgs):
    """validate never raises; a config it accepts runs to exit 0 or stops
    with a numerical breakdown (4), never a validation or capacity error,
    and one it rejects fails the same way at run. Each example holds one
    config of every kind."""
    for cfg in cfgs:
        checked, ran = validate_and_run(cfg)
        assert checked in (0, 2, 3), cfg
        assert ran in ((0, 4) if checked == 0 else (checked,)), cfg


def validate_and_run(cfg: dict) -> tuple[int, int]:
    """Exit codes of `spinchaos validate` and `spinchaos run` on cfg, in a
    fresh directory; a Hypergraph as the model's graph goes to a file."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(cfg, output=str(Path(tmp) / "out"))
        if isinstance(graph := cfg.get("model", {}).get("graph"), Hypergraph):
            save_graph(graph, Path(tmp) / "graph.hg")
            cfg["model"] = dict(cfg["model"], graph={"file": str(Path(tmp) / "graph.hg")})
        path = write_config(Path(tmp), cfg)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["validate", str(path)]), cli.main(["run", str(path)])


@pytest.mark.parametrize("exp, by_edges", [("chaos-curve", False), ("bound-check", False),
                                           ("lower-bound-check", False),
                                           ("coefficient-audit", False),
                                           ("coefficient-audit", True)])
@pytest.mark.parametrize("past", [False, True], ids=["at-cap", "past-cap"])
def test_configs_at_the_caps(exp, by_edges, past):
    # each size cap from either side: a graph at the cap validates and
    # runs, one past it fails both with a capacity error (3)
    assert validate_and_run(cap_config(exp, past, by_edges)) == ((3, 3) if past else (0, 0))


def test_bound_check_kind_requires_upper_tags(tmp_path):
    cfg = curve_config(tmp_path / "out", experiment="bound-check")
    with pytest.raises(ValidationError):
        cli.load_config(write_config(tmp_path, cfg))  # no bounds at all
    cfg["curve"]["bounds"] = ["lower-discrete"]
    with pytest.raises(ValidationError):
        cli.load_config(write_config(tmp_path, cfg))
    cfg["curve"]["bounds"] = ["general-ball"]
    assert cli.load_config(write_config(tmp_path, cfg))["experiment"] == "bound-check"


def test_lower_bound_check_kind_requires_lower_tags(tmp_path):
    cfg = curve_config(tmp_path / "out", experiment="lower-bound-check")
    cfg["model"]["perturbation"] = "discrete"
    cfg["curve"]["t_grid"] = [0.0, 0.125, 0.5]  # a point at 1/|E| of the 8-edge ring
    cfg["curve"]["bounds"] = ["general-ball"]
    with pytest.raises(ValidationError):
        cli.load_config(write_config(tmp_path, cfg))
    cfg["curve"]["bounds"] = ["lower-discrete"]
    assert cli.load_config(write_config(tmp_path, cfg))["experiment"] == "lower-bound-check"


def test_audit_config_constraints(tmp_path):
    cfg = {
        "experiment": "coefficient-audit", "seed": 3, "output": str(tmp_path / "o"),
        "model": {"graph": {"fixture": "remark-path-graph"},
                  "disorder": {"kind": "identity"}, "beta": 1.0},
        "audit": {"i": 0, "j": 1, "degree_cap": 3, "order": 8},
    }
    assert cli.load_config(write_config(tmp_path, cfg))["experiment"] == "coefficient-audit"
    infinite = json.loads(json.dumps(cfg))
    infinite["model"]["beta"] = "infinity"
    with pytest.raises(ValidationError):
        cli.load_config(write_config(tmp_path, infinite))
    diluted = json.loads(json.dumps(cfg))
    diluted["model"]["graph"] = {"diluted": {"n": 10, "alphas": {"2": 0.5}}}
    with pytest.raises(ValidationError):
        cli.load_config(write_config(tmp_path, diluted))


def test_config_file_errors(tmp_path):
    with pytest.raises(ValidationError):
        cli.load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValidationError):
        cli.load_config(bad)


def test_config_round_trip(tmp_path):
    cfg = curve_config(tmp_path / "out")
    parsed = cli.load_config(write_config(tmp_path, cfg))
    again = cli.load_config(write_config(tmp_path, parsed, name="again.json"))
    assert parsed == again == cfg


# --------------------------------------------------------------------------
# running experiments end to end


def run_cli(args):
    return cli.main([str(a) for a in args])


def test_run_chaos_curve_artifacts(tmp_path):
    out = tmp_path / "run1"
    cfg = curve_config(out)
    cfg["curve"]["bounds"] = ["general-ball", "lower-gaussian"]
    path = write_config(tmp_path, cfg)
    assert run_cli(["run", path]) == 0
    rows = list(csv.DictReader((out / "results.csv").open()))
    curve_rows = [r for r in rows if r["bound_tag"] == ""]
    assert [float(r["t"]) for r in curve_rows] == [0.0, 0.5, 1.0]
    for r in curve_rows:
        assert 0.0 <= float(r["estimate"]) <= 1.0
        assert r["bound_value"] == "" and r["margin"] == ""
    ball_rows = [r for r in rows if r["bound_tag"] == "general-ball"]
    assert len(ball_rows) == 3
    for r in ball_rows:
        assert float(r["margin"]) == float(r["bound_value"]) - float(r["estimate"])
    gauss_rows = [r for r in rows if r["bound_tag"] == "lower-gaussian"]
    assert len(gauss_rows) == 2  # t = 0 row has no lower check

    results = json.loads((out / "results.json").read_text())
    assert results["config"]["seed"] == 42
    assert len(results["results"]["monotonicity"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiment"] == "chaos-curve"
    assert manifest["bound_tags"] == ["general-ball", "lower-gaussian"]
    assert manifest["outputs"] == ["results.csv", "results.json"]
    assert set(manifest["versions"]) == {"spinchaos", "numpy", "scipy", "python"}


def test_rerun_is_byte_identical(tmp_path):
    out = tmp_path / "rerun"
    path = write_config(tmp_path, curve_config(out))
    assert run_cli(["run", path]) == 0
    first_csv = (out / "results.csv").read_bytes()
    first_json = (out / "results.json").read_bytes()
    assert run_cli(["run", path]) == 0
    assert (out / "results.csv").read_bytes() == first_csv
    assert (out / "results.json").read_bytes() == first_json


def test_thread_env_does_not_change_results(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = write_config(tmp_path, curve_config(out1), name="a.json")
    p2 = write_config(tmp_path, curve_config(out2), name="b.json")
    assert run_cli(["run", p1]) == 0
    monkeypatch.setenv("SPINCHAOS_THREADS", "3")
    assert run_cli(["run", p2]) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["threads"] == 3
    monkeypatch.setenv("SPINCHAOS_THREADS", "zero")
    assert run_cli(["run", p2]) == 2
    # every replica loop reads the variable; a bad value stops the run
    # before anything is written
    out3 = tmp_path / "growth"
    cfg = {"experiment": "growth-stats", "seed": 9, "output": str(out3),
           "growth": {"n": 100, "alphas": {"2": 0.6}, "depth": 2, "replicas": 4}}
    p3 = write_config(tmp_path, cfg, name="g.json")
    assert run_cli(["run", p3]) == 2
    assert not out3.exists()
    monkeypatch.setenv("SPINCHAOS_THREADS", "2")
    assert run_cli(["run", p3]) == 0
    assert json.loads((out3 / "manifest.json").read_text())["threads"] == 2


def _audit16(tmp_path, out) -> str:
    """A coefficient-audit config whose 5^6 grid ends in a 9-column block,
    which OpenBLAS splits between threads with other rounding: 16 vertices,
    six arity-3 edges (0,1,2), (2,3,4), ..., (10,11,0)."""
    graph = tmp_path / "audit16.hg"
    save_graph(hypergraph(16, [tuple(sorted((2 * k, 2 * k + 1, (2 * k + 2) % 12)))
                               for k in range(6)]), graph)
    cfg = {"experiment": "coefficient-audit", "seed": 1, "output": str(out),
           "model": {"graph": {"file": str(graph)}, "disorder": {"kind": "identity"},
                     "beta": 0.8},
           "audit": {"i": 0, "j": 4, "degree_cap": 2, "order": 5}}
    return write_config(tmp_path, cfg, name=f"{out.name}.json")


def test_blas_threads_do_not_change_results(tmp_path):
    # fresh interpreters, since OpenBLAS reads OPENBLAS_NUM_THREADS when
    # it loads; unpinned, this audit writes other bytes at two threads
    src = str(Path(cli.__file__).resolve().parent.parent)
    csv = {}
    for n in ("1", "2"):
        out = tmp_path / f"threads{n}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n,
                   PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-m", "spinchaos.cli", "run", _audit16(tmp_path, out)],
                       env=env, check=True, capture_output=True, timeout=300)
        numerics = json.loads((out / "manifest.json").read_text())["numerics"]
        if not numerics["pinned"]:
            pytest.skip("this BLAS cannot be pinned to one thread")
        assert numerics["blas_threads"] == 1
        csv[n] = (out / "results.csv").read_bytes()
    assert csv["1"] == csv["2"]


def test_manifest_records_the_numerics(tmp_path, monkeypatch):
    # the run is pinned to one BLAS thread and the count before it comes
    # back; a BLAS without the OpenBLAS symbols runs unpinned, not refused
    out = tmp_path / "o"
    path = _audit16(tmp_path, out)
    lib = cli._openblas()
    if lib is not None:
        before = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
    try:
        assert run_cli(["run", path]) == 0
        after = lib and lib.scipy_openblas_get_num_threads64_()
    finally:
        if lib is not None:
            lib.scipy_openblas_set_num_threads64_(before)
    numerics = json.loads((out / "manifest.json").read_text())["numerics"]
    assert set(numerics) == {"blas_core", "blas_threads", "pinned", "simd"}
    assert numerics["simd"] and all(isinstance(t, str) for t in numerics["simd"])
    if lib is not None:
        assert after == 2
        assert numerics["pinned"] and numerics["blas_threads"] == 1
        assert isinstance(numerics["blas_core"], str) and numerics["blas_core"]
    (out / "results.csv").unlink()
    monkeypatch.setattr(cli, "_openblas", lambda: None)
    assert run_cli(["run", path]) == 0
    numerics = json.loads((out / "manifest.json").read_text())["numerics"]
    assert numerics == {"blas_core": None, "blas_threads": None, "pinned": False,
                        "simd": numerics["simd"]}
    assert (out / "results.csv").exists()


def test_run_growth_stats(tmp_path):
    out = tmp_path / "growth"
    cfg = {"experiment": "growth-stats", "seed": 9, "output": str(out),
           "growth": {"n": 400, "alphas": {"2": 0.6, "3": 0.2},
                      "depth": 3, "replicas": 40}}
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader((out / "results.csv").open()))
    assert [int(r["t"]) for r in rows] == [0, 1, 2, 3]
    assert float(rows[0]["mean_I"]) == 1.0  # the root alone at depth 0
    payload = json.loads((out / "results.json").read_text())
    assert abs(payload["results"]["lambda"] - 2.4) < 1e-12


def test_run_trend(tmp_path):
    out = tmp_path / "trend"
    cfg = {"experiment": "hypertree-trend", "seed": 4, "output": str(out),
           "trend": {"alphas": {"2": 0.9}, "n_values": [60, 120],
                     "eps": 0.5, "replicas": 30}}
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader((out / "results.csv").open()))
    assert [int(r["n"]) for r in rows] == [60, 120]
    for r in rows:
        assert 0.0 <= float(r["cycle_prob"]) <= 1.0


def test_run_audit(tmp_path):
    out = tmp_path / "audit"
    cfg = {
        "experiment": "coefficient-audit", "seed": 6, "output": str(out),
        "model": {"graph": {"fixture": "remark-path-graph"},
                  "disorder": {"kind": "identity"}, "beta": 1.0},
        "audit": {"i": 0, "j": 1, "degree_cap": 3, "order": 10},
    }
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    payload = json.loads((out / "results.json").read_text())["results"]
    assert payload["sign_violations"] == []
    assert payload["path_violations"] == []
    rows = list(csv.DictReader((out / "results.csv").open()))
    assert any(r["n"] == "0" for r in rows)  # the empty index row
    assert all(r["forced_zero"] in ("true", "false") for r in rows)


def test_run_counterexamples(tmp_path):
    out = tmp_path / "suite"
    cfg = {"experiment": "counterexamples", "seed": 2, "output": str(out),
           "suite": {"draws": 5, "order": 8}}
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader((out / "results.csv").open()))
    metrics = {(r["item"], r["metric"]) for r in rows}
    assert ("remark", "tanh_identity_max_err") in metrics
    assert ("two_lobe_k2", "coeff_factorized_beta_0.5") in metrics
    err = next(float(r["value"]) for r in rows
               if r["item"] == "two_lobe_k1" and r["metric"] == "decoupling_max_err")
    assert err < 1e-12


def test_run_levy(tmp_path):
    out = tmp_path / "levy"
    cfg = {"experiment": "levy-chaos", "seed": 8, "output": str(out),
           "levy": {"alpha": 1.5, "beta": 0.5, "n_values": [4, 6],
                    "replicas": 6, "t": 1.0}}
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader((out / "results.csv").open()))
    assert [int(r["n"]) for r in rows] == [4, 6]
    payload = json.loads((out / "results.json").read_text())["results"]
    assert payload["slope_reference"] == -(2.0 / 1.5 - 1.0)


def test_graph_from_file(tmp_path):
    gpath = tmp_path / "ring5.hg"
    save_graph(fixtures.ring(5), gpath)
    out = tmp_path / "filerun"
    cfg = curve_config(out)
    cfg["model"]["graph"] = {"file": str(gpath)}
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["results"]["curve"]["meta"]["graph"]["n"] == 5
    cfg["model"]["graph"] = {"file": str(tmp_path / "missing.hg")}
    with pytest.raises(ValidationError):
        cli.load_config(write_config(tmp_path, cfg))
    # a vertex count past int64 is named; it was reported as an unreadable file
    gpath.write_text(f"{2 ** 64} 2\n0 {2 ** 63}\n")
    cfg["model"]["graph"] = {"file": str(gpath)}
    with pytest.raises(ValidationError, match=r"vertex count must be in \[1, 2\*\*63 - 1\]"):
        cli.load_config(write_config(tmp_path, cfg))


def test_run_parses_the_config_once(tmp_path, monkeypatch):
    gpath = tmp_path / "ring5.hg"
    save_graph(fixtures.ring(5), gpath)
    reads = []
    real = cli.load_graph
    monkeypatch.setattr(cli, "load_graph", lambda path: reads.append(path) or real(path))
    cfg = curve_config(tmp_path / "out")
    cfg["model"]["graph"] = {"file": str(gpath)}
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    assert reads == [str(gpath)]


def test_beta_zero_curve_constant_column(tmp_path):
    out = tmp_path / "bz"
    cfg = curve_config(out)
    cfg["model"]["beta"] = 0
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 0
    rows = list(csv.DictReader((out / "results.csv").open()))
    assert all(float(r["estimate"]) == 1.0 / 8.0 for r in rows)


# --------------------------------------------------------------------------
# subcommands and exit codes


def test_validate_subcommand(tmp_path, capsys):
    path = write_config(tmp_path, curve_config(tmp_path / "out"))
    assert run_cli(["validate", path]) == 0
    assert "ok: chaos-curve" in capsys.readouterr().out
    assert not (tmp_path / "out").exists()  # validate touches nothing


def test_exit_code_validation(tmp_path, capsys):
    bad = write_config(tmp_path, {"experiment": "chaos-curve"})
    assert run_cli(["run", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_code_capacity(tmp_path, capsys):
    cfg = curve_config(tmp_path / "out")
    cfg["model"]["graph"] = {"diluted": {"n": 60, "alphas": {"2": 0.5}}}
    cfg["curve"]["replicas"] = 2
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 3
    assert "error:" in capsys.readouterr().err


def test_diluted_curve_budgets_its_ball_profiles(tmp_path, capsys, monkeypatch):
    # a diluted replica's row holds its len(t_grid) values and its draw's
    # N + 1 ball profile: past the budget validate refuses, before any draw
    cfg = curve_config(tmp_path / "out", experiment="bound-check")
    cfg["model"].update(graph={"diluted": {"n": 16, "alphas": {"2": 0.6, "3": 0.2}}},
                        beta="infinity")
    cfg["curve"] = {"t_grid": [0.0, 0.5, 1.0, 2.0], "replicas": 40, "bounds": ["general-ball"]}
    path = write_config(tmp_path, cfg)
    monkeypatch.setattr(rng, "REPLICA_BYTES", 40 * 8 * (4 + 17))
    assert run_cli(["validate", path]) == 0 and run_cli(["run", path]) == 0
    monkeypatch.setattr(rng, "REPLICA_BYTES", 40 * 8 * (4 + 17) - 8)
    monkeypatch.setattr(chaos, "sample_diluted", lambda *args: pytest.fail("drew a graph"))
    for cmd in ("validate", "run"):
        assert run_cli([cmd, path]) == 3
        assert "40 replicas of 21 values exceed" in capsys.readouterr().err


def test_exit_code_capacity_audit(tmp_path, capsys):
    cfg = {
        "experiment": "coefficient-audit", "seed": 1, "output": str(tmp_path / "o"),
        "model": {"graph": {"fixture": "ea-ring"},
                  "disorder": {"kind": "identity"}, "beta": 1.0},
        "audit": {"i": 0, "j": 1, "degree_cap": 2, "order": 8},
    }
    assert run_cli(["run", write_config(tmp_path, cfg)]) == 3  # 8 edges > axis cap
    capsys.readouterr()


@pytest.mark.parametrize("fixture, pair, beta, code", [
    ("figure1-hypergraph", (1, 4), 1e308, 4), ("remark-path-graph", (0, 1), 1e307, 0)])
def test_audit_at_huge_beta(tmp_path, capsys, fixture, pair, beta, code):
    # at 1e308 the audit wrote NaN in every coefficient and exited 0;
    # beta * |E| * max|c| = 1e307 * 3 * 3.32 still fits a float, so that runs
    cfg = {
        "experiment": "coefficient-audit", "seed": 1, "output": str(tmp_path / "o"),
        "model": {"graph": {"fixture": fixture},
                  "disorder": {"kind": "identity"}, "beta": beta},
        "audit": {"i": pair[0], "j": pair[1], "degree_cap": 2, "order": 6},
    }
    path = write_config(tmp_path, cfg)
    assert run_cli(["validate", path]) == 0
    assert run_cli(["run", path]) == code
    if code == 0:
        report = json.loads((tmp_path / "o" / "results.json").read_text())["results"]
        assert all(math.isfinite(row["value"]) for row in report["rows"])
        assert math.isfinite(report["e_phi_sq"])
    capsys.readouterr()


def test_exit_code_numerical(tmp_path, capsys, monkeypatch):
    from spinchaos.errors import NumericalError

    def blow_up(cfg):
        raise NumericalError("synthetic breakdown")

    monkeypatch.setitem(cli.RUNNERS, "chaos-curve", blow_up)
    path = write_config(tmp_path, curve_config(tmp_path / "out"))
    assert run_cli(["run", path]) == 4
    assert "synthetic breakdown" in capsys.readouterr().err


def test_fixtures_subcommand(tmp_path, capsys):
    assert run_cli(["fixtures"]) == 0
    out = capsys.readouterr().out
    for name in ("remark-path-graph", "figure1-hypergraph", "ea-ring",
                 "ea-torus-4x4", "diluted-demo"):
        assert name in out
    assert "figure1-hypergraph: N=7 edges=5" in out
    assert "ea-ring: N=8 edges=8" in out


def test_fixtures_write(tmp_path):
    assert run_cli(["fixtures", "--write", tmp_path / "fx"]) == 0
    from spinchaos.hypergraph import load as load_graph
    for name in fixtures.FIXTURES:
        g = load_graph(tmp_path / "fx" / f"{name}.hg")
        ref = fixtures.get_fixture(name)
        assert g.edges == ref.edges and g.n == ref.n


def test_fixture_graphs_match_catalog():
    cat = fixtures.catalog()
    assert set(cat) == set(fixtures.FIXTURES)
    torus, _ = cat["ea-torus-4x4"]
    assert torus.n == 16 and torus.n_edges == 32
    assert all(len(e) == 2 for e in torus.edges)
    demo, _ = cat["diluted-demo"]
    assert demo.n == 16
    assert fixtures.get_fixture("diluted-demo").edges == demo.edges
    with pytest.raises(ValidationError):
        fixtures.get_fixture("unknown")
