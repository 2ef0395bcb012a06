"""The package exposes only what it uses, and every module uses what it
imports.

Every public top-level function and public method in src/spinchaos must
be called from library code in src/ or from the acceptance criteria.
Calls through imports are followed, aliases included (`from .hypergraph
import load as load_graph`, `from . import disorder as dis`); a method
counts as called when any call site names it as an attribute. A call
inside the defining module counts too, since the module itself is then
its caller. Nothing is exempt: even the console entry point cli.main is
called by criterion 13. Likewise every parameter with a default, of a
public function or method or of a private top-level function, must be
passed, by keyword or by position, at one of those call sites at least;
one named exemption is listed with its reason. Every private top-level
function in src/spinchaos is named somewhere in src/ outside its own body,
so helpers that a rewrite leaves behind are caught. No module in src/ or tests/ imports a name it
never reads. The package itself holds its submodules and `__version__`, so
each name has one import path, and importing `fixtures`, which builds every
named graph, loads no experiment or kernel module. Importing the CLI loads
no scipy submodule that only one experiment path needs, and a run of any
kind imports no module at all, except on the one scipy package path left
(scipy.special, for the pareto-tail disorder) and the counterexample
suite's QUADPACK extension, which is loaded alone, without its package.
"""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.special import erfc

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinchaos"
CALLERS = sorted(SRC.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]


# No call in src/ passes singles, but dropping it would change what
# batch_moments returns, the (pairs, singles) tuple whose result[0].shape[1]
# bench/spans.py reads; bench/ changes only together with the benchmark.
UNPASSED_EXEMPT = {"gibbs.batch_moments(singles)"}


def public_defs(path: Path) -> dict[str, tuple[str, ast.FunctionDef, int]]:
    """{qualified name: (the name a call site shows, the def, how many
    leading parameters a call site does not write)} of the module's public
    functions (module.name, 0) and methods (the bare name, 1 for self);
    properties are read, not called, so they are left out."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out[f"{path.stem}.{node.name}"] = (f"{path.stem}.{node.name}", node, 0)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                    continue
                decorators = {getattr(d, "id", getattr(d, "attr", None))
                              for d in item.decorator_list}
                if not decorators & {"property", "cached_property"}:
                    skip = 0 if "staticmethod" in decorators else 1
                    out[f"{path.stem}.{node.name}.{item.name}"] = (item.name, item, skip)
    return out


def calls(path: Path) -> list[tuple[set[str], ast.Call]]:
    """(names, node) of every call in this file: the qualified function it
    reaches, as module.name, and for an attribute call the bare .method
    name too."""
    tree = ast.parse(path.read_text())
    own = path.stem if path.parent == SRC else None
    names, modules = {}, {}  # local name -> (module, name) / module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 1:
                module = f"spinchaos.{module}".rstrip(".")
            for alias in node.names:
                local = alias.asname or alias.name
                if module == "spinchaos":
                    modules[local] = alias.name
                elif module.startswith("spinchaos."):
                    names[local] = (module.split(".")[1], alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("spinchaos.") and alias.asname:
                    modules[alias.asname] = alias.name.split(".")[1]
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, reached = node.func, set()
        if isinstance(func, ast.Name):
            if func.id in names:
                reached.add(".".join(names[func.id]))
            elif own is not None:
                reached.add(f"{own}.{func.id}")
        elif isinstance(func, ast.Attribute):
            reached.add(func.attr)
            if isinstance(func.value, ast.Name) and func.value.id in modules:
                reached.add(f"{modules[func.value.id]}.{func.attr}")
        out.append((reached, node))
    return out


def all_calls() -> list[tuple[set[str], ast.Call]]:
    return [call for path in CALLERS for call in calls(path)]


def private_defs(path: Path) -> dict[str, tuple[str, ast.FunctionDef, int]]:
    """The same record of the module's private top-level functions."""
    return {f"{path.stem}.{node.name}": (f"{path.stem}.{node.name}", node, 0)
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")}


def all_public_defs() -> dict[str, tuple[str, ast.FunctionDef, int]]:
    public = {}
    for path in sorted(SRC.glob("*.py")):
        public.update(public_defs(path))
    return public


def test_every_public_function_has_a_caller():
    called = set().union(*(reached for reached, _ in all_calls()))
    unused = sorted(qual for qual, (site, _, _) in all_public_defs().items() if site not in called)
    assert not unused, f"public names that nothing in src/ or the criteria calls: {unused}"


def names_read(node: ast.AST) -> set[str]:
    """Every name the node reads, as a bare name, an attribute or an import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_private_helper_has_a_caller():
    # a reference counts, not only a call: RUNNERS holds its parsers and
    # callbacks are passed by name; a function's own body does not count
    bodies = [node for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    helpers = [(node, name) for node in bodies if isinstance(node, ast.FunctionDef)
               and (name := node.name).startswith("_") and not name.startswith("__")]
    read = [names_read(node) for node in bodies]
    unused = sorted(name for helper, name in helpers
                    if not any(name in names for node, names in zip(bodies, read)
                               if node is not helper))
    assert not unused, f"private functions that nothing in src/ calls: {unused}"


def defaulted(fn: ast.FunctionDef, skip: int) -> dict[str, int | None]:
    """{name: position at a call site, None if keyword-only} of each
    parameter of fn that has a default."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = {arg.arg: k - skip for k, arg in enumerate(positional) if k >= first}
    out.update({arg.arg: None for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None})
    return out


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call may pass the parameter; a * or ** argument may."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_default_is_overridden_somewhere():
    # a private helper's default that no caller sets is one value, and
    # the parameter can go
    sites = all_calls()
    defs = all_public_defs()
    for path in sorted(SRC.glob("*.py")):
        defs.update(private_defs(path))
    unpassed = sorted(
        f"{qual}({name})" for qual, (site, fn, skip) in defs.items()
        for name, position in defaulted(fn, skip).items()
        if not any(site in reached and passes(call, name, position) for reached, call in sites))
    stale = sorted(UNPASSED_EXEMPT.difference(unpassed))
    assert not stale, f"exempt parameters that a call site now passes: {stale}"
    unpassed = [u for u in unpassed if u not in UNPASSED_EXEMPT]
    assert not unpassed, f"defaults that no call in src/ or the criteria overrides: {unpassed}"


def unused_imports(path: Path) -> list[str]:
    """file:line name of each name the module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_every_import_is_used():
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    unused = [hit for path in files for hit in unused_imports(path)]
    assert not unused, f"imported and never used: {unused}"


def test_package_holds_only_its_modules():
    # a re-exported function named like its module shadows it: `import
    # spinchaos.hypergraph as hg` would bind the function
    # spinchaos.fixtures builds every named graph without the experiments,
    # so a graph family beside them pulls in no kernel
    code = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('spinchaos.'))\n"
        "import spinchaos.hypergraph\n"
        "alone = loaded()\n"
        "import spinchaos.fixtures\n"
        "graphs = loaded()\n"
        "import spinchaos.cli\n"
        "public = {name: obj is sys.modules.get(f'spinchaos.{name}')\n"
        "          for name, obj in vars(spinchaos).items() if not name.startswith('_')}\n"
        "print(json.dumps({'alone': alone, 'graphs': graphs, 'public': public}))\n")
    out = _run_python(code)
    assert out["public"] == {path.stem: True for path in SRC.glob("*.py") if path.stem != "__init__"}
    assert out["alone"] == ["spinchaos.errors", "spinchaos.hypergraph"]
    assert out["graphs"] == [f"spinchaos.{m}" for m in
                             ("errors", "fixtures", "hypergraph", "randgraph", "rng")]


def test_cli_import_defers_scipy():
    # scipy.special (pareto-tail rho), the one scipy package path left, is
    # imported where it is called, and scipy.integrate never is: adaptive
    # quadrature loads its extension alone. numpy.random, which numpy 2
    # loads lazily, comes with the package
    code = (
        "import json, sys\n"
        "import spinchaos.cli\n"
        "loaded = [m in sys.modules for m in ('scipy.special', 'scipy.integrate', 'numpy.random')]\n"
        "from spinchaos.disorder import DisorderModel, rho\n"
        "vals = rho(DisorderModel('pareto-tail', alpha=1.3), [-2.5, -0.1, 0.0, 0.7, 4.0])\n"
        "print(json.dumps({'loaded': loaded, 'rho': [v.hex() for v in vals]}))\n")
    out = _run_python(code)
    assert out["loaded"] == [False, False, True]
    x = np.array([-2.5, -0.1, 0.0, 0.7, 4.0])  # the map as written with a module-level erfc
    before = np.sign(x) * erfc(np.abs(x) / np.sqrt(2.0)) ** (-1.0 / 1.3)
    assert out["rho"] == [float(v).hex() for v in before]


_RING = {"graph": {"fixture": "ea-ring"}, "disorder": {"kind": "identity"},
         "perturbation": "continuous"}
# one tiny run of every kind that needs no scipy.special; keyed "<kind>"
# or "<kind> <label>"
_PINNED_RUNS = {
    "chaos-curve": {"model": dict(_RING, beta=0.8), "curve": {"t_grid": [0.0, 1.0], "replicas": 2}},
    "chaos-curve infinity": {"model": dict(_RING, beta="infinity"),
                             "curve": {"t_grid": [0.0, 1.0], "replicas": 2}},
    "bound-check": {
        "model": {"graph": {"diluted": {"n": 16, "alphas": {"2": 0.6, "3": 0.2}}},
                  "disorder": {"kind": "identity"}, "beta": "infinity", "perturbation": "discrete"},
        "curve": {"t_grid": [0.0, 1.0], "replicas": 2, "bounds": ["general-ball"]}},
    "lower-bound-check": {
        "model": {"graph": {"fixture": "remark-path-graph"}, "disorder": {"kind": "identity"},
                  "beta": 0.7, "perturbation": "discrete"},
        "curve": {"t_grid": [0.0, 0.25], "replicas": 2, "bounds": ["lower-discrete"]}},
    "growth-stats": {"growth": {"n": 100, "alphas": {"2": 0.6}, "depth": 2, "replicas": 2}},
    "hypertree-trend": {"trend": {"alphas": {"2": 0.9}, "n_values": [50, 100], "eps": 0.2,
                                  "replicas": 2}},
    "coefficient-audit": {
        "model": {"graph": {"fixture": "figure1-hypergraph"}, "disorder": {"kind": "identity"},
                  "beta": 1.0},
        "audit": {"i": 1, "j": 4, "degree_cap": 2, "order": 4}},
    "counterexamples": {"suite": {"draws": 2, "order": 4}},
}
# what a run may add to sys.modules: only the QUADPACK extension, loaded
# from its file without the scipy.integrate package
_RUN_IMPORTS = {"counterexamples": ["scipy.integrate._quadpack"]}


def test_runs_import_nothing():
    # a run is one process, so a module first imported inside it is paid
    # on every run. numpy 2 hides such imports: np.unique loads numpy.ma.
    # On numpy 1.x `import numpy` loads numpy.ma, so there this check
    # cannot see that import. A later `import scipy.integrate` in the same
    # process reuses the extension the suite loaded, with quad's bits.
    from scipy.integrate import quad
    code = (
        "import json, math, sys, tempfile\n"
        "import spinchaos.cli\n"
        f"runs = json.loads({json.dumps(json.dumps(_PINNED_RUNS))})\n"
        "added = {}\n"
        "with tempfile.TemporaryDirectory() as tmp:\n"
        "    for name, cfg in runs.items():\n"
        "        before = set(sys.modules)\n"
        "        cfg = dict(cfg, experiment=name.split()[0], seed=3, output=f'{tmp}/{len(added)}')\n"
        "        spinchaos.cli.run_experiment(cfg)\n"
        "        added[name] = sorted(set(sys.modules) - before)\n"
        "kernel = sys.modules['scipy.integrate._quadpack']\n"
        "from scipy.integrate import quad\n"
        "from spinchaos.hermite import adaptive_gaussian_mean\n"
        "means = [[v.hex() for v in quad(lambda x: x * math.tanh(b * x) * math.exp(-x * x / 2)\n"
        "                                / math.sqrt(2 * math.pi), -math.inf, math.inf,\n"
        "                                epsabs=1e-12, limit=400)]\n"
        "         + [adaptive_gaussian_mean(lambda x: x * math.tanh(b * x)).hex()] for b in (0.5, 1.0)]\n"
        "reused = sys.modules['scipy.integrate._quadpack'] is kernel\n"
        "print(json.dumps({'added': added, 'means': means, 'reused': reused}))\n")
    out = _run_python(code)
    assert out["added"] == {name: _RUN_IMPORTS.get(name, []) for name in _PINNED_RUNS}
    assert out["reused"]
    for b, got in zip((0.5, 1.0), out["means"]):
        val, err = quad(lambda x: x * math.tanh(b * x) * math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                        -math.inf, math.inf, epsabs=1e-12, limit=400)
        assert got == [val.hex(), err.hex(), val.hex()]


def _run_python(code: str):
    """The JSON that code prints, run in a fresh interpreter on src/."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    return json.loads(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                     text=True, check=True, timeout=120).stdout)
