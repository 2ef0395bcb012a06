"""spinchaos benchmark: repeated `spinchaos run` samples of one workload.

    python3 bench/run.py --workload curve-torus --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

Run from the repository root. Each sample is a fresh interpreter
(bench/child.py) that imports spinchaos from ./src, validates the
workload's configs and runs them, with BLAS and spinchaos limited to one
thread. Samples cycle through a few config seeds drawn from --seed
(workloads.config_seed) and stop after the last whole cycle that ends
within --seconds, so every run of a seed measures the same inputs
equally often. Each sample is checked by checks.py. With --trace 1
every untraced sample is followed by a traced one of the same seed,
which must write the same results.csv and supplies the per-layer
metrics. The last stdout line is the JSON result; a full record with
quartiles, samples and the host goes to .bench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, config_seed

HERE = Path(__file__).resolve().parent
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "SPINCHAOS_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB", "units_per_s": "1/s"}


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat in ("s", "self_s", "overhead_s"):
        return "s"
    if stat.endswith("frac") or stat == "named_share":
        return "ratio"
    return "count"


PER_LAYER_UNITS = {name: _layer_unit(name)
                   for name in (*spans.METRICS, "trace.overhead_s", "trace.named_share")}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Run:
    """The samples of one workload at one benchmark seed."""

    def __init__(self, root: Path, workload, seed: int, trace: bool, work: Path):
        self.root, self.workload, self.bench_seed, self.trace = root, workload, seed, trace
        self.work = work
        self.digests: dict | None = checks.load_digests()  # None: do not check
        self.reference: dict[tuple[str, int], bytes] = {}  # (label, seed) -> results.csv
        self.samples: list[dict] = []
        self.started = time.monotonic()

    def sample(self, index: int, seed: int, traced: bool) -> dict:
        """Run the workload's configs at config seed `seed` in a fresh
        interpreter and check its outputs."""
        name = f"c{index}{'t' if traced else ''}"
        cdir = self.work / name
        cdir.mkdir(parents=True)
        configs = self.workload.configs(seed)
        paths = []
        for cfg in configs:
            path = cdir / f"{cfg['experiment']}.json"
            path.write_text(json.dumps(dict(cfg, output=str(cdir / cfg["experiment"]))))
            paths.append(str(path))
        budget = DEADLINE_S - (time.monotonic() - self.started)
        sample = {"name": name, "seed": seed, "traced": traced,
                  "units": self.workload.units(configs), "problems": []}
        t_spawn = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), str(self.root / "src"),
               repr(t_spawn), f"{self.workload.name}/{seed}/{name}",
               str(cdir) if traced else "-", *paths]
        try:
            proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                                  env=dict(os.environ, **THREAD_ENV),
                                  timeout=max(budget, 5.0))
        except subprocess.TimeoutExpired:
            sample["problems"].append("timed out")
            return sample
        finally:
            sample["elapsed_s"] = time.monotonic() - t_spawn
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            sample["problems"].append(f"exit {proc.returncode}: {tail[0]}")
            return sample
        try:
            sample.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        except (ValueError, IndexError):
            sample["problems"].append("no JSON line from the sample")
            return sample
        sample["problems"] += self.check(cdir, [c["experiment"] for c in configs], sample)
        if traced:
            shutil.copy(cdir / "spans.jsonl", self.work / "spans.jsonl")
        shutil.rmtree(cdir)
        return sample

    def check(self, cdir: Path, labels: list[str], sample: dict) -> list[str]:
        """Output checks, the recorded digests, and byte equality with the
        earlier sample of the same seed (the untraced one of a traced pair)."""
        problems = []
        seed = sample["seed"]
        for label in labels:
            outdir = cdir / label
            problems += checks.check_output(label, outdir)
            try:
                data = (outdir / "results.csv").read_bytes()
            except OSError:
                continue  # already reported by check_output
            if self.digests is not None:
                problems += checks.check_digest(self.digests, self.workload.name, seed,
                                                label, data)
            if self.reference.setdefault((label, seed), data) != data:
                problems.append(f"{label} results.csv differs from the earlier sample "
                                f"of seed {seed}")
        if sample["traced"] and self.workload.unit == "nodes":
            layers = sample["layers"]
            nodes = (layers["hermite.coeff_quadrature.nodes"]
                     + layers["hermite.coefficient_sweep.nodes"])
            if nodes != sample["units"]:
                problems.append(f"traced nodes {nodes} != {sample['units']} "
                                "counted from the config")
        return problems

    def execute(self, seconds: float) -> None:
        """Run whole cycles of config seeds, at least one, while the next
        cycle is expected to end within `seconds`."""
        kinds = (False, True) if self.trace else (False,)
        cycle = self.workload.cycle
        durations = []
        for i in itertools.count():
            t0 = time.monotonic()
            seed = config_seed(self.bench_seed, i, cycle)
            for traced in kinds:
                self.samples.append(self.sample(len(self.samples), seed, traced))
            durations.append(time.monotonic() - t0)
            if (i + 1) % cycle:
                continue
            elapsed = time.monotonic() - self.started
            if elapsed + cycle * statistics.median(durations) > min(seconds, DEADLINE_S - 20):
                break

    def ok(self, traced: bool) -> list[dict]:
        return [s for s in self.samples if s["traced"] == traced and not s["problems"]]

    def end_to_end(self) -> dict[str, list[float]]:
        ok = self.ok(False)
        values = {m: [s[m] for s in ok] for m in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")}
        values["units_per_s"] = [s["units"] / s["wall_s"] for s in ok]
        return values

    def per_layer(self) -> dict[str, list[float]]:
        traced = self.ok(True)
        values = {m: [s["layers"][m] for s in traced] for m in spans.METRICS}
        values["trace.named_share"] = [
            sum(s["layers"][m] for m in self.workload.named_layers) / s["wall_s"]
            for s in traced]
        plain = self.ok(False)
        values["trace.overhead_s"] = [
            statistics.median(s["wall_s"] for s in traced)
            - statistics.median(s["wall_s"] for s in plain)] if traced and plain else []
        return values


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = root / ".bench_work" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(root, WORKLOADS[name], seed, trace, work)
    run.execute(seconds)
    values = run.per_layer() if trace else run.end_to_end()
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    stats = {m: _quartiles(v) for m, v in values.items() if v}
    failed = sum(1 for s in run.samples if s["problems"])
    host = next((s["host"] for s in run.samples if "host" in s), {})
    record = {
        "workload": name, "bench_seed": seed,
        "config_seeds": sorted({s["seed"] for s in run.samples}),
        "seconds": seconds, "trace": trace, "unit_of_work": run.workload.unit,
        "host": dict(host, git_commit=_git_commit(root), src_sha256=_src_digest(root / "src")),
        "metrics": {m: {"median": stats[m][1], "q1": stats[m][0], "q3": stats[m][2],
                        "n": len(values[m]), "unit": units[m]} for m in stats},
        "samples": [{k: v for k, v in s.items() if k != "host"} for s in run.samples],
    }
    (work / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    print(f"== {name}  seed {seed} (config seeds {record['config_seeds']})  "
          f"trace {int(trace)}  samples {len(run.samples)}  failed {failed}")
    for m in units:
        if m in stats:
            q1, med, q3 = stats[m]
            print(f"  {m:40s} {med:14.6g} {units[m]:6s} n={len(values[m]):<3d} "
                  f"q1={q1:.6g} q3={q3:.6g}")
    for s in run.samples:
        for p in s["problems"]:
            print(f"  FAIL {s['name']}: {p}")
    print(f"  record: {work / 'record.json'}")
    return {
        "correct": failed == 0 and len(stats) == len(units),
        "attempted": len(run.samples), "failed": failed,
        "metrics": {m: {"value": stats[m][1], "unit": units[m]} for m in units if m in stats},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through SystemExit so subprocess.run kills and reaps the running sample
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "spinchaos" / "cli.py").is_file():
        print(f"error: no spinchaos sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # for the grid caps workloads.py reads
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(root, n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
