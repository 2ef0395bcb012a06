"""Output checks applied to every benchmark sample.

`check_output` states properties that hold for any seed on the seed
code; `check_digest` pins results.csv to the bytes recorded in
digests.json for every config seed a run uses, which keeps the
byte-identity rule of the ROADMAP. A sample with any problem counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")
CURVE_KINDS = ("chaos-curve", "bound-check")
EXACT_IDENTITY_TOL = 1e-12   # closed forms checked by exact enumeration
QUADRATURE_GAP_TOL = 2e-4    # order-16 tensor grid vs adaptive scalar integral


def _rows(csv_bytes: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_bytes.decode())))


def _check_curve(rows: list[dict], payload: dict) -> list[str]:
    problems = []
    for r in rows:
        if r["bound_tag"] == "":
            est = float(r["estimate"])
            if not 0.0 <= est <= 1.0:
                problems.append(f"curve estimate {est} at t={r['t']} outside [0, 1]")
        elif r["bound_tag"] == "general-ball":
            margin, se = float(r["margin"]), float(r["se"])
            if not margin > -3.0 * se:
                problems.append(f"general-ball margin {margin} <= -3 se ({se}) at t={r['t']}")
    for m in payload["monotonicity"]:
        if not m["ok"]:
            problems.append(f"monotonicity fails between t={m['t_lo']} and t={m['t_hi']}")
    return problems


def _check_growth(rows: list[dict], payload: dict) -> list[str]:
    problems = []
    for r in rows:
        mean, bound, se = float(r["mean_I"]), float(r["bound_lambda_t"]), float(r["se_I"])
        if not mean <= bound + 3.0 * se:
            problems.append(f"mean_I {mean} above lambda^t {bound} + 3 se at t={r['t']}")
    return problems


def _check_counterexamples(rows: list[dict], payload: dict) -> list[str]:
    problems = []
    for r in rows:
        if r["metric"] in ("tanh_identity_max_err", "decoupling_max_err"):
            if not float(r["value"]) <= EXACT_IDENTITY_TOL:
                problems.append(f"{r['item']} {r['metric']} = {r['value']}")
    for entry in payload["two_lobe"]:
        for beta in (0.5, 1.0):
            gap = entry[f"coeff_beta_{beta}"]["quadrature_gap"]
            if not gap <= QUADRATURE_GAP_TOL:
                problems.append(f"two_lobe k={entry['k']} beta={beta} quadrature_gap {gap}")
    return problems


def _check_audit(rows: list[dict], payload: dict) -> list[str]:
    return [f"audit {kind} at rows {payload[kind]}"
            for kind in ("sign_violations", "path_violations", "hypertree_violations")
            if payload[kind]]


CHECKS = {
    **{kind: _check_curve for kind in CURVE_KINDS},
    "growth-stats": _check_growth,
    "counterexamples": _check_counterexamples,
    "coefficient-audit": _check_audit,
}


def check_output(experiment: str, outdir: Path) -> list[str]:
    """Problems found in one run's results.csv and results.json."""
    try:
        rows = _rows((outdir / "results.csv").read_bytes())
        payload = json.loads((outdir / "results.json").read_text())["results"]
        return CHECKS[experiment](rows, payload)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output in {outdir}: {exc!r}"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def check_digest(digests: dict, workload: str, seed: int, label: str,
                 csv_bytes: bytes) -> list[str]:
    """Compare results.csv with the digest recorded for (workload, config
    seed, config label); a missing record is a problem too."""
    want = digests.get(workload, {}).get(str(seed), {}).get(label)
    if want is None:
        return [f"no digest recorded for {label} at seed {seed}"]
    if want != sha256(csv_bytes):
        return [f"{label} results.csv differs from the digest recorded for seed {seed}"]
    return []
