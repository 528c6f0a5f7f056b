"""Pinned report payloads: one small job per kind, plus the package exports.

``report_pins.json`` holds the payload of each config below with
``timings`` dropped.  Keys, strings, bools, ints and verdicts must match
exactly; floats to a relative 1e-9, because eigensolver-derived levels move
by about 1e-12 with the BLAS thread count.  Regenerate the goldens (only
when a payload change is intended and explained) with

    PYTHONPATH=src python tests/test_report_pins.py

which keeps every stored value that the comparison below accepts, so the
diff shows only the values that really changed.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qhm
from qhm import gridops, jobs, metrics, models, verify
from qhm.jobs import parse_config, run_job

GOLDEN = Path(__file__).with_name("report_pins.json")

# Differences of eigenvalues (cross-check discrepancy, reality measure) sit
# at round-off, where a relative bound means nothing; below this they are
# compared absolutely.
ABS_FLOOR = 1e-11

CONFIGS = {
    "verify-metric": {
        "job": "verify-metric",
        "grid": {"n_points": 129, "p_max": 10.0, "refinement": [65, 129]},
        "params": {"mu": 0.1},
        "metric": "ExpTheta(0.2)",
        # FAIL at 65 points, PASS at 129: the overall verdict is the last one.
        "threshold": 2e-2,
    },
    "compare-metrics": {
        "job": "compare-metrics",
        "grid": {"n_points": 129, "p_max": 10.0},
        "params": {"mu": 0.1},
        "metrics": ["ExpTheta(0.2)", "ExpTheta(0.1)"],
    },
    "limit-sweep": {
        "job": "limit-sweep",
        "grid": {"n_points": 129, "p_max": 8.0},
        "params": {"mu": 0.1},
        "metric": "JR",
        "reference": "ExpTheta(0.1)",
    },
    "model-equality": {
        "job": "model-equality",
        "grid": {"n_points": 129, "p_max": 8.0},
        "params": {"mu": 0.1, "tau": 0.01, "lambda": -0.05, "delta_t": 0.05},
    },
    "algebra-check": {
        "job": "algebra-check",
        "grid": {"n_points": 129, "p_max": 8.0},
        "q_params": {"q": 1.0},
    },
    # q != 1 applies q^N to the stencil probes; its dynamic-range guard passes.
    "algebra-check-q": {
        "job": "algebra-check",
        "grid": {"n_points": 129, "p_max": 4.0},
        "q_params": {"q": 1.05},
    },
    "spectrum": {
        "job": "spectrum",
        "grid": {"n_points": 129, "p_max": 8.0},
        "params": {"mu": 0.1},
        "metric": "ExpTheta(0.2)",
        "model": "BF",
        "k": 6,
    },
    "spectrum-jr": {
        "job": "spectrum",
        "grid": {"n_points": 129, "p_max": 8.0},
        "params": {"tau": 0.01, "lambda": -0.05, "delta_t": 0.05},
        "model": "JR",
        "k": 4,
    },
    "fit-metric": {
        "job": "fit-metric",
        "grid": {"n_points": 129, "p_max": 8.0},
        "params": {"mu": 0.1, "tau": 0.01},
    },
}


def payload(config: dict) -> dict:
    doc = run_job(parse_config(json.dumps(config)))
    doc.pop("timings")
    return doc


def _diff(got, want, path="$") -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [d for k in want for d in _diff(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _diff(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if math.isclose(got, want, rel_tol=1e-9, abs_tol=ABS_FLOOR):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _keep_pinned(got, want):
    """``got`` with each value that ``_diff`` accepts against ``want``
    replaced by ``want``'s."""
    if isinstance(got, dict) and isinstance(want, dict):
        return {k: _keep_pinned(v, want[k]) if k in want else v for k, v in got.items()}
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [_keep_pinned(g, w) for g, w in zip(got, want)]
    return got if _diff(got, want) else want


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN.read_text())


def test_every_job_kind_is_pinned():
    assert {c["job"] for c in CONFIGS.values()} == set(jobs.JOB_KINDS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_payload_matches_pin(name, goldens):
    # The round trip through JSON turns tuples into lists, as in report.json.
    got = json.loads(json.dumps(payload(CONFIGS[name])))
    assert _diff(got, goldens[name]) == []


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_config_block_is_a_job_file_for_the_same_payload(name):
    doc = payload(CONFIGS[name])
    assert payload(doc["config"]) == doc


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_job_forms_an_n_by_n_operator(name, monkeypatch):
    # Every job kind, the q != 1 algebra check among them, works on bands
    # and probe actions: converting a dense matrix into an operator fails.
    def refuse(*args):
        raise AssertionError("a dense n x n operator was formed")

    monkeypatch.setattr(gridops.Operator, "__init__", refuse)
    payload(CONFIGS[name])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_job_reads_a_complex_view_of_an_operator(name, monkeypatch):
    # Every job kind, the JR spectrum and the q != 1 algebra check among
    # them, reads operators through their float64 coefficients: building the
    # dense complex matrix (``Operator.entries``, the one complex view) fails.
    def refuse(*args):
        raise AssertionError("a complex view of an operator was built")

    monkeypatch.setattr(gridops.Operator, "entries", property(refuse))
    payload(CONFIGS[name])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_no_job_builds_an_operator_from_complex_data(name, monkeypatch):
    # Every operator a job builds has its phase from the algebra, the
    # imaginary i·ħ targets and shifts among them (op_scale(1j, ·) of a real
    # operator): no complex array reaches a constructor's check, where a
    # refusal could be caught as a ValueError, nor the unchecked store that
    # products, sums and scalings use.
    complex_data = []
    real = gridops._real
    store = gridops.Operator._store

    def counted_real(arr):
        if np.iscomplexobj(arr):
            complex_data.append(arr.shape)
        return real(arr)

    def counted_store(self, lo, coef, grid, turns):
        if np.iscomplexobj(coef):
            complex_data.append(coef.shape)
        store(self, lo, coef, grid, turns)

    monkeypatch.setattr(gridops, "_real", counted_real)
    monkeypatch.setattr(gridops.Operator, "_store", counted_store)
    payload(CONFIGS[name])
    assert complex_data == []


def test_package_exports_are_the_module_exports():
    modules = (gridops, jobs, metrics, models, verify)
    union = [name for m in modules for name in m.__all__]
    assert len(union) == len(set(union))
    assert sorted(qhm.__all__) == sorted(["__version__", *union])
    assert len(qhm.__all__) == len(set(qhm.__all__))
    for name in qhm.__all__:
        assert getattr(qhm, name) is not None


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    pins = {}
    for name, cfg in sorted(CONFIGS.items()):
        got = json.loads(json.dumps(payload(cfg)))
        pins[name] = _keep_pinned(got, stored[name]) if name in stored else got
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
