"""Seeded job generators, the expected-outcome table and outcome checks.

Every job is a JSON config text plus the outcome the generator expects for
it.  The expectation comes from the table below, fixed from the physics and
from the measured margins recorded next to each entry; qhm is never run to
decide it.  A pass of a workload is a pure function of (workload, seed,
pass index), so the same seed always gives the same inputs and no two passes
share an operator.

This module imports neither numpy nor qhm: ``run.py`` pins the BLAS thread
count before numpy is loaded.
"""
from __future__ import annotations

import itertools
import json
import math
import random

DEFAULT_SEED = 0

# Outcome of a job: the report's overall verdict, or the exception class.
# Margins are the worst case measured over mu in [0.05, 0.15], p_max in
# {8, 10} and the listed grid sizes.
EXPECTED = {
    # Matching Gaussian exp(2 mu p^2 / omega^2): worst residual 1.0e-2 at 129
    # points (h^2 floor); threshold 3e-2.  Last rung of the 257/513/1025
    # ladder is 1.2e-4 against the default 1e-3.
    "verify-metric/match": {"outcome": "PASS"},
    # Half-strength Gaussian: residual >= 7.1e-2 against threshold 3e-2.
    "verify-metric/half": {"outcome": "FAIL"},
    # Matching vs half-strength: ratio >= 8.5 at 129 points (threshold 4),
    # >= 124 at 1025 points (default threshold 10).
    "compare-metrics/match-vs-half": {"outcome": "PASS"},
    # The power family tends to the half-strength Gaussian: final distance
    # <= 3.9e-3 against 1e-2 ...
    "limit-sweep/half-gaussian": {"outcome": "PASS"},
    # ... and stays >= 0.42 away from the full-strength one.
    "limit-sweep/full-gaussian": {"outcome": "FAIL"},
    # H_JR - H_BF is a quadratic form in X and P: unexplained <= 2e-14.
    "model-equality/jr-vs-bf": {"outcome": "PASS"},
    # q = 1, tau = 0 reduces to the canonical commutator: residual ~2e-15.
    "algebra-check/q1": {"outcome": "PASS"},
    # BF spectrum with the Gaussian counterpart: reality measure <= 5e-13,
    # cross-check discrepancy <= 8e-13 (trusted).
    "spectrum/bf-counterpart": {"outcome": "PASS", "trusted": True},
    # tau > 0 at p_max 8: status OK, nearest BF-composite (distance <= 0.4
    # against >= 0.5 for JR-composite).  At 129 points and p_max 10 the fit
    # can come out INVALID, so small fits stay at p_max 8.
    "fit-metric/deformed": {"outcome": "PASS", "nearest": "BF-composite"},
    # q > 1 at 257 points, p_max 8: q^N overflows the 1e14 guard.
    "algebra-check/overflow": {"outcome": "NumericGuardError"},
    "config/even-n": {"outcome": "ConfigError"},
    "config/unknown-key": {"outcome": "ConfigError"},
    "config/one-metric": {"outcome": "ConfigError"},
    "config/bad-label": {"outcome": "ConfigError"},
    "config/nan": {"outcome": "ConfigError"},
    "config/no-metric": {"outcome": "ConfigError"},
    "config/bad-refinement": {"outcome": "ConfigError"},
}

# batch-small: jobs per pass for each variant, fixed so that every pass has
# the same mix and the pass time does not depend on the seed.  Spectrum jobs
# are kept to 5%: their 129-point eig varies by 2x from job to job, and with
# more of them the p90 would sit on their fastest few instead of inside the
# steady 257-point model-equality group.
BATCH_QUOTAS = {
    "verify-metric/match": 12,
    "verify-metric/half": 12,
    "compare-metrics/match-vs-half": 24,
    "limit-sweep/half-gaussian": 12,
    "limit-sweep/full-gaussian": 12,
    "model-equality/jr-vs-bf": 30,
    "algebra-check/q1": 24,
    "spectrum/bf-counterpart": 10,
    "fit-metric/deformed": 24,
    "algebra-check/overflow": 20,
    "config/even-n": 3,
    "config/unknown-key": 3,
    "config/one-metric": 3,
    "config/bad-label": 3,
    "config/nan": 3,
    "config/no-metric": 3,
    "config/bad-refinement": 2,
}

# Time to a stated accuracy: verify-metric rungs and the target residual.
TOL_LADDER = (257, 513, 1025, 2049)
TOL_TARGET = 2e-4


class Job:
    """One generated job: an id, its config text and what must come out."""

    __slots__ = ("job_id", "variant", "text", "expect")

    def __init__(self, job_id: str, variant: str, config):
        self.job_id = job_id
        self.variant = variant
        self.text = config if isinstance(config, str) else json.dumps(config)
        self.expect = EXPECTED[variant]

    @property
    def kind(self) -> str:
        return self.variant.split("/")[0]


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _gauss(theta: float) -> str:
    return f"ExpTheta({theta!r})"


def adjudicate_params(seed: int, pass_index) -> dict:
    rng = _rng("adjudicate", seed, pass_index)
    return {
        "mu": _draw(rng, 0.05, 0.15),
        "p_max": rng.choice((8.0, 10.0)),
        "tau": _draw(rng, 0.005, 0.02),
        "coupling": _draw(rng, 0.02, 0.08),
    }


def adjudicate_pass(seed: int, pass_index: int) -> list[Job]:
    """The headline decision at large grids: four jobs at up to 1025 points."""
    pr = adjudicate_params(seed, pass_index)
    mu, tau = pr["mu"], pr["tau"]
    grid = {"n_points": 1025, "p_max": pr["p_max"]}
    prefix = f"adjudicate/s{seed}/p{pass_index}"
    return [
        Job(f"{prefix}/verify", "verify-metric/match", {
            "job": "verify-metric",
            "grid": dict(grid, refinement=[257, 513, 1025]),
            "params": {"mu": mu},
            "metric": _gauss(2 * mu),
        }),
        Job(f"{prefix}/compare", "compare-metrics/match-vs-half", {
            "job": "compare-metrics",
            "grid": grid,
            "params": {"mu": mu},
            "metrics": [_gauss(2 * mu), _gauss(mu)],
        }),
        Job(f"{prefix}/fit", "fit-metric/deformed", {
            "job": "fit-metric",
            "grid": grid,
            "params": {"mu": mu, "tau": tau},
        }),
        Job(f"{prefix}/equality", "model-equality/jr-vs-bf", {
            "job": "model-equality",
            "grid": grid,
            "params": {
                "mu": mu,
                "tau": tau,
                "lambda": -pr["coupling"],
                "delta_t": pr["coupling"],
            },
        }),
    ]


def spectrum_pass(seed: int, pass_index: int) -> list[Job]:
    """One dense spectrum with the counterpart cross-check at 1025 points."""
    rng = _rng("spectrum", seed, pass_index)
    mu = _draw(rng, 0.05, 0.15)
    return [
        Job(f"spectrum/s{seed}/p{pass_index}/spectrum", "spectrum/bf-counterpart", {
            "job": "spectrum",
            "grid": {"n_points": 1025, "p_max": rng.choice((8.0, 10.0))},
            "params": {"mu": mu},
            "metric": _gauss(2 * mu),
            "model": "BF",
            "k": 6,
        }),
    ]


def _small_config(variant: str, rng: random.Random, n: int):
    mu = _draw(rng, 0.05, 0.15)
    p_max = rng.choice((8.0, 10.0))
    grid = {"n_points": n, "p_max": p_max}
    if variant == "verify-metric/match":
        return {"job": "verify-metric", "grid": grid, "params": {"mu": mu},
                "metric": _gauss(2 * mu), "threshold": 3e-2}
    if variant == "verify-metric/half":
        return {"job": "verify-metric", "grid": grid, "params": {"mu": mu},
                "metric": _gauss(mu), "threshold": 3e-2}
    if variant == "compare-metrics/match-vs-half":
        return {"job": "compare-metrics", "grid": grid, "params": {"mu": mu},
                "metrics": [_gauss(2 * mu), _gauss(mu)], "threshold": 4.0}
    if variant == "limit-sweep/half-gaussian":
        return {"job": "limit-sweep", "grid": grid, "params": {"mu": mu},
                "metric": "JR", "reference": _gauss(mu)}
    if variant == "limit-sweep/full-gaussian":
        return {"job": "limit-sweep", "grid": grid, "params": {"mu": mu},
                "metric": "JR", "reference": _gauss(2 * mu)}
    if variant == "model-equality/jr-vs-bf":
        c = _draw(rng, 0.02, 0.08)
        return {"job": "model-equality", "grid": grid,
                "params": {"mu": mu, "lambda": -c, "delta_t": c,
                           "tau": _draw(rng, 0.0, 0.02)}}
    if variant == "algebra-check/q1":
        return {"job": "algebra-check", "grid": grid, "params": {}, "q_params": {"q": 1.0}}
    if variant == "spectrum/bf-counterpart":
        # Eigensolver cost belongs to the spectrum workload: stay at 129 points.
        return {"job": "spectrum", "grid": dict(grid, n_points=129),
                "params": {"mu": mu}, "metric": _gauss(2 * mu)}
    if variant == "fit-metric/deformed":
        return {"job": "fit-metric", "grid": dict(grid, p_max=8.0),
                "params": {"mu": mu, "tau": _draw(rng, 0.005, 0.02)}}
    if variant == "algebra-check/overflow":
        return {"job": "algebra-check", "grid": {"n_points": 257, "p_max": 8.0},
                "params": {}, "q_params": {"q": rng.choice((1.1, 1.2, 1.3))}}
    base = {"job": "verify-metric", "grid": grid, "params": {"mu": mu},
            "metric": _gauss(2 * mu)}
    if variant == "config/even-n":
        return dict(base, grid=dict(grid, n_points=n + 1))
    if variant == "config/unknown-key":
        return dict(base, params={"mu": mu, "nu": mu})
    if variant == "config/one-metric":
        return {"job": "compare-metrics", "grid": grid, "params": {"mu": mu},
                "metrics": [_gauss(2 * mu)]}
    if variant == "config/bad-label":
        return dict(base, metric=f"Gauss({2 * mu!r})")
    if variant == "config/nan":
        return json.dumps(dict(base, params={"mu": float("nan")}))
    if variant == "config/no-metric":
        return {"job": "verify-metric", "grid": grid, "params": {"mu": mu}}
    if variant == "config/bad-refinement":
        return dict(base, grid=dict(grid, refinement=[n, n - 2]))
    raise KeyError(variant)


def batch_small_pass(seed: int, pass_index: int) -> list[Job]:
    """About 200 independent small jobs: every kind and both error classes."""
    rng = _rng("batch-small", seed, pass_index)
    slots = []
    for variant, count in BATCH_QUOTAS.items():
        slots += [(variant, 129 if i < count // 2 else 257) for i in range(count)]
    rng.shuffle(slots)
    prefix = f"batch-small/s{seed}/p{pass_index}"
    return [
        Job(f"{prefix}/j{i:03d}", variant, _small_config(variant, rng, n))
        for i, (variant, n) in enumerate(slots)
    ]


PASSES = {
    "adjudicate": adjudicate_pass,
    "spectrum": spectrum_pass,
    "batch-small": batch_small_pass,
}
WORKLOADS = tuple(PASSES)


def make_pass(workload: str, seed: int, pass_index) -> list[Job]:
    return PASSES[workload](seed, pass_index)


def warmup_job() -> Job:
    """Same on every workload: touches the lazy first eigh (about 1 s cold)."""
    return Job("warmup", "algebra-check/q1", {
        "job": "algebra-check",
        "grid": {"n_points": 129, "p_max": 8.0},
        "params": {},
        "q_params": {"q": 1.0},
    })


def tol_ladder_jobs(seed: int) -> list[Job]:
    """verify-metric with the matching Gaussian on each rung of TOL_LADDER."""
    pr = adjudicate_params(seed, "tol")
    return [
        Job(f"tol/s{seed}/n{n}", "verify-metric/match", {
            "job": "verify-metric",
            "grid": {"n_points": n, "p_max": pr["p_max"]},
            "params": {"mu": pr["mu"]},
            "metric": _gauss(2 * pr["mu"]),
            "threshold": 3e-2,
        })
        for n in TOL_LADDER
    ]


def small_jobs(seed: int):
    """Endless same-kind small jobs (verify-metric, 129 points) for the
    probes: the cold command line runs the first, the tail probe the rest."""
    rng = _rng("small", seed)
    for i in itertools.count():
        yield Job(f"small/s{seed}/j{i}", "verify-metric/match",
                  _small_config("verify-metric/match", rng, 129))


# ---------------------------------------------------------------- outcomes


def outcome_of(doc: dict | None, error: BaseException | None) -> dict:
    """What a job produced, in the vocabulary of the expected-outcome table."""
    if error is not None:
        return {"outcome": type(error).__name__}
    out = {"outcome": doc["verdicts"]["overall"]}
    results = doc["results"]
    if "fits" in results:
        out["nearest"] = results["fits"][-1]["nearest"]
    if "spectra" in results and "direct_spectrum_untrusted" in results["spectra"][-1]:
        out["trusted"] = not results["spectra"][-1]["direct_spectrum_untrusted"]
    return out


def check_outcome(job: Job, got: dict) -> list[str]:
    """Differences between the expected and the produced outcome."""
    return [
        f"{job.job_id}: {key} expected {want!r}, got {got.get(key)!r}"
        for key, want in job.expect.items()
        if got.get(key) != want
    ]


# ------------------------------------------------------------- fingerprint

# Two fingerprint numbers match when they agree to REL_TOL relative or ABS_TOL
# absolute.  The absolute floor absorbs round-off, such as an unexplained of
# 1e-15 or the imaginary part of a real level.
REL_TOL = 1e-8
ABS_TOL = 1e-10


def _complex_list(pairs) -> list[float]:
    return [float(v) for pair in pairs for v in pair]


def fingerprint_of(doc: dict | None, error: BaseException | None) -> dict:
    """Headline numbers of one job's report, per job kind."""
    if error is not None:
        return {"outcome": type(error).__name__}
    res = doc["results"]
    fp = {"outcome": doc["verdicts"]["overall"]}
    if "residuals" in res:
        fp["action_residual"] = [e["residual_action"] for e in res["residuals"]]
    if "comparisons" in res:
        last = res["comparisons"][-1]
        fp["ratio"] = last["ratio"]
        fp["residuals"] = [last["residuals"][k] for k in sorted(last["residuals"])]
    if "sweeps" in res:
        fp["final_distance"] = res["sweeps"][-1]["final_distance"]
    if "equalities" in res:
        fp["unexplained"] = res["equalities"][-1]["unexplained"]
        fp["mu_fitted"] = res["equalities"][-1]["mu_fitted"]
    if "algebra" in res:
        fp["action_residual"] = res["algebra"][-1]["residual"]
    if "spectra" in res:
        last = res["spectra"][-1]
        fp["low_levels"] = _complex_list(last["values"])
        fp["reality_measure"] = last["reality_measure"]
        if "counterpart_herm_residual" in last:
            fp["hermiticity_defect"] = last["counterpart_herm_residual"]
            fp["counterpart_levels"] = _complex_list(last["counterpart_values"])
    if "fits" in res:
        last = res["fits"][-1]
        fp["status"] = last["status"]
        fp["nearest"] = last["nearest"]
        fp["log_quadratic_slope"] = last.get("log_quadratic_coefficient")
    return fp


def _close(a, b) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if not (math.isfinite(a) and math.isfinite(b)):
            return a == b
        return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    return a == b


def compare_fingerprint(job_id: str, stored: dict, got: dict) -> list[str]:
    """Fingerprint entries that moved beyond REL_TOL / ABS_TOL."""
    keys = sorted(set(stored) | set(got))
    return [
        f"{job_id}: fingerprint {key} stored {stored.get(key)!r}, got {got.get(key)!r}"
        for key in keys
        if not _close(stored.get(key), got.get(key))
    ]
