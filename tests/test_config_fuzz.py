"""Generated job files: ``parse_config`` returns a JobConfig or raises
ConfigError (exit 2), whatever the input; an accepted config holds only
finite numbers and grid sizes that each make a grid the job can run on, and
runs to a report that is strict JSON or stops at a numeric guard (exit 3),
never at a mistake that the parser should have refused."""
import dataclasses
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhm import Grid, NumericGuardError, derivative_matrix
from qhm.jobs import (
    JOB_KINDS,
    ConfigError,
    JobConfig,
    parse_config,
    run_job,
    serialize_report,
)
from qhm.metrics import spec_from_label

HUGE = st.sampled_from(
    [1e200, -1e200, 1e308, -1e308, 5e-324, 1e-200, 0, -0.0, 10**400, -(10**400)]
)
NUMBERS = st.one_of(st.floats(), st.integers(), HUGE)
LABELS = st.one_of(
    st.sampled_from(
        ["BF", "JR", "DeformWeight", "BF-composite", "JR-composite", "Gauss",
         "ExpTheta()", "ExpTheta(1e400)", " JR "]
    ),
    st.floats().map(lambda t: f"ExpTheta({t!r})"),
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    NUMBERS,
    st.text(max_size=4),
    LABELS,
    st.lists(NUMBERS, max_size=3),
    st.dictionaries(st.text(max_size=3), st.none(), max_size=2),
)


def _block(keys, values):
    return st.fixed_dictionaries({}, optional={k: values for k in keys})


def _refinements(size):
    """Lists of sizes, and sorted lists of them, which pass the order check."""
    return st.lists(size, max_size=3).flatmap(
        lambda xs: st.sampled_from([xs, sorted(set(xs))])
    )


def _docs(grid, numbers):
    """Job documents with ``grid`` blocks and every other number drawn from
    ``numbers``."""
    return st.fixed_dictionaries(
        {"job": st.sampled_from(JOB_KINDS)},
        optional={
            "grid": grid,
            "params": _block(
                ["hbar", "mass", "omega", "mu", "lambda", "delta_t", "tau", "gamma_t"],
                numbers,
            ),
            "metric": LABELS,
            "metrics": st.lists(LABELS, min_size=2, max_size=2),
            "reference": LABELS,
            "tau_values": st.lists(numbers, min_size=1, max_size=3),
            "threshold": numbers,
            "q_params": _block(["q", "alpha", "beta", "gamma", "delta"], numbers),
            "k": st.integers(),
            "model": st.sampled_from(["BF", "JR"]),
        },
    )


# Odd sizes, some too small for the mask, and sizes beyond the float range.
REFINEMENT = _refinements(
    st.one_of(
        st.integers(-2, 150).map(lambda m: 2 * m + 1),
        st.integers(-3, 301),
        st.sampled_from([10**400 + 1, 2**1100 + 1, -(10**400) - 1]),
    )
)
GRID = st.fixed_dictionaries(
    {},
    optional={
        "n_points": st.one_of(st.integers(-3, 301), HUGE),
        "p_max": NUMBERS,
        "mask_fraction": NUMBERS,
        "refinement": st.one_of(st.none(), REFINEMENT),
    },
)
DOCS = _docs(GRID, NUMBERS)

# Jobs that are cheap to run and often accepted: valid grids of at most 65
# points (n_points is always set, as its default is 257), and numbers of the
# size a job file holds, zero included.
SMALL_SIZE = st.integers(2, 32).map(lambda m: 2 * m + 1)
SMALL_GRID = st.fixed_dictionaries(
    {"n_points": SMALL_SIZE},
    optional={
        "p_max": st.floats(1.0, 10.0),
        "mask_fraction": st.sampled_from([0.0, 0.1, 0.25]),
        "refinement": st.one_of(st.none(), _refinements(SMALL_SIZE)),
    },
)
PLAIN_NUMBERS = st.one_of(
    st.sampled_from([0, 0.0, 1e-3, 0.05, 0.1, 0.25, 1.0]), st.floats(0.0, 2.0)
)
SMALL_JOBS = st.builds(
    lambda doc, grid: json.dumps(dict(doc, grid=grid)),
    _docs(SMALL_GRID, PLAIN_NUMBERS),
    SMALL_GRID,
)

# Every job kind that builds a model operator, on parameters that parse but
# overflow X·X (X itself is finite).
_OVERFLOW = {"grid": {"n_points": 33, "p_max": 2},
             "params": {"hbar": 1e300, "mass": 1e-300, "omega": 1, "mu": 0.1,
                        "tau": 0.01, "lambda": -0.05, "delta_t": 0.05}}
OVERFLOW_CASES = {
    "compare-metrics": {"job": "compare-metrics"},
    "verify-metric": {"job": "verify-metric", "metric": "BF"},
    "algebra-check-q1": {"job": "algebra-check"},
    "algebra-check-q1.05": {"job": "algebra-check", "q_params": {"q": 1.05}},
    "model-equality": {"job": "model-equality"},
    "spectrum": {"job": "spectrum"},
    "fit-metric": {"job": "fit-metric"},
}
OVERFLOW_JOBS = [json.dumps(dict(_OVERFLOW, **job)) for job in OVERFLOW_CASES.values()]

BLOCKS = ("grid", "params", "q_params")
KEYS = ("job", "metric", "metrics", "reference", "tau_values", "threshold", "k",
        "model", *BLOCKS, "grid.n_points", "grid.refinement",
        "params.lambda", "params.omega", "q_params.q", "q_params.gamma", "unknown",
        "grid.unknown")


@st.composite
def job_texts(draw):
    """A plausible job file with up to two keys set to a wrong value, or
    dropped; now and then a JSON value that is not an object at all."""
    if draw(st.integers(0, 19)) == 0:
        return json.dumps(draw(JUNK))
    doc = draw(DOCS)
    for path in draw(st.lists(st.sampled_from(KEYS), max_size=2)):
        *outer, key = path.split(".")
        target = doc
        if outer:
            target = doc.setdefault(outer[0], {})
            if not isinstance(target, dict):
                continue
        if draw(st.booleans()):
            target.pop(key, None)
        else:
            target[key] = draw(JUNK)
    # json.dumps writes NaN/Infinity, which a strict parser must refuse.
    return json.dumps(doc)


def _finite_numbers(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (tuple, list)):
        return all(_finite_numbers(v) for v in value)
    if dataclasses.is_dataclass(value):
        return all(_finite_numbers(getattr(value, f.name))
                   for f in dataclasses.fields(value))
    return True


def _assert_grids_fit_the_job(cfg):
    """Every grid the config names builds, with a derivative matrix, and
    holds the fit's 8 interior points when the job is a fit."""
    for n in (cfg.grid.n_points, *(cfg.refinement or ())):
        grid = Grid(n, cfg.grid.p_max, cfg.grid.mask_fraction)
        derivative_matrix(grid)
        interior = grid.interior()
        if cfg.job == "fit-metric":
            assert interior.stop - interior.start >= 8


@settings(max_examples=400, deadline=None)
@given(job_texts())
# A subnormal p_max once gave a zero spacing and a ZeroDivisionError.
@example('{"job": "compare-metrics", "grid": {"p_max": 5e-324}}')
def test_parse_config_gives_a_config_or_a_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, JobConfig)
    assert _finite_numbers(cfg)
    _assert_grids_fit_the_job(cfg)
    for label in filter(None, (cfg.metric, cfg.reference, *cfg.metrics)):
        assert _finite_numbers(spec_from_label(label))


@settings(max_examples=200, deadline=None)
@given(
    refinement=REFINEMENT,
    mask_fraction=st.floats(0.0, 0.49),
    job=st.sampled_from(["algebra-check", "fit-metric"]),
)
def test_accepted_refinement_sizes_make_grids(refinement, mask_fraction, job):
    grid = {"n_points": 129, "mask_fraction": mask_fraction, "refinement": refinement}
    try:
        cfg = parse_config(json.dumps({"job": job, "grid": grid}))
    except ConfigError:
        return
    _assert_grids_fit_the_job(cfg)


@settings(max_examples=500, deadline=None)
@given(SMALL_JOBS)
# The two mistakes that once reached run_job: a JR label at tau = 0 and a
# tau schedule that does not decrease.
@example(json.dumps({"job": "verify-metric", "grid": {"n_points": 33}, "metric": "JR"}))
@example(json.dumps({"job": "limit-sweep", "grid": {"n_points": 33}, "reference": "BF",
                     "tau_values": [1e-2, 1e-1]}))
# hbar*m*omega^2 underflowing to zero in the BF exponent's denominator.
@example(json.dumps({"job": "verify-metric", "grid": {"n_points": 5},
                     "params": {"hbar": 1e-3, "mass": 5e-324, "omega": 1e-3}}))
@example(json.dumps({"job": "verify-metric", "grid": {"n_points": 5},
                     "params": {"hbar": 1.0, "mass": 5e-324, "omega": 0.625}}))
# omega^2*tau underflowing to zero in the JR exponent for a subnormal tau.
@example(json.dumps({"job": "verify-metric", "grid": {"n_points": 5}, "metric": "JR",
                     "params": {"tau": 5e-324, "omega": 0.5, "mu": 0.1}}))
@example(json.dumps({"job": "limit-sweep", "grid": {"n_points": 5}, "reference": "BF",
                     "tau_values": [0.1, 5e-324], "params": {"omega": 0.5, "mu": 0.1}}))
# hbar*m*omega^2 = 1, yet X·X overflows: the Hamiltonians and N hold inf and
# NaN (once a PASS with NaN in its entry, a NaN residual, or a LinAlgError).
@example(OVERFLOW_JOBS[0])
@example(OVERFLOW_JOBS[1])
@example(OVERFLOW_JOBS[2])
@example(OVERFLOW_JOBS[3])
@example(OVERFLOW_JOBS[4])
@example(OVERFLOW_JOBS[5])
@example(OVERFLOW_JOBS[6])
# Finite Hamiltonians, but P⁴ of the model-equality dictionary overflows.
@example(json.dumps({"job": "model-equality", "grid": {"n_points": 33, "p_max": 1e80},
                     "params": {"mu": 0.1, "tau": 0.01, "lambda": -0.05,
                                "delta_t": 0.05}}))
# Finite operators whose probe actions overflow the norms of the residual:
# once a NaN residual written into report.json, now a numeric guard.
@example(json.dumps({"job": "verify-metric", "grid": {"n_points": 5}, "metric": "BF",
                     "params": {"mass": 1e200}}))
@example(json.dumps({"job": "model-equality", "grid": {"n_points": 65, "p_max": 10},
                     "params": {"hbar": 1e-300, "mu": 0.05, "lambda": 0.1,
                                "delta_t": 0.5}}))
# ħ·γ_t overflows the shift of X, and τ·p² its deformation: each once
# escaped run_job as a plain ValueError.
@example(json.dumps({"job": "verify-metric", "grid": {"n_points": 9, "p_max": 8},
                     "metric": "BF", "params": {"hbar": 1e160, "gamma_t": 1e160}}))
@example(json.dumps({"job": "spectrum", "grid": {"n_points": 9, "p_max": 8},
                     "model": "BF", "params": {"tau": 1e307}}))
# μ = 0: model-equality's BF side takes μ = δ_t − λ, whose BF exponent
# overflows at ħ = 1e-300 (once a ValueError out of run_job, now refused by
# the parser); and the BF Hamiltonian of an overflowing pair (once kept
# imaginary by a NaN {X, P} scaled by μ = 0, and refused by op_sum).
@example(json.dumps({"job": "model-equality", "grid": {"n_points": 7, "p_max": 1.0},
                     "params": {"hbar": 1e-300, "lambda": 1e150}}))
@example(json.dumps({"job": "spectrum", "grid": {"n_points": 17, "p_max": 8},
                     "params": {"hbar": 1e300, "mass": 1e-300, "tau": 1e6}}))
@pytest.mark.filterwarnings("ignore::RuntimeWarning", "ignore::UserWarning")
def test_accepted_jobs_run_or_stop_at_a_numeric_guard(text):
    """No ValueError escapes run_job from a config that parse_config
    accepted: such a mistake is the parser's to refuse (exit 2).  A job that
    runs writes a report.json that strict JSON accepts: no Infinity or NaN."""
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    try:
        doc = run_job(cfg)
    except (NumericGuardError, np.linalg.LinAlgError):
        return
    assert doc["verdicts"]["overall"] in ("PASS", "FAIL")

    def refuse(constant):
        raise AssertionError(f"report.json holds {constant}")

    with tempfile.TemporaryDirectory() as out:
        report_path, _ = serialize_report(doc, out)
        json.loads(report_path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("text", OVERFLOW_JOBS, ids=list(OVERFLOW_CASES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_model_operators_stop_at_a_numeric_guard(text):
    with pytest.raises(NumericGuardError, match="non-finite entries"):
        run_job(parse_config(text))
