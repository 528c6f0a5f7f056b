"""Generated job files: ``parse_config`` returns a JobConfig or raises
ConfigError (exit 2), whatever the input, and an accepted config holds only
finite numbers and refinement sizes that each make a valid grid."""
import dataclasses
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qhm import Grid
from qhm.jobs import JOB_KINDS, ConfigError, JobConfig, parse_config
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


def _block(keys, values=NUMBERS):
    return st.fixed_dictionaries({}, optional={k: values for k in keys})


# Odd sizes, some too small for the mask, sizes beyond the float range, and
# sorted lists of them, which pass the order check.
REFINEMENT_SIZE = st.one_of(
    st.integers(-2, 150).map(lambda m: 2 * m + 1),
    st.integers(-3, 301),
    st.sampled_from([10**400 + 1, 2**1100 + 1, -(10**400) - 1]),
)
REFINEMENT = st.lists(REFINEMENT_SIZE, max_size=3).flatmap(
    lambda xs: st.sampled_from([xs, sorted(set(xs))])
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
PARAMS = _block(["hbar", "mass", "omega", "mu", "lambda", "delta_t", "tau", "gamma_t"])
Q_PARAMS = _block(["q", "alpha", "beta", "gamma", "delta"])

DOCS = st.fixed_dictionaries(
    {"job": st.sampled_from(JOB_KINDS)},
    optional={
        "grid": GRID,
        "params": PARAMS,
        "metric": LABELS,
        "metrics": st.lists(LABELS, min_size=2, max_size=2),
        "reference": LABELS,
        "tau_values": st.lists(NUMBERS, min_size=1, max_size=3),
        "threshold": NUMBERS,
        "q_params": Q_PARAMS,
        "k": st.integers(),
        "model": st.sampled_from(["BF", "JR"]),
        "out_dir": st.text(max_size=4),
    },
)
BLOCKS = ("grid", "params", "q_params")
KEYS = ("job", "metric", "metrics", "reference", "tau_values", "threshold", "k",
        "model", "out_dir", *BLOCKS, "grid.n_points", "grid.refinement",
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
                   for f in dataclasses.fields(value) if f.name != "f")
    return True


@settings(max_examples=400, deadline=None)
@given(job_texts())
def test_parse_config_gives_a_config_or_a_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, JobConfig)
    assert _finite_numbers(cfg)
    for n in cfg.refinement or ():
        Grid(n, cfg.grid.p_max, cfg.grid.mask_fraction)
    for label in filter(None, (cfg.metric, cfg.reference, *cfg.metrics)):
        assert _finite_numbers(spec_from_label(label, cfg.params))


@settings(max_examples=200, deadline=None)
@given(refinement=REFINEMENT, mask_fraction=st.floats(0.0, 0.49))
def test_accepted_refinement_sizes_make_grids(refinement, mask_fraction):
    grid = {"n_points": 129, "mask_fraction": mask_fraction, "refinement": refinement}
    try:
        cfg = parse_config(json.dumps({"job": "algebra-check", "grid": grid}))
    except ConfigError:
        return
    for n in cfg.refinement:
        Grid(n, cfg.grid.p_max, cfg.grid.mask_fraction)
