"""Property tests of the config path: a JSON config object is either accepted
or rejected with ConfigError, a config of legal values is accepted, and an
accepted config runs the reduction and convergence suites."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from cl13.fields import random_family
from cl13.subspaces import IDEMPOTENT_LABELS, fixed_idempotent
from cl13.verify import (
    _MASS_LIMIT,
    _SEED_LIMIT,
    _STEP_RANGE,
    DEFAULT_TOLERANCES,
    SUITE_NAMES,
    ConfigError,
    ScenarioConfig,
    run_scenario,
)

LEGAL = {
    "suite": st.sampled_from(SUITE_NAMES),
    "seed": st.integers(0, _SEED_LIMIT),
    "m_values": st.lists(
        st.floats(-_MASS_LIMIT, _MASS_LIMIT, exclude_min=True, exclude_max=True),
        min_size=1,
        max_size=3,
    ),
    "grid_steps": st.lists(st.floats(*_STEP_RANGE), min_size=2, max_size=3, unique=True),
    "tolerances": st.dictionaries(
        st.sampled_from(sorted(DEFAULT_TOLERANCES)),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        max_size=3,
    ),
    "family": st.one_of(
        st.just("random"),
        st.just({"factors": []}),
        st.integers(0, 50).map(lambda seed: random_family(seed).to_json_obj()),
    ),
    "sample_count": st.integers(1, 3),
    "idempotent": st.one_of(
        st.sampled_from(IDEMPOTENT_LABELS),
        st.sampled_from(IDEMPOTENT_LABELS).map(lambda t: fixed_idempotent(t).element.to_json_obj()),
    ),
    "format": st.sampled_from(["json", "text"]),
}

MALFORMED = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**1100), 2**1100),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
)
NUMBER_LISTS = st.lists(
    st.one_of(st.floats(), st.integers(-(2**1100), 2**1100), MALFORMED), max_size=3
)
MIXED = {key: st.one_of(legal, MALFORMED) for key, legal in LEGAL.items()}
MIXED["m_values"] = MIXED["grid_steps"] = st.one_of(NUMBER_LISTS, MALFORMED)
MIXED["tolerances"] = st.one_of(
    st.dictionaries(st.sampled_from([*DEFAULT_TOLERANCES, "bogus"]), MALFORMED, max_size=2),
    MALFORMED,
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.fixed_dictionaries({}, optional=MIXED))
def test_a_config_object_is_accepted_or_raises_config_error(obj):
    try:
        cfg = ScenarioConfig.from_json_obj(obj)
    except ConfigError:
        return
    assert isinstance(cfg, ScenarioConfig)


@settings(max_examples=6, derandomize=True, deadline=None)
@given(
    st.fixed_dictionaries(
        {"sample_count": LEGAL["sample_count"]},
        optional={k: v for k, v in LEGAL.items() if k != "sample_count"},
    )
)
def test_a_legal_config_is_accepted_and_runs_reduction_and_convergence(obj):
    cfg = ScenarioConfig.from_json_obj(obj)
    for suite in ("reduction", "convergence"):
        run_scenario(replace(cfg, suite=suite))
