"""Property tests of the config path: a JSON config object is either accepted
or rejected with ConfigError, a config of legal values is accepted, an
accepted config runs the reduction and convergence suites, and a custom
family up to the size limits (of its values and of its derivatives) runs
every field suite without overflow."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cl13.algebra import CliffordElement
from cl13.fields import FieldFamily, random_family
from cl13.shapes import TrigShape, constant_shape
from cl13.subspaces import IDEMPOTENT_LABELS, fixed_idempotent
from cl13.verify import (
    _FAMILY_LIMIT,
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
        st.sampled_from(IDEMPOTENT_LABELS).map(lambda t: fixed_idempotent(t).to_json_obj()),
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


# The generator along which h = W^-1 e^mu W grows fastest for its size: two
# commuting boosts, so |h| grows as exp(2 sqrt(2) |v s|).
_FASTEST = (CliffordElement.from_blade("e01") + CliffordElement.from_blade("e2", 1j)) * 0.5**0.5
_LARGEST_MASS = float(np.nextafter(_MASS_LIMIT, 0.0))


def _family_of_size(size: float, step: float, seed: int, kind: str) -> dict:
    """random_family(seed), its shapes on the fastest generator, that
    generator on a constant shape (which reaches the bound everywhere), or
    that generator on a plane wave of wave vector up to 10^(1 + seed % 3) per
    axis (whose derivative bound exceeds its value bound), rescaled so that
    the larger of its two bounds at grid step ``step`` is ``size``."""
    fam = random_family(seed)
    if kind == "fastest":
        fam = FieldFamily(tuple((_FASTEST, s) for _, s in fam.factors))
    if kind == "constant":
        fam = FieldFamily(((_FASTEST, constant_shape(1.0)),))
    if kind == "steep":
        wave = np.random.default_rng(seed).uniform(-1.0, 1.0, 4) * 10.0 ** (1 + seed % 3)
        fam = FieldFamily(((_FASTEST, TrigShape("sin", 1.0, wave)),))
    k = size / max(fam.bound(step), fam.derivative_bound(step))
    return FieldFamily(tuple((v * k, s) for v, s in fam.factors)).to_json_obj()


# Grid steps (h, 2h), so the bound's widening spans the legal range while the
# slope fit stays well conditioned.
STEP_PAIRS = st.floats(_STEP_RANGE[0], _STEP_RANGE[1] / 2).map(lambda h: [h, 2 * h])


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    st.integers(0, 50),
    st.sampled_from(["random", "fastest", "constant"]),
    LEGAL["m_values"],
    STEP_PAIRS,
)
def test_a_family_up_to_the_size_limit_runs_every_field_suite(seed, kind, masses, steps):
    step = max(steps)
    cfg = ScenarioConfig(
        family=_family_of_size(0.999 * _FAMILY_LIMIT, step, seed, kind),
        m_values=[_LARGEST_MASS, *masses],
        grid_steps=steps,
        sample_count=2,
    )
    for suite in ("reduction", "symmetries", "convergence"):
        run_scenario(replace(cfg, suite=suite))
    with pytest.raises(ConfigError):
        replace(cfg, family=_family_of_size(1.001 * _FAMILY_LIMIT, step, seed, kind))


@settings(max_examples=8, derandomize=True, deadline=None)
@given(st.integers(0, 50), LEGAL["m_values"], STEP_PAIRS)
def test_a_family_up_to_the_derivative_limit_runs_every_field_suite(seed, masses, steps):
    step = max(steps)
    family = _family_of_size(0.999 * _FAMILY_LIMIT, step, seed, "steep")
    fam = FieldFamily.from_json_obj(family)
    assert fam.bound(step) < fam.derivative_bound(step) < _FAMILY_LIMIT
    cfg = ScenarioConfig(
        family=family, m_values=[_LARGEST_MASS, *masses], grid_steps=steps, sample_count=2
    )
    for suite in ("reduction", "symmetries", "convergence"):
        run_scenario(replace(cfg, suite=suite))
    with pytest.raises(ConfigError):
        replace(cfg, family=_family_of_size(1.001 * _FAMILY_LIMIT, step, seed, "steep"))
