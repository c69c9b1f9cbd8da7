"""Property-based tests for the workload generator and spec arithmetic."""

from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import ScaleProfile
from repro.workloads.base import OSInvocation, SharingModel, UserSegment, WorkloadSpec
from repro.workloads.generator import TraceGenerator, choice_cdf
from repro.workloads.presets import all_workloads, get_workload

PROFILE = ScaleProfile(name="prop", scale=4000, cache_scale=32, l1_scale=4)

WORKLOADS = st.sampled_from(["apache", "specjbb2005", "derby", "mcf"])
SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)
BUDGETS = st.integers(min_value=100, max_value=40_000)


@given(name=WORKLOADS, seed=SEEDS, budget=BUDGETS)
@settings(max_examples=40, deadline=None)
def test_trace_events_are_well_formed(name, seed, budget):
    generator = TraceGenerator(get_workload(name), PROFILE, seed=seed)
    total = 0
    for event in generator.events(budget):
        if isinstance(event, UserSegment):
            assert event.instructions >= 1
            total += event.instructions
        else:
            assert isinstance(event, OSInvocation)
            assert event.length >= event.pre_interrupt_length >= 1
            assert 0.0 <= event.shared_fraction <= 1.0
            assert event.size_units >= 0
            total += event.length
    assert total >= budget


@given(name=WORKLOADS, seed=SEEDS)
@settings(max_examples=25, deadline=None)
def test_trace_is_seed_deterministic(name, seed):
    spec = get_workload(name)
    a = list(TraceGenerator(spec, PROFILE, seed=seed).events(20_000))
    b = list(TraceGenerator(spec, PROFILE, seed=seed).events(20_000))
    assert a == b


@given(name=WORKLOADS, seed=SEEDS, instructions=st.integers(1, 20_000))
@settings(max_examples=30, deadline=None)
def test_user_access_streams_shape(name, seed, instructions):
    generator = TraceGenerator(get_workload(name), PROFILE, seed=seed)
    lines, writes = generator.user_accesses(instructions)
    assert len(lines) == len(writes)
    assert len(lines) == int(instructions * generator.spec.memory.memory_ratio)
    assert (lines >= 0).all()


@given(
    short=st.floats(0.0, 1.0),
    long_fraction=st.floats(0.0, 1.0),
    decay=st.floats(1.0, 10_000.0),
    length=st.integers(1, 10 ** 6),
)
@settings(max_examples=200, deadline=None)
def test_sharing_fraction_always_in_bounds(short, long_fraction, decay, length):
    if long_fraction > short:
        short, long_fraction = long_fraction, short
    sharing = SharingModel(
        short_fraction=short, long_fraction=long_fraction, decay_length=decay
    )
    fraction = sharing.fraction_for(length)
    assert long_fraction - 1e-9 <= fraction <= short + 1e-9


@given(os_fraction=st.floats(0.01, 0.9))
@settings(max_examples=50, deadline=None)
def test_mean_user_segment_inverts_os_fraction(os_fraction):
    spec = WorkloadSpec(
        name="prop",
        syscall_mix=(("read", 1.0), ("getpid", 2.0)),
        os_fraction=os_fraction,
    )
    mean_os = spec.expected_syscall_length()
    mean_user = spec.mean_user_segment()
    realised = mean_os / (mean_os + mean_user)
    assert abs(realised - os_fraction) < 1e-9


WEIGHTS = st.lists(
    st.floats(0.0, 1e6, allow_subnormal=False), min_size=1, max_size=16
).filter(lambda weights: sum(weights) > 0)
#: Every preset's syscall mix and size-class mix.
PRESET_MIXES = [
    mix
    for spec in all_workloads()
    for mix in ([w for _, w in spec.syscall_mix], list(spec.size_weights))
]


def _assert_cdf_draws_match_choice(weights, seed, draws):
    p = np.asarray(weights, dtype=float)
    p = p / p.sum()
    cdf = choice_cdf(weights)
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    for _ in range(draws):
        assert bisect_right(cdf, rng_a.random()) == rng_b.choice(len(p), p=p)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@given(weights=WEIGHTS, seed=SEEDS)
@settings(max_examples=100, deadline=None)
def test_cdf_draw_matches_generator_choice(weights, seed):
    _assert_cdf_draws_match_choice(weights, seed, draws=50)


@given(seed=SEEDS)
@settings(max_examples=20, deadline=None)
def test_cdf_draw_matches_generator_choice_on_preset_mixes(seed):
    for weights in PRESET_MIXES:
        _assert_cdf_draws_match_choice(weights, seed, draws=100)
