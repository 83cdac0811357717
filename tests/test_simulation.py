"""Deterministic survey simulation and its statistical round trips."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssifit import (
    ConstantSigma,
    DataError,
    NumericalError,
    RssiSurvey,
    ShadowedPathLossModel,
    SigmaPolynomial,
    SimulationSpec,
    fit_path_loss,
    predict_mean_rss,
    sigma_at,
    simulate_survey,
    standard_normals,
    survey_stats,
)

MODEL = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0, sigma=ConstantSigma(2.0))


def spec(**overrides):
    base = dict(
        model=MODEL,
        distances=tuple(float(d) for d in range(1, 21)),
        samples_per_distance=100,
        seed=42,
    )
    base.update(overrides)
    return SimulationSpec(**base)


def scalar_reference_normals(seed, distance_index, count):
    """Independent rederivation of the documented generator in scalar
    integer arithmetic (the implementation is vectorized uint64)."""
    mask = (1 << 64) - 1
    golden = 0x9E3779B97F4A7C15

    def mix(z):
        z &= mask
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & mask
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        return z

    def unit(w):
        return ((w >> 11) + 1) * 2.0**-53

    h = mix(seed + golden * (distance_index + 1))
    out = []
    for j in range(1, count + 1):
        k = mix((h + golden * j) & mask)
        u1 = unit(mix((k + golden) & mask))
        u2 = unit(mix((k + 2 * golden) & mask))
        out.append(math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2))
    return out


def test_generator_matches_scalar_rederivation_bit_for_bit():
    for seed in (0, 42, 2**63 - 1, 2**64 - 1):
        for idx in (0, 3, 1000):
            got = standard_normals(seed, idx, 17)
            want = scalar_reference_normals(seed, idx, 17)
            assert [float(v) for v in got] == want


def test_generator_regression_values_frozen():
    # frozen output of the documented algorithm at seed 42, row 0
    want = [
        1.2129747974753915,
        0.38134416936208115,
        0.8022858099929157,
        1.1499814931233339,
        0.7378286547720204,
    ]
    assert [float(v) for v in standard_normals(42, 0, 5)] == want


def test_identical_specs_give_identical_surveys():
    assert simulate_survey(spec()) == simulate_survey(spec())


def test_noiseless_model_reproduces_trend_exactly():
    silent = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0)
    survey = simulate_survey(spec(model=silent, samples_per_distance=5))
    for d, samples in survey.rows:
        expected = predict_mean_rss(silent, d)
        assert all(s == expected for s in samples)
    zero_sigma = ShadowedPathLossModel(
        d0=1.0, rss_d0=-40.0, eta=2.0, sigma=ConstantSigma(0.0)
    )
    survey = simulate_survey(spec(model=zero_sigma, samples_per_distance=5))
    assert all(
        s == predict_mean_rss(zero_sigma, d) for d, row in survey.rows for s in row
    )


def test_appending_distances_preserves_existing_samples():
    short = simulate_survey(spec(distances=(1.0, 2.0, 3.0)))
    long = simulate_survey(spec(distances=(1.0, 2.0, 3.0, 4.0, 5.0)))
    assert long.rows[:3] == short.rows


def test_extending_sample_count_preserves_the_prefix():
    few = simulate_survey(spec(samples_per_distance=10))
    many = simulate_survey(spec(samples_per_distance=25))
    for (d1, s1), (d2, s2) in zip(few.rows, many.rows):
        assert d1 == d2
        assert s2[:10] == s1


def test_different_seeds_give_different_samples():
    a = simulate_survey(spec(seed=1))
    b = simulate_survey(spec(seed=2))
    assert a.rows != b.rows


def test_simulated_moments_converge_to_model():
    # 1e4 samples: mean within 5*sigma/sqrt(n), SD within 5% of sigma
    big = simulate_survey(
        spec(distances=(1.0, 5.0, 10.0), samples_per_distance=10_000)
    )
    stats = survey_stats(big)
    for row in stats.rows:
        expected_mean = predict_mean_rss(MODEL, row.distance)
        assert abs(row.mean_rss - expected_mean) <= 5 * 2.0 / math.sqrt(10_000)
        assert abs(row.sd - 2.0) / 2.0 <= 0.05


def test_refit_recovers_exponent_within_band():
    stats = survey_stats(simulate_survey(spec()))
    report = fit_path_loss(stats)
    assert report.eta == pytest.approx(2.0, abs=0.1)


def test_sigma_polynomial_drives_distance_dependent_spread():
    sigma = SigmaPolynomial(a=0, b=0, c=0, e=0.2, f=0.5, d_min=1.0, d_max=20.0)
    noisy = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0, sigma=sigma)
    survey = simulate_survey(
        spec(model=noisy, distances=(2.0, 15.0), samples_per_distance=10_000)
    )
    stats = survey_stats(survey)
    assert stats.rows[0].sd == pytest.approx(0.9, rel=0.05)  # sigma(2)
    assert stats.rows[1].sd == pytest.approx(3.5, rel=0.05)  # sigma(15)


def test_simulation_clamps_sigma_outside_fitted_domain():
    sigma = SigmaPolynomial(a=0, b=0, c=0, e=1.0, f=0.0, d_min=1.0, d_max=5.0)
    noisy = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0, sigma=sigma)
    survey = simulate_survey(
        spec(model=noisy, distances=(50.0,), samples_per_distance=10_000)
    )
    sd = survey_stats(survey).rows[0].sd
    assert sd == pytest.approx(5.0, rel=0.05)  # held at sigma(d_max)


def test_a_sigma_that_overflows_is_refused_by_its_first_distance():
    # 1e305 d^4 overflows from d = 7 m on; numpy's overflow warning (an error
    # under this suite) must not escape before the refusal.
    sigma = SigmaPolynomial(a=1e305, b=0, c=0, e=0, f=1.0, d_min=1.0, d_max=20.0)
    over = ShadowedPathLossModel(d0=1.0, rss_d0=-40.0, eta=2.0, sigma=sigma)
    distances = tuple(float(d) for d in range(1, 21))
    with pytest.raises(NumericalError) as refused:
        simulate_survey(spec(model=over, distances=distances, samples_per_distance=5))
    assert str(refused.value) == (
        "fitted sigma is not finite (inf dB) at d = 7 m; "
        "the sigma model is invalid there"
    )
    survey = simulate_survey(spec(model=over, distances=distances[:3]))
    assert len(survey.rows) == 3  # sigma(3 m) = 8.1e306 dB is finite


def test_spec_validation():
    with pytest.raises(DataError):
        SimulationSpec(model=MODEL, distances=(), samples_per_distance=1, seed=0)
    with pytest.raises(DataError):
        SimulationSpec(model=MODEL, distances=(0.0,), samples_per_distance=1, seed=0)
    with pytest.raises(DataError):
        SimulationSpec(model=MODEL, distances=(1.0,), samples_per_distance=0, seed=0)
    with pytest.raises(DataError):
        SimulationSpec(model=MODEL, distances=(1.0,), samples_per_distance=1, seed=1.5)


def test_seeds_outside_64_bits_are_rejected():
    # mod 2**64, seed -1 would alias 2**64 - 1 and seed 2**64 would alias 0
    for seed in (-1, 2**64):
        with pytest.raises(DataError, match="seed"):
            spec(seed=seed)


def test_largest_seed_keeps_its_survey():
    survey = simulate_survey(
        spec(distances=(1.0, 2.0), samples_per_distance=3, seed=2**64 - 1)
    )
    assert survey.rows == (
        (1.0, (-40.07931615939022, -37.91308645345074, -39.39670480579445)),
        (2.0, (-46.00628000236753, -44.36252635648892, -46.358122858348544)),
    )


def test_survey_carries_generator_provenance():
    survey = simulate_survey(spec(seed=7))
    meta = dict(survey.metadata)
    assert meta["generator"] == "splitmix64-boxmuller-v1"
    assert meta["seed"] == "7"


def per_row_simulate_survey(spec):
    """The row-at-a-time simulator: one generator call per distance."""
    model = spec.model
    rows = []
    for i, d in enumerate(spec.distances):
        mean = predict_mean_rss(model, d)
        sigma = 0.0 if model.sigma is None else sigma_at(model.sigma, d).value
        if sigma == 0.0:
            samples = np.full(spec.samples_per_distance, mean)
        else:
            z = standard_normals(spec.seed, i, spec.samples_per_distance)
            samples = mean + sigma * z
        rows.append((float(d), tuple(float(s) for s in samples)))
    return RssiSurvey(
        site=spec.site,
        rows=tuple(rows),
        metadata=(
            ("generator", "splitmix64-boxmuller-v1"),
            ("seed", str(spec.seed)),
        ),
    )


def bits(survey):
    """Every distance and sample as its exact bit pattern (keeps -0.0)."""
    return [(d.hex(), [s.hex() for s in row]) for d, row in survey.rows]


def outcome(simulate, spec):
    try:
        survey = simulate(spec)
    except NumericalError as exc:  # sigma_at refusing a negative sigma
        return ("error", str(exc))
    return (bits(survey), survey.site, survey.metadata)


coefficient = st.floats(-0.05, 0.05, allow_subnormal=False)
sigma_models = st.one_of(
    st.none(),
    st.builds(ConstantSigma, st.floats(0.0, 12.0)),
    st.builds(
        SigmaPolynomial,
        a=coefficient.map(lambda c: c * 1e-3),
        b=coefficient.map(lambda c: c * 1e-2),
        c=coefficient,
        e=st.floats(-1.0, 1.0),
        f=st.floats(-2.0, 8.0),
        d_min=st.just(1.0),
        d_max=st.floats(2.0, 40.0),
    ),
)
models = st.builds(
    ShadowedPathLossModel,
    d0=st.floats(0.1, 10.0),
    rss_d0=st.floats(-100.0, 0.0),
    eta=st.floats(0.5, 6.0),
    sigma=sigma_models,
)
seeds = st.one_of(st.just(2**64 - 1), st.just(0), st.integers(0, 2**64 - 1))
distance_lists = st.lists(st.floats(0.1, 1e4), min_size=1, max_size=30)


@settings(max_examples=150, deadline=None)
@given(
    model=models,
    distances=distance_lists,
    samples=st.integers(1, 50),
    seed=seeds,
)
@example(
    # sigma(2) = 2 - 2 is exactly zero: a silent row between noisy ones
    model=ShadowedPathLossModel(
        d0=1.0,
        rss_d0=-40.0,
        eta=2.0,
        sigma=SigmaPolynomial(a=0, b=0, c=0, e=1.0, f=-2.0, d_min=1.0, d_max=20.0),
    ),
    distances=[3.0, 2.0, 5.0, 2.0],
    samples=4,
    seed=2**64 - 1,
)
def test_simulate_survey_matches_per_row_loop(model, distances, samples, seed):
    s = SimulationSpec(
        model=model,
        distances=tuple(distances),
        samples_per_distance=samples,
        seed=seed,
    )
    assert outcome(simulate_survey, s) == outcome(per_row_simulate_survey, s)


@settings(max_examples=100, deadline=None)
@given(
    model=models,
    distances=distance_lists,
    extra_distances=st.lists(st.floats(0.1, 1e4), max_size=10),
    samples=st.integers(1, 50),
    extra_samples=st.integers(0, 30),
    seed=seeds,
)
def test_growing_a_survey_never_changes_generated_values(
    model, distances, extra_distances, samples, extra_samples, seed
):
    # the documented contract: each value is a function of (seed, i, j) only
    def run(ds, n):
        return outcome(
            simulate_survey,
            SimulationSpec(
                model=model, distances=tuple(ds), samples_per_distance=n, seed=seed
            ),
        )

    short = run(distances, samples)
    long = run(distances + extra_distances, samples + extra_samples)
    if short[0] == "error":
        # the first negative sigma among the original distances comes first
        assert long == short
        return
    if long[0] == "error":
        return  # a negative sigma at an appended distance
    for (d, row), (d_long, row_long) in zip(short[0], long[0]):
        assert d == d_long
        assert row_long[:samples] == row


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("distances", ("1",), "distance must be a number, got '1'"),
        ("distances", (None,), "distance must be a number, got None"),
        ("distances", 5, "distances must be a sequence, got 5"),
        ("samples_per_distance", 1.5, "samples_per_distance must be an integer"),
        ("samples_per_distance", "3", "samples_per_distance must be an integer"),
        ("samples_per_distance", True, "samples_per_distance must be an integer"),
        ("seed", True, "seed must be an integer"),
        ("site", 5, "site must be a non-empty string"),
    ],
)
def test_spec_refuses_bad_fields_by_name(field, value, message):
    with pytest.raises(DataError, match=message):
        spec(**{field: value})


def test_spec_takes_integer_likes_as_plain_ints():
    numpy_spec = spec(distances=[1, 2], samples_per_distance=np.int64(3),
                      seed=np.uint64(2**64 - 1))
    plain = spec(distances=(1.0, 2.0), samples_per_distance=3, seed=2**64 - 1)
    assert numpy_spec == plain
    assert simulate_survey(numpy_spec) == simulate_survey(plain)
