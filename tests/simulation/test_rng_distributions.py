"""Tests for RNG streams and sampling distributions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simulation import (
    Deterministic,
    Empirical,
    Erlang,
    Exponential,
    Gamma,
    Hyperexponential,
    Lognormal,
    Uniform,
)
from repro.rng import RandomStreams, make_generator, stable_hash


class TestRandomStreams:
    def test_same_seed_same_streams(self):
        a = RandomStreams(seed=42).stream("x").random(5)
        b = RandomStreams(seed=42).stream("x").random(5)
        assert (a == b).all()

    def test_different_names_independent(self):
        streams = RandomStreams(seed=42)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not (a == b).all()

    def test_stream_cached(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("x") is streams.stream("x")

    def test_adding_stream_does_not_perturb_existing(self):
        """The variance-reduction discipline: new components must not
        shift the random sequences of existing ones."""
        solo = RandomStreams(seed=9)
        first_only = solo.stream("pub-0").random(10)

        multi = RandomStreams(seed=9)
        multi.stream("pub-1").random(10)  # an extra component
        first_with_extra = multi.stream("pub-0").random(10)
        assert (first_only == first_with_extra).all()

    def test_spawn_derives_independent_family(self):
        parent = RandomStreams(seed=5)
        child_a = parent.spawn("server-a")
        child_b = parent.spawn("server-b")
        assert child_a.seed != child_b.seed
        assert (
            child_a.stream("x").random(3) != child_b.stream("x").random(3)
        ).any()

    def test_spawn_deterministic(self):
        assert RandomStreams(7).spawn("s").seed == RandomStreams(7).spawn("s").seed

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=-1)

    def test_stable_hash_is_stable(self):
        assert stable_hash("publisher-0") == stable_hash("publisher-0")
        assert stable_hash("a") != stable_hash("b")


RNG = np.random.default_rng(2024)

DISTRIBUTIONS = [
    Deterministic(2.5),
    Exponential(rate=4.0),
    Uniform(1.0, 3.0),
    Gamma(shape=2.5, scale=0.4),
    Erlang(k=3, rate=2.0),
    Lognormal(mu=-1.0, sigma=0.5),
    Hyperexponential(rates=[1.0, 10.0], probabilities=[0.3, 0.7]),
    Empirical([1.0, 2.0, 2.0, 5.0]),
]


class TestDistributionMoments:
    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_analytic_moments_match_empirical(self, dist):
        rng = np.random.default_rng(99)
        samples = dist.sample_many(rng, 200_000)
        assert samples.mean() == pytest.approx(dist.moment(1), rel=0.02)
        assert (samples**2).mean() == pytest.approx(dist.moment(2), rel=0.04)
        assert (samples**3).mean() == pytest.approx(dist.moment(3), rel=0.12)

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_samples_non_negative(self, dist):
        rng = np.random.default_rng(5)
        assert (dist.sample_many(rng, 1000) >= 0).all()

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_moment_order_validation(self, dist):
        with pytest.raises(ValueError):
            dist.moment(4)
        with pytest.raises(ValueError):
            dist.moment(0)

    def test_exponential_moments_closed_form(self):
        d = Exponential(rate=2.0)
        assert d.moment(1) == pytest.approx(0.5)
        assert d.moment(2) == pytest.approx(0.5)
        assert d.moment(3) == pytest.approx(0.75)
        assert d.cvar == pytest.approx(1.0)

    def test_deterministic_cvar_zero(self):
        assert Deterministic(3.0).cvar == 0.0
        assert Deterministic(0.0).cvar == 0.0

    def test_erlang_cvar(self):
        assert Erlang(k=4, rate=1.0).cvar == pytest.approx(0.5)

    def test_uniform_moments(self):
        d = Uniform(0.0, 2.0)
        assert d.moment(1) == pytest.approx(1.0)
        assert d.moment(2) == pytest.approx(4.0 / 3.0)
        assert d.moment(3) == pytest.approx(2.0)

    def test_degenerate_uniform(self):
        d = Uniform(2.0, 2.0)
        assert d.moment(2) == pytest.approx(4.0)

    def test_hyperexponential_high_variability(self):
        d = Hyperexponential(rates=[0.1, 10.0], probabilities=[0.1, 0.9])
        assert d.cvar > 1.0

    def test_lognormal_moment_formula(self):
        d = Lognormal(mu=0.0, sigma=1.0)
        assert d.moment(1) == pytest.approx(np.exp(0.5))
        assert d.moment(2) == pytest.approx(np.exp(2.0))


class TestValidation:
    def test_exponential_rate(self):
        with pytest.raises(ValueError):
            Exponential(rate=0.0)

    def test_uniform_bounds(self):
        with pytest.raises(ValueError):
            Uniform(3.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(-1.0, 1.0)

    def test_gamma_parameters(self):
        with pytest.raises(ValueError):
            Gamma(shape=0.0, scale=1.0)

    def test_erlang_integer_k(self):
        with pytest.raises(ValueError):
            Erlang(k=0, rate=1.0)
        with pytest.raises(ValueError):
            Erlang(k=1, rate=0.0)

    def test_hyperexponential_probabilities(self):
        with pytest.raises(ValueError):
            Hyperexponential(rates=[1.0], probabilities=[0.5])
        with pytest.raises(ValueError):
            Hyperexponential(rates=[1.0, -1.0], probabilities=[0.5, 0.5])
        with pytest.raises(ValueError):
            Hyperexponential(rates=[], probabilities=[])

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            Empirical([])
        with pytest.raises(ValueError):
            Empirical([-1.0])

    def test_deterministic_negative(self):
        with pytest.raises(ValueError):
            Deterministic(-1.0)

    def test_lognormal_sigma(self):
        with pytest.raises(ValueError):
            Lognormal(mu=0.0, sigma=-0.1)


class TestMomentConsistencyProperty:
    @given(
        rate=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=50)
    def test_exponential_jensen(self, rate):
        d = Exponential(rate)
        assert d.moment(2) >= d.moment(1) ** 2

    @given(
        shape=st.floats(min_value=0.05, max_value=50.0),
        scale=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=50)
    def test_gamma_cvar_formula(self, shape, scale):
        d = Gamma(shape, scale)
        assert d.cvar == pytest.approx(1.0 / np.sqrt(shape), rel=1e-9)


class TestSampleMany:
    def test_hyperexponential_sample_many_moments(self):
        dist = Hyperexponential(probabilities=(0.5, 0.5), rates=(1.0, 10.0))
        rng = RandomStreams(seed=9).stream("hyper")
        values = list(dist.sample_many(rng, 4000))
        assert sum(values) / len(values) == pytest.approx(dist.mean, rel=0.1)

    def test_erlang_sample_many_positive(self):
        dist = Erlang(3, 2.0)
        rng = RandomStreams(seed=9).stream("erlang")
        values = list(dist.sample_many(rng, 100))
        assert all(v > 0 for v in values)
        assert math.isfinite(sum(values))


def _in_support(dist, values) -> bool:
    """Whether every draw lies where ``dist`` puts its mass."""
    if isinstance(dist, Deterministic):
        return bool((values == dist.value).all())
    if isinstance(dist, Uniform):
        return bool(((values >= dist.low) & (values <= dist.high)).all())
    if isinstance(dist, Empirical):
        return bool(np.isin(values, dist.values).all())
    return bool((values > 0).all())


class TestSampleContract:
    """What every distribution hands its callers: ``sample`` a Python
    float, ``sample_many`` a float array that a seed reproduces.  The
    FIFO-queue drivers and the metrics index and vectorise over these
    arrays."""

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_sample_is_a_python_float(self, dist):
        value = dist.sample(np.random.default_rng(3))
        assert type(value) is float

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_sample_many_is_a_float_array_of_the_asked_size(self, dist):
        values = dist.sample_many(np.random.default_rng(3), 17)
        assert isinstance(values, np.ndarray)
        assert values.shape == (17,)
        assert values.dtype.kind == "f"

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_sample_many_of_zero_is_empty(self, dist):
        values = dist.sample_many(np.random.default_rng(3), 0)
        assert isinstance(values, np.ndarray)
        assert values.shape == (0,)

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_sample_many_is_reproducible_under_a_seed(self, dist):
        a = dist.sample_many(RandomStreams(seed=21).stream("d"), 64)
        b = dist.sample_many(RandomStreams(seed=21).stream("d"), 64)
        assert (a == b).all()

    @pytest.mark.parametrize("dist", DISTRIBUTIONS, ids=lambda d: type(d).__name__)
    def test_samples_lie_in_the_support(self, dist):
        rng = np.random.default_rng(8)
        assert _in_support(dist, dist.sample_many(rng, 2000))
        assert _in_support(dist, np.asarray([dist.sample(rng) for _ in range(50)]))


class TestGenerator:
    """The one RNG backend: numpy generators seeded through ``SeedSequence``."""

    @pytest.mark.parametrize(
        "material", [0, 42, [1, 2, 3], [7, stable_hash("publisher-0")]], ids=repr
    )
    def test_make_generator_is_seed_sequence_seeded(self, material):
        expected = np.random.default_rng(np.random.SeedSequence(material))
        assert (make_generator(material).random(8) == expected.random(8)).all()

    def test_seed_material_matters(self):
        a = make_generator([1, 2, 3]).exponential(1.0, size=4)
        b = make_generator([1, 2, 4]).exponential(1.0, size=4)
        assert not (a == b).any()

    def test_a_stream_is_the_generator_of_its_seed_and_name(self):
        stream = RandomStreams(seed=9).stream("publisher-0")
        direct = make_generator([9, stable_hash("publisher-0")])
        assert (stream.random(8) == direct.random(8)).all()

    def test_deterministic_given_seed(self):
        a = make_generator(42)
        b = make_generator(42)
        assert (a.exponential(2.0, size=5) == b.exponential(2.0, size=5)).all()
        assert a.random() == b.random()

    @pytest.mark.parametrize(
        "draw",
        [
            lambda g, **kw: g.exponential(1.0, **kw),
            lambda g, **kw: g.uniform(0.0, 1.0, **kw),
            lambda g, **kw: g.gamma(2.0, 0.5, **kw),
            lambda g, **kw: g.lognormal(0.0, 1.0, **kw),
        ],
        ids=["exponential", "uniform", "gamma", "lognormal"],
    )
    def test_scalar_vs_batch_shapes(self, draw):
        gen = make_generator(1)
        assert isinstance(draw(gen), float)
        batch = draw(gen, size=4)
        assert isinstance(batch, np.ndarray) and batch.shape == (4,)

    def test_exponential_scale(self):
        values = make_generator(7).exponential(3.0, size=4000)
        assert values.mean() == pytest.approx(3.0, rel=0.1)

    def test_uniform_bounds(self):
        values = make_generator(7).uniform(2.0, 5.0, size=500)
        assert ((values >= 2.0) & (values < 5.0)).all()

    def test_choice_from_int_population(self):
        values = make_generator(7).choice(4, size=200)
        assert set(values.tolist()) <= {0, 1, 2, 3}

    def test_choice_with_probabilities(self):
        values = make_generator(7).choice([10, 20], size=500, p=[0.9, 0.1])
        assert (values == 10).sum() > (values == 20).sum()

    def test_geometric_support(self):
        values = make_generator(7).geometric(0.4, size=500)
        assert values.dtype.kind == "i" and (values >= 1).all()
        assert values.mean() == pytest.approx(2.5, rel=0.15)

    def test_binomial_support(self):
        values = make_generator(7).binomial(10, 0.5, size=500)
        assert ((values >= 0) & (values <= 10)).all()
        assert values.mean() == pytest.approx(5.0, rel=0.1)

    def test_gamma_and_lognormal_positive(self):
        gen = make_generator(7)
        assert (gen.gamma(2.0, 0.5, size=100) > 0).all()
        assert (gen.lognormal(0.0, 1.0, size=100) > 0).all()
