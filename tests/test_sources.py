import numpy as np
import pytest
from scipy import stats

from seqshape import SourceSpec, probabilities, sample, trial_rng


class TestSourceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SourceSpec(ns=1, n=10, pmax=0.5)
        with pytest.raises(ValueError):
            SourceSpec(ns=3, n=0, pmax=0.5)
        with pytest.raises(ValueError):
            SourceSpec(ns=3, n=10, pmax=0.0)
        with pytest.raises(ValueError):
            SourceSpec(ns=3, n=10, pmax=1.0)

    @pytest.mark.parametrize("ns", [2, 3, 30, 40, 50, 60])
    @pytest.mark.parametrize("pmax", [0.1, 0.5, 0.9])
    def test_probability_vector(self, ns, pmax):
        p = probabilities(SourceSpec(ns=ns, n=400, pmax=pmax))
        assert p.shape == (ns,)
        assert abs(p.sum() - 1.0) < 1e-12
        assert p[ns - 1] == pmax
        assert np.allclose(p[: ns - 1], (1 - pmax) / (ns - 1))
        assert (p > 0).all()


class TestSampling:
    def test_deterministic(self):
        spec = SourceSpec(ns=40, n=400, pmax=0.5)
        assert sample(spec, 42, 7) == sample(spec, 42, 7)

    def test_trials_differ(self):
        spec = SourceSpec(ns=40, n=400, pmax=0.5)
        assert sample(spec, 42, 0) != sample(spec, 42, 1)
        assert sample(spec, 42, 0) != sample(spec, 43, 0)

    def test_substreams_are_independent_of_call_order(self):
        spec = SourceSpec(ns=10, n=50, pmax=0.3)
        forward = [sample(spec, 9, t) for t in range(5)]
        backward = [sample(spec, 9, t) for t in reversed(range(5))]
        assert forward == list(reversed(backward))

    def test_symbols_in_range(self):
        spec = SourceSpec(ns=5, n=2000, pmax=0.6)
        s = sample(spec, 0, 0)
        assert len(s) == 2000
        assert s.symbols.min() >= 0 and s.symbols.max() < 5

    def test_favored_symbol_mean_count(self):
        # mean count of symbol ns-1 over 1000 trials, 5 sigma band around 200
        spec = SourceSpec(ns=40, n=400, pmax=0.5)
        counts = [
            int((sample(spec, 1234, t).symbols == 39).sum()) for t in range(1000)
        ]
        mean = np.mean(counts)
        sigma = np.sqrt(400 * 0.5 * 0.5 / 1000)
        assert abs(mean - 200.0) < 5 * sigma

    def test_uniform_case_counts(self):
        ns = 8
        spec = SourceSpec(ns=ns, n=100_000, pmax=1 / ns)
        counts = np.bincount(sample(spec, 77, 0).symbols, minlength=ns)
        expected = 100_000 / ns
        sigma = np.sqrt(100_000 * (1 / ns) * (1 - 1 / ns))
        assert np.abs(counts - expected).max() < 5 * sigma

    def test_chi_square_goodness_of_fit(self):
        # 10^6 pooled draws against the spec vector at significance 1e-6
        spec = SourceSpec(ns=40, n=100_000, pmax=0.5)
        pooled = np.zeros(40, dtype=np.int64)
        for trial in range(10):
            pooled += np.bincount(sample(spec, 4242, trial).symbols, minlength=40)
        total = pooled.sum()
        expected = probabilities(spec) * total
        chi2 = float(((pooled - expected) ** 2 / expected).sum())
        p_value = float(stats.chi2.sf(chi2, df=39))
        assert p_value > 1e-6

    def test_seed_validation(self):
        spec = SourceSpec(ns=3, n=5, pmax=0.5)
        with pytest.raises(ValueError):
            sample(spec, -1, 0)
        with pytest.raises(ValueError):
            sample(spec, 2**64, 0)
        with pytest.raises(ValueError):
            sample(spec, 0, -1)

    @pytest.mark.parametrize("draw", [sample, lambda spec, seed, trial: trial_rng(seed, trial)])
    @pytest.mark.parametrize(
        "seed,trial,named",
        [(1.9, 0, "seed"), (True, 0, "seed"), (0, 0.5, "trial"), (0, False, "trial")],
    )
    def test_seed_and_trial_must_be_integers(self, draw, seed, trial, named):
        spec = SourceSpec(ns=3, n=5, pmax=0.5)
        with pytest.raises(TypeError, match=f"{named}.* must be an integer"):
            draw(spec, seed, trial)

    def test_trial_rng_streams_differ(self):
        a = trial_rng(5, 0).random(4)
        b = trial_rng(5, 1).random(4)
        assert not np.allclose(a, b)
