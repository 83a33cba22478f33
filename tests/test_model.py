import numpy as np
import pytest

from srdf_kit import (
    CovarianceModel,
    IndexOutOfRange,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
    SamplingSet,
    ValidationError,
    as_sampling_set,
    min_distortion,
    srdf_spectrum,
    validate_covariance,
)
from srdf_kit.model import FLOAT_MAX, _blocks


def random_spd(rng, m, jitter=0.5):
    a = rng.standard_normal((m, m))
    return a @ a.T + jitter * np.eye(m)


class TestValidateCovariance:
    def test_accepts_spd(self):
        rng = np.random.default_rng(0)
        for m in (1, 2, 5):
            sig = random_spd(rng, m)
            out = validate_covariance(sig)
            assert out.shape == (m, m)
            assert np.allclose(out, out.T)

    def test_symmetrizes_tiny_skew(self):
        sig = np.array([[2.0, 0.5], [0.5 + 1e-12, 1.0]])
        out = validate_covariance(sig)
        assert out[0, 1] == out[1, 0]

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSquare):
            validate_covariance(np.ones((2, 3)))

    def test_rejects_vector(self):
        with pytest.raises(NotSquare):
            validate_covariance(np.ones(4))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            validate_covariance(np.array([[1.0, 0.3], [0.1, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            validate_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_semidefinite(self):
        v = np.array([[1.0], [1.0]])
        with pytest.raises(NotPositiveDefinite):
            validate_covariance(v @ v.T)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotPositiveDefinite):
            validate_covariance(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            CovarianceModel(np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma", [
        np.array([[1.7e308]]),
        np.diag([1.7e308, 1.7e308]),             # finite and positive definite, but its trace overflows
        np.array([[1e308, -1e308], [-1e308, 1e308]]),
        np.array([[1e308, 1e308], [-1e308, 1e308]]),   # its skew overflows too
        np.eye(3) * (FLOAT_MAX / 5.0),
    ], ids=["lone-1x1", "diag", "negative", "asymmetric", "trace-3x3"])
    def test_rejects_entries_whose_sums_overflow_without_a_warning(self, sigma):
        for raw in (sigma, np.stack([np.eye(len(sigma)), sigma])):   # alone, and second in a stack
            with pytest.raises(ValidationError, match="overflows") as caught:
                validate_covariance(raw)
            assert type(caught.value) is ValidationError

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [1, 2, 3, 7])
    def test_accepts_the_largest_entries_whose_sums_stay_finite(self, m):
        sigma = np.eye(m) * (FLOAT_MAX / (2 * m))
        assert validate_covariance(sigma).tobytes() == sigma.tobytes()
        assert validate_covariance(np.stack([sigma, np.eye(m)]))[0].tobytes() == sigma.tobytes()


class TestCovarianceModel:
    def test_frozen_and_readonly(self):
        model = CovarianceModel(np.eye(3))
        assert model.m == 3
        with pytest.raises(Exception):
            model.sigma[0, 0] = 5.0

    def test_input_copy_is_detached(self):
        raw = np.eye(2)
        model = CovarianceModel(raw)
        raw[0, 0] = 7.0
        assert model.sigma[0, 0] == 1.0


class TestSamplingSet:
    def test_basic(self):
        ss = SamplingSet((1, 3))
        assert ss.k == 2
        assert ss.zero_based().tolist() == [0, 2]
        assert ss.complement(4).tolist() == [1, 3]

    def test_list_coerces(self):
        ss = SamplingSet([2, 4])
        assert ss.indices == (2, 4)

    def test_as_sampling_set_passthrough(self):
        ss = SamplingSet((1,))
        assert as_sampling_set(ss) is ss
        assert as_sampling_set([1, 2]).indices == (1, 2)

    @pytest.mark.parametrize("bad", [(), (0,), (2, 1), (1, 1), (-1,), (1.5,), (1, 2.0), ("one",), (True,), (True, 2)])
    def test_rejects_bad_sets(self, bad):
        with pytest.raises(IndexOutOfRange):
            SamplingSet(bad)

    def test_full_set_complement_empty(self):
        ss = SamplingSet((1, 2))
        assert ss.complement(2).size == 0


class TestBlocks:
    @staticmethod
    def assert_slices(sigma, a, blocks):
        """``blocks`` are the np.ix_ slices of ``sigma`` along rows ``a``, bit for bit, and np.trace's variance."""
        ac = [i for i in range(len(sigma)) if i not in a]
        sigma_a, cross, variance = blocks
        assert np.array_equal(sigma_a, sigma[np.ix_(a, a)])
        assert np.array_equal(cross, sigma[np.ix_(a, ac)])
        assert variance == np.trace(sigma[np.ix_(ac, ac)])

    @pytest.mark.parametrize("m, rows", [
        (5, [[1, 4], [0, 2], [3, 4]]),
        (12, [[0, 5], [2, 11], [3, 7]]),         # ten unsampled variances: numpy's pairwise sum unrolls
        (4, [[0, 1, 2, 3], [0, 1, 2, 3]]),        # nothing unsampled: no cross block, variance 0
    ])
    def test_blocks_match_slices(self, m, rows):
        rng = np.random.default_rng(m)
        sigmas = np.stack([random_spd(rng, m) for _ in range(3)])
        subsets = np.array(rows)
        for sigma in sigmas:
            for a in subsets:
                self.assert_slices(sigma, a.tolist(), _blocks(sigma, a))
        atoms = _blocks(sigmas, subsets[0])   # an atom stack along one set
        subset_stack = _blocks(sigmas[0], subsets)
        for i, sigma in enumerate(sigmas):
            self.assert_slices(sigma, subsets[0].tolist(), [block[i] for block in atoms])
        for i, a in enumerate(subsets):
            self.assert_slices(sigmas[0], a.tolist(), [block[i] for block in subset_stack])

    @pytest.mark.parametrize("query", [srdf_spectrum, min_distortion])
    def test_rejects_label_beyond_m(self, query):
        model = CovarianceModel(np.eye(2))
        with pytest.raises(IndexOutOfRange):
            query(model, [3])
