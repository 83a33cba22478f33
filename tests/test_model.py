import numpy as np
import pytest

from srdf_kit import (
    CovarianceModel,
    IndexOutOfRange,
    NotPositiveDefinite,
    NotSquare,
    NotSymmetric,
    SamplingSet,
    as_sampling_set,
    partition,
    validate_covariance,
)


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


class TestPartition:
    def test_blocks_match_slices(self):
        rng = np.random.default_rng(1)
        sig = random_spd(rng, 5)
        model = CovarianceModel(sig)
        bp = partition(model, [2, 5])
        a = [1, 4]
        ac = [0, 2, 3]
        assert np.array_equal(bp.sigma_a, model.sigma[np.ix_(a, a)])
        assert np.array_equal(bp.sigma_a_ac, model.sigma[np.ix_(a, ac)])
        assert np.array_equal(bp.sigma_ac, model.sigma[np.ix_(ac, ac)])
        assert bp.k == 2 and bp.m == 5

    def test_rejects_label_beyond_m(self):
        model = CovarianceModel(np.eye(2))
        with pytest.raises(IndexOutOfRange):
            partition(model, [3])
