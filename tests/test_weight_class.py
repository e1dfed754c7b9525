import numpy as np
import pytest

from fracvolt import StandardWeight
from fracvolt.weight_class import (EVIDENCE_AGAINST, EVIDENCE_FOR, classify,
                                   classify_dcheck, classify_dhat)


class TestGroundTruth:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    def test_standard_family_both_classes(self, beta):
        rep = classify(StandardWeight(beta))
        assert rep.verdicts["dhat"] == EVIDENCE_FOR
        assert rep.verdicts["dcheck"] == EVIDENCE_FOR
        assert rep.verdicts["doubling"] == EVIDENCE_FOR

    def test_exponential_fails_upper(self, exp_weight):
        rep = classify(exp_weight)
        assert rep.verdicts["dhat"] == EVIDENCE_AGAINST
        assert rep.verdicts["dcheck"] == EVIDENCE_FOR   # tail drops hard
        assert rep.verdicts["doubling"] == EVIDENCE_AGAINST

    def test_slowly_varying_fails_lower(self, slow_tail_weight):
        rep = classify(slow_tail_weight)
        assert rep.verdicts["dhat"] == EVIDENCE_FOR
        assert rep.verdicts["dcheck"] == EVIDENCE_AGAINST


class TestProfiles:
    def test_beta1_ratio_exactly_two(self, std1):
        frag = classify_dhat(std1)
        ratios = np.exp([lr for _, lr in frag["dhat_tail_profile"]])
        np.testing.assert_allclose(ratios, 2.0, rtol=1e-9)
        np.testing.assert_allclose(frag["dhat_sup"], 2.0, rtol=1e-9)

    def test_beta1_moment_ratio_plateaus_at_two(self, std1):
        frag = classify_dhat(std1)
        xs = np.array([x for x, _ in frag["moment_profile"]])
        ratios = np.exp([lr for _, lr in frag["moment_profile"]])
        # mu_x/mu_{2x} = (2x+1)/(x+1) <= 2 with limit 2
        np.testing.assert_allclose(ratios, (2 * xs + 1) / (xs + 1), rtol=1e-6)
        assert np.all(ratios <= 2.0 + 1e-9)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 3.0])
    def test_dhat_sup_is_two_to_beta(self, beta):
        # for beta >= 1 the midpoint tail ratio increases to its limit 2^beta
        frag = classify_dhat(StandardWeight(beta))
        assert frag["dhat_sup"] <= 2.0 ** beta * (1.0 + 1e-6)
        np.testing.assert_allclose(frag["dhat_sup"], 2.0 ** beta, rtol=1e-4)

    def test_profiles_never_below_one(self, std2, exp_weight):
        for w in (std2, exp_weight):
            frag = classify_dhat(w)
            assert all(lr >= -1e-12 for _, lr in frag["dhat_tail_profile"])

    def test_exponential_profile_explodes(self, exp_weight):
        frag = classify_dhat(exp_weight)
        lrs = [lr for _, lr in frag["dhat_tail_profile"]]
        # ratio at r_j is exp(2^j)
        np.testing.assert_allclose(lrs[10], 2.0 ** 10, rtol=1e-9)

    def test_beta1_dcheck_ratio_is_K(self, std1):
        frag = classify_dcheck(std1, K_grid=(4.0,))
        ratios = np.exp([lr for _, lr in frag["dcheck_profiles"][4.0]])
        np.testing.assert_allclose(ratios, 4.0, rtol=1e-9)

    def test_beta_estimates(self):
        for beta in (0.5, 1.0, 2.0):
            frag = classify_dcheck(StandardWeight(beta))
            assert abs(frag["beta_estimate"] - beta) < 0.05

    def test_slow_weight_ratio_tends_to_one(self, slow_tail_weight):
        frag = classify_dcheck(slow_tail_weight, K_grid=(4.0,))
        ratios = np.exp([lr for _, lr in frag["dcheck_profiles"][4.0]])
        assert ratios[-1] < ratios[5] and ratios[-1] < 1.1

    def test_depth_cap(self, std1):
        with pytest.raises(ValueError):
            classify_dhat(std1, depth=44)
        with pytest.raises(ValueError):
            classify_dcheck(std1, K_grid=(0.5,))


class TestMutualImplication:
    # both tail-ratio and moment-ratio profiles plateau, or neither does
    def test_consistency_across_weights(self, std1, std2, exp_weight,
                                        slow_tail_weight):
        from fracvolt.weight_class import _plateaus
        for w in (std1, std2, exp_weight, slow_tail_weight):
            frag = classify_dhat(w)
            tails = np.array([lr for _, lr in frag["dhat_tail_profile"]])
            moms = np.array([lr for _, lr in frag["moment_profile"]])
            assert _plateaus(tails) == _plateaus(moms), w.label()
