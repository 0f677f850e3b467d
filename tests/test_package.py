"""The package namespace: the public names and nothing else."""

import robustpriors


def test_public_names():
    names = robustpriors.__all__
    assert len(names) == 36 and len(set(names)) == 36
    for name in names:
        assert getattr(robustpriors, name) is not None, name
    # The limit laws live in `asymptotics`, behind its conflict-limit rule;
    # one class is every sigma prior.
    assert "SigmaPrior" in names
    for gone in ("limiting_reduced_target", "limiting_sigma_posterior",
                 "inverse_gamma_mean", "inverse_gamma_sd", "JeffreysSigma",
                 "InverseGammaSigmaSq", "PowerAdjustedSigma"):
        assert not hasattr(robustpriors, gone), gone
        assert not hasattr(robustpriors.model, gone), gone
    assert not hasattr(robustpriors.model, "_is_jeffreys_like")
    # One pointwise ratio reads every far-conflict law.
    assert "prior_ratio" in names
    for gone in ("prior_ratio_student", "prior_ratio_lptn", "prior_limit_ctn",
                 "_prior_ratio"):
        assert not hasattr(robustpriors, gone), gone
        assert not hasattr(robustpriors.asymptotics, gone), gone
