import time

from icflow import background as bg
from icflow import checks
from icflow import curvature as cf
from icflow import flow


def test_suite_passes_and_is_fast(capsys):
    t0 = time.time()
    assert checks.run_all()
    elapsed = time.time() - t0
    assert elapsed < 60.0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(checks.ALL_CHECKS) + 1
    assert "FAIL" not in out


def test_sectional_curvature_check_detects_broken_warp(monkeypatch):
    # a sign error in the second warp derivative: K_rad reads about +1
    lam_pp = bg.WarpProfile.lambda_pp_of_lambda
    monkeypatch.setattr(bg.WarpProfile, "lambda_pp_of_lambda",
                        lambda self, lam: -lam_pp(self, lam))
    ok, _ = checks.check_sectional_curvature()
    assert not ok


def test_stage_check_detects_perturbed_s2(monkeypatch):
    # S_2 1e-8 too large in the stage alone: F's defect reads 1.0e-8
    invariants = flow.scaled_invariants

    def perturbed(*args):
        inv = invariants(*args)
        e = inv[3]
        if e.shape[-1] > 2:
            e[..., 2] *= 1.0 + 1e-8
        return inv

    monkeypatch.setattr(flow, "scaled_invariants", perturbed)
    ok, detail = checks.check_stage_invariants()
    assert not ok, detail


def test_stage_states_straddle_each_cone():
    # the cone verdicts are compared on both sides of every F's cone
    for name in ("mean", "sigma2root", "quotient2"):
        F = cf.from_name(name, 2)
        verdicts = {checks.stage_defect(state, F)[0] for state in checks.stage_states()}
        assert verdicts == {True, False}, name


def test_umbilic_exactness_check_detects_broken_warp_derivative(monkeypatch):
    # kappa = lambda' / lambda off by 1e-3 relative: the defect reads 1.3e-3
    # (8.6e-4 on the m = 2 sphere alone)
    lam_p = bg.WarpProfile.lambda_p_of_lambda
    monkeypatch.setattr(bg.WarpProfile, "lambda_p_of_lambda",
                        lambda self, *lam: 1.001 * lam_p(self, *lam))
    ok, _ = checks.check_umbilic_exactness()
    assert not ok


def test_umbilic_flow_law_check_detects_broken_speed(monkeypatch):
    # F 1% too large slows the growth: the law's defect reads 2.5e-3
    value = cf._value
    monkeypatch.setattr(cf, "_value", lambda f, e: 1.01 * value(f, e))
    ok, _ = checks.check_umbilic_flow_law()
    assert not ok
