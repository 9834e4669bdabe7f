import importlib
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

import colindep.normal as normal
from colindep import (
    AuditConfig,
    DataMatrix,
    InvalidInput,
    SimulationSpec,
    audit,
    block_total_correlation,
    eigenratio_null,
    emit,
    mc_pvalue,
    sample_matrix_normal,
    stage_seed,
    two_sample_w,
)
from colindep.audit import eigenratio_stage, prepare


def desk_config(**overrides) -> AuditConfig:
    base = dict(
        seed=0, L=300, eigen_reps=40,
        sim_m=400, calib_reps=2,
    )
    base.update(overrides)
    return AuditConfig(**base)


class TestAudit:
    def test_json_independent_of_workers(self, monkeypatch):
        # the affinity mask sizes the pool of null replicates
        x = sample_matrix_normal(
            SimulationSpec(m=300, n=12, sigma_model="block", num_blocks=5, gamma=1.0, seed=3)
        )
        reports = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
            reports.append(audit(x, desk_config(seed=4)).to_json(exclude_timings=True))
        assert reports[0] == reports[1]
        assert '"eigenratio_blocks"' in reports[0]

    def test_report_shape(self):
        rng = np.random.default_rng(130)
        x = DataMatrix(rng.standard_normal((150, 14)))
        report = audit(x, desk_config(seed=2), groups=["a"] * 7 + ["b"] * 7)
        methods = {t["method"] for t in report.tests}
        assert {"perm_block", "perm_trend", "perm_trace",
                "eigenratio_wishart", "eigenratio_blocks", "bilinear"} <= methods
        assert report.outliers is not None
        assert report.outliers.n_pairs == 14 * 13 // 2
        assert report.errors == {}
        assert set(report.timings) >= {"standardize", "correlation", "fdr"}

    def test_missing_groups_with_bilinear_requested(self):
        rng = np.random.default_rng(131)
        x = DataMatrix(rng.standard_normal((40, 8)))
        with pytest.raises(InvalidInput):
            audit(x, desk_config(bilinear=True))

    @pytest.mark.parametrize("setting, message", [
        ({"seed": -1}, "seed must be nonnegative"),
        ({"L": 0}, "L must be positive"),
        ({"eigen_reps": 0}, "eigen_reps must be positive"),
        ({"q": 0.0}, "q must lie in (0, 1)"),
        ({"q": 1.5}, "q must lie in (0, 1)"),
        ({"q": float("nan")}, "q must lie in (0, 1)"),
        ({"min_block": 1}, "min_block must be at least 2"),
        ({"min_block": 4, "max_block": 3}, "min_block must not exceed max_block"),
        ({"tol": float("nan")}, "tol must be positive"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": -1.0}, "tol must be positive"),
        ({"max_iter": 0}, "max_iter must be at least 1"),
        ({"fdr_null": "uniform"}, "fdr_null must be one of"),
        ({"sim_m": 1}, "sim_m must be at least 2"),
        ({"sim_blocks": 0}, "sim_blocks must lie in [1, sim_m]"),
        ({"sim_m": 4, "sim_blocks": 5}, "sim_blocks must lie in [1, sim_m]"),
        ({"calib_reps": 0}, "calib_reps must be positive"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": "3"}, "seed must be an integer, got '3'"),
    ])
    def test_invalid_settings_rejected_on_construction(self, setting, message):
        with pytest.raises(InvalidInput) as err:
            AuditConfig(**setting)
        assert str(err.value).startswith(message)

    def test_fixed_settings_reported_not_settable(self):
        # the audit always uses the eigen estimator; the report still names it
        assert AuditConfig().to_dict()["estimator"] == "eigen"
        with pytest.raises(TypeError):
            AuditConfig(estimator="corrected")

    def test_data_dependent_failures_stay_stage_errors(self):
        # a valid min_block longer than the 6 columns fails only the block-based stages
        x = DataMatrix(np.random.default_rng(133).standard_normal((60, 6)))
        report = audit(x, desk_config(min_block=8, max_block=10))
        assert report.errors["perm_block"] == report.errors["perm_trace"] == "min_len=8 exceeds n=6"
        assert "perm_trend" not in report.errors

    @staticmethod
    def _small_iid_blocks_entry(n):
        x = DataMatrix(np.random.default_rng(133).standard_normal((60, n)))
        report = audit(x, AuditConfig(L=300, eigen_reps=40, sim_m=400, calib_reps=2))
        assert report.errors == {}
        blocks = next(t for t in report.tests if t["method"] == "eigenratio_blocks")
        assert blocks["sim_m"] == 60
        return blocks

    def test_small_input_calibrates(self):
        # i.i.d. columns calibrate to a weak block model, not a near-degenerate one
        assert 0.0 < self._small_iid_blocks_entry(6)["gamma"] < 1.0

    @pytest.mark.parametrize("n", [4, 5])
    def test_narrow_iid_input_calibrates_to_zero(self, n):
        # the data's alpha_hat lies under the floor the simulated alpha_hat keeps at gamma = 0
        assert self._small_iid_blocks_entry(n)["gamma"] == 0.0

    def test_interleaved_groups_match_permuted_contiguous(self):
        x = np.random.default_rng(132).standard_normal((60, 6))
        labels = ["b", "a", "a", "b", "a", "a"]
        order = [0, 3, 1, 2, 4, 5]  # group b, seen first, then group a
        entries = [
            next(t for t in report.tests if t["method"] == "bilinear")
            for report in (
                audit(DataMatrix(x), desk_config(), groups=labels),
                audit(DataMatrix(x[:, order]), desk_config(), groups=[labels[j] for j in order]),
            )
        ]
        assert [(e["n1"], e["n2"]) for e in entries] == [(2, 4), (2, 4)]
        assert abs(entries[0]["tau_hat"] - entries[1]["tau_hat"]) < 1e-12
        # contiguous labels give two_sample_w bit for bit
        contrast = importlib.import_module("colindep.audit").two_group_contrast
        w, n1, n2 = contrast(["b"] * 2 + ["a"] * 4)
        assert (n1, n2) == (2, 4) and w.tobytes() == two_sample_w(2, 4).tobytes()

    def test_determinism_excluding_timings(self):
        rng = np.random.default_rng(133)
        x = DataMatrix(rng.standard_normal((120, 10)))
        cfg = desk_config(seed=9)
        a = audit(x, cfg, groups=["g1"] * 5 + ["g2"] * 5)
        b = audit(x, cfg, groups=["g1"] * 5 + ["g2"] * 5)
        assert a.to_json(exclude_timings=True) == b.to_json(exclude_timings=True)
        # timings differ run to run but are excluded from the contract
        assert json.loads(a.to_json())["timings"].keys() == a.timings.keys()

    def test_stage_seeds_differ_by_stage(self):
        assert stage_seed(0, "perm_block") != stage_seed(0, "perm_trend")
        assert stage_seed(0, "perm_block") != stage_seed(1, "perm_block")
        assert stage_seed(5, "fdr") == stage_seed(5, "fdr")

    def test_recoverable_stage_error_recorded(self):
        # two dominant row blocks push alpha toward 0.7 and the effective
        # sample size below what the correlation-null scan can handle;
        # the battery records the failure and continues
        rng = np.random.default_rng(134)
        m, n, gamma = 80, 8, 4.5
        c = gamma * rng.standard_normal((2, n))
        x = DataMatrix(np.repeat(c, m // 2, axis=0) + rng.standard_normal((m, n)))
        report = audit(x, desk_config(seed=3, max_iter=200))
        assert "fdr" in report.errors
        # alpha this extreme is also outside the calibrator's range
        assert "eigenratio_blocks" in report.errors
        assert report.outliers is None
        assert any(t["method"] == "perm_block" for t in report.tests)

    def test_null_calibration(self):
        # i.i.d. input: the whole battery should come up clean in at
        # least 9 of 10 seeded runs
        rng = np.random.default_rng(135)
        clean = 0
        for seed in range(10):
            x = DataMatrix(rng.standard_normal((240, 16)))
            report = audit(x, desk_config(seed=seed))
            pvals = [t["p_value"] for t in report.tests if "p_value" in t]
            ok = all(p >= 0.05 for p in pvals)
            ok = ok and report.outliers.discoveries.size == 0
            clean += ok
        assert clean >= 9

    def test_small_null_replicates_converge(self):
        # a 20 x 8 input makes 20 x 8 block-null draws, some of which need
        # more than the default 50 sweeps to standardize
        for seed in range(10):
            x = DataMatrix(np.random.default_rng(seed).standard_normal((20, 8)))
            report = audit(x, AuditConfig(seed=seed, L=100, eigen_reps=50))
            assert "eigenratio_blocks" not in report.errors, (seed, report.errors)

    def test_block_generator_round_trip(self):
        # simulate known row correlation, audit it: alpha recovered and
        # the eigenratio test flags the non-identity row structure
        # the wishart null is much narrower than the correlated-rows truth
        # once the effective sample size drops well below n
        target_alpha = 0.24
        m, n, blocks = 2000, 44, 5
        size = m // blocks
        f_within = blocks * (size * (size - 1) / 2) / (m * (m - 1) / 2)
        rho = target_alpha / np.sqrt(f_within)
        gamma = float(np.sqrt(rho / (1 - rho)))
        assert abs(block_total_correlation(m, blocks, gamma) - target_alpha) < 1e-12
        spec = SimulationSpec(m=m, n=n, sigma_model="block", num_blocks=blocks,
                              gamma=gamma, seed=42)
        x = sample_matrix_normal(spec)
        report = audit(x, desk_config(seed=4))
        alpha_hat = float(np.sqrt(report.correlation.alpha_hat_sq))
        assert abs(alpha_hat - target_alpha) < 0.05
        wishart = next(t for t in report.tests if t["method"] == "eigenratio_wishart")
        assert wishart["p_value"] < 0.05


class TestEmit:
    def test_empty_battery_skeleton(self):
        from colindep import CorrelationReport, StandardizeInfo
        from colindep.audit import AuditReport

        report = AuditReport(
            m=10, n=4, groups=None,
            standardization=StandardizeInfo(iterations=0, max_deviation=0.0),
            correlation=CorrelationReport(
                m=10, n=4, rank=3, c2=0.4, mu_hat=-1 / 3, alpha_hat_sq=0.1,
                alpha_bar_sq=0.1, alpha_corrected_sq=None, alpha_simple_sq=None,
                m_tilde=5.0, estimator="eigen",
            ),
            tests=[], outliers=None, config=AuditConfig(),
        )
        payload = json.loads(report.to_json())
        assert payload["tests"] == []
        assert payload["outliers"] is None
        assert payload["input"] == {"m": 10, "n": 4, "groups": None}

    def test_json_round_trip(self):
        rng = np.random.default_rng(136)
        x = DataMatrix(rng.standard_normal((60, 8)))
        report = audit(x, desk_config(seed=7))
        payload = json.loads(emit(report, format="json"))
        assert payload == report.to_dict()

    def test_text_one_line_per_test(self):
        rng = np.random.default_rng(137)
        x = DataMatrix(rng.standard_normal((60, 8)))
        report = audit(x, desk_config(seed=8))
        text = emit(report, format="text")
        for t in report.tests:
            assert t["method"] in text

    def test_unknown_format(self):
        rng = np.random.default_rng(138)
        x = DataMatrix(rng.standard_normal((30, 6)))
        report = audit(x, desk_config(seed=1))
        with pytest.raises(InvalidInput):
            emit(report, format="yaml")


def _spiked_input(seed: int, m: int = 120, n: int = 10, lam: float = 4.0) -> DataMatrix:
    # a column spike orthogonal to the constant, which row centering would remove:
    # at this size the eigenratio p-values straddle 0.05 from seed to seed
    beta = np.resize([1.0, -1.0], n) / np.sqrt(n)
    return sample_matrix_normal(
        SimulationSpec(m=m, n=n, delta_model="spiked", spike_lambda=lam, spike_beta=beta, seed=seed)
    )


def _fixed_null(ctx, null: str, entry: dict) -> np.ndarray:
    """The stage's null at a fixed L = eigen_reps, drawn by ``eigenratio_null``."""
    cfg, n = ctx.config, ctx.z.n
    if null == "wishart":
        return eigenratio_null("wishart", cfg.eigen_reps, n, entry["seed"], df=entry["df"])
    spec = SimulationSpec(m=entry["sim_m"], n=n, sigma_model="block", num_blocks=cfg.sim_blocks,
                          gamma=entry["gamma"])
    return eigenratio_null("correlated_rows", cfg.eigen_reps, n, entry["seed"], spec=spec)


def _hits(fixed: np.ndarray, s_obs: float) -> np.ndarray:
    # indices of the fixed draws that reach the statistic, ties within 1e-12 relative
    return np.flatnonzero(fixed >= s_obs - 1e-12 * max(1.0, abs(s_obs)))


class TestSequentialEigenratio:
    """The stage stops at the ceil(L/20)-th draw that reaches the statistic."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("reps", [200, 60, 45, 30])
    @pytest.mark.parametrize("null", ["wishart", "blocks"])
    def test_draws_are_the_fixed_prefix(self, null, reps, seed):
        ctx = prepare(_spiked_input(seed), AuditConfig(seed=seed, eigen_reps=reps, sim_m=120, calib_reps=2))
        entry, nulls = eigenratio_stage(ctx, null)
        fixed = _fixed_null(ctx, null, entry)
        h = math.ceil(Fraction(reps, 20))
        hits = _hits(fixed, entry["statistic"])
        ell = int(hits[h - 1]) + 1 if hits.size >= h else reps
        assert nulls.tobytes() == fixed[:ell].tobytes()
        assert entry["L"] == ell
        assert entry["exceed_count"] == min(h, hits.size)
        assert entry["p_value"] == entry["exceed_count"] / ell
        assert entry["mc_se"] == math.sqrt(entry["p_value"] * (1 - entry["p_value"]) / ell)

    def test_no_stop_gives_the_fixed_result(self):
        # the Wishart null rejects this block-row input: 2 of 200 draws reach it, fewer than h = 10
        x = sample_matrix_normal(SimulationSpec(m=600, n=30, sigma_model="block", num_blocks=5, gamma=1.0,
                                                seed=1))
        ctx = prepare(x, AuditConfig(seed=1, eigen_reps=200))
        entry, nulls = eigenratio_stage(ctx, "wishart")
        fixed = _fixed_null(ctx, "wishart", entry)
        p, exceed = mc_pvalue(fixed, entry["statistic"])
        assert nulls.tobytes() == fixed.tobytes()
        assert (entry["p_value"], entry["exceed_count"], entry["L"]) == (p, exceed, 200)
        assert p < 0.05

    @pytest.mark.parametrize("null", ["wishart", "blocks"])
    def test_verdicts_at_005_are_the_fixed_ones(self, null):
        below = above = 0
        for seed in range(12):
            ctx = prepare(_spiked_input(seed), AuditConfig(seed=seed, eigen_reps=60, sim_m=120, calib_reps=2))
            entry, _ = eigenratio_stage(ctx, null)
            fixed_p, _ = mc_pvalue(_fixed_null(ctx, null, entry), entry["statistic"])
            assert (entry["p_value"] < 0.05) == (fixed_p < 0.05), seed
            if fixed_p < 0.05:
                assert entry["p_value"] == fixed_p
                below += 1
            else:
                above += 1
        assert below and above

    @pytest.mark.parametrize("null", ["wishart", "blocks"])
    def test_independent_of_workers(self, monkeypatch, null):
        x = _spiked_input(5)
        stages = []
        for cpus in (1, 2):
            monkeypatch.setattr(normal, "_affinity_cpus", lambda: cpus)
            ctx = prepare(x, AuditConfig(seed=5, eigen_reps=60, sim_m=120, calib_reps=2))
            stages.append(eigenratio_stage(ctx, null))
        (one, one_nulls), (two, two_nulls) = stages
        assert one == two
        assert one_nulls.tobytes() == two_nulls.tobytes()
        assert one["L"] < 60  # the stop fired
