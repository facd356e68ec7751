"""AdaptiveSampler: seed/calibrate/refine/audit on synthetic surfaces."""

from __future__ import annotations

import math

import pytest

from repro.exp import (
    ADAPTIVE_PROFILES,
    AdaptiveProfile,
    AdaptiveSampler,
    ExperimentSpec,
    SweepAxis,
    point_function,
    serial_runner,
)

# A synthetic surface whose "model" is value = x and whose observation
# carries a controllable correction: obs = x * gain * exp(curve * x).
# gain != 1 is pure bias (constant correction, perfectly interpolable);
# curve != 0 bends the correction surface and should draw refinement.


@point_function("adaptivetest.surface")
def _surface(params):
    x = params["x"]
    gain = params.get("gain", 1.0)
    curve = params.get("curve", 0.0)
    return {"obs": x * gain * math.exp(curve * x)}


PROFILE = AdaptiveProfile(
    experiment="adaptivetest.surface",
    predict=lambda p: float(p["x"]) if p["x"] >= 0 else None,
    observe=lambda payload: payload["obs"],
    quantity="obs",
)

XS = tuple(float(x) for x in range(1, 12))


def surface_spec(base=None, axes=None, seed=0):
    return ExperimentSpec(
        experiment="adaptivetest.surface",
        base=base or {},
        axes=axes or (SweepAxis("x", XS),),
        seed=seed,
    )


def sampler(**kwargs):
    kwargs.setdefault("threshold", 0.05)
    kwargs.setdefault("audit_fraction", 0.25)
    return AdaptiveSampler(serial_runner(), PROFILE, **kwargs)


class TestValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            sampler(threshold=0)

    def test_audit_fraction_bounds(self):
        with pytest.raises(ValueError):
            sampler(audit_fraction=1.5)

    def test_profile_experiment_mismatch(self):
        spec = ExperimentSpec(experiment="debug.echo")
        with pytest.raises(ValueError, match="adaptivetest.surface"):
            sampler().run(spec)

    def test_builtin_profiles_cover_figure7(self):
        assert "fig7.cross_topology" in ADAPTIVE_PROFILES
        assert "fig7.simulated" in ADAPTIVE_PROFILES


class TestConstantBias:
    """A purely biased model (constant correction) needs only the seed
    corners: calibration absorbs the bias exactly."""

    def test_skips_everything_between_corners(self):
        report = sampler(audit_fraction=0.0).run(surface_spec({"gain": 2.0}))
        by_source = {p.index: p.source for p in report.points}
        assert by_source[0] == "seed"
        assert by_source[len(XS) - 1] == "seed"
        assert all(source == "model" for index, source in by_source.items()
                   if index not in (0, len(XS) - 1))
        assert report.simulated_points == 2
        assert report.skipped_fraction == pytest.approx(
            (len(XS) - 2) / len(XS))

    def test_model_estimates_are_exact(self):
        report = sampler().run(surface_spec({"gain": 2.0}))
        for p in report.points:
            if p.source == "model":
                assert p.value == pytest.approx(2.0 * p.params["x"])
        assert report.aggregate_rel_error == pytest.approx(0.0, abs=1e-12)

    def test_audit_measures_zero_error_on_exact_surface(self):
        report = sampler(audit_fraction=0.5).run(surface_spec({"gain": 3.0}))
        assert report.audit_errors  # some skipped points were audited
        assert report.max_audit_rel_error == pytest.approx(0.0, abs=1e-12)


class TestCurvedCorrection:
    def test_curvature_draws_refinement(self):
        report = sampler().run(surface_spec({"curve": 0.12}))
        sources = {p.source for p in report.points}
        assert "refined" in sources

    def test_estimates_track_the_curved_surface(self):
        report = sampler().run(surface_spec({"curve": 0.12}))
        for p in report.points:
            if p.source == "model":
                truth = p.params["x"] * math.exp(0.12 * p.params["x"])
                assert abs(p.value - truth) / truth < 0.05

    def test_tighter_threshold_simulates_more(self):
        loose = sampler(threshold=0.2, audit_fraction=0.0).run(
            surface_spec({"curve": 0.03}))
        tight = sampler(threshold=0.02, audit_fraction=0.0).run(
            surface_spec({"curve": 0.03}))
        assert tight.simulated_points > loose.simulated_points


class TestAbstainingPrior:
    def test_abstentions_are_forced_exact(self):
        xs = (-2.0, -1.0) + XS  # prior abstains below zero
        report = sampler().run(surface_spec(axes=(SweepAxis("x", xs),)))
        by_x = {p.params["x"]: p for p in report.points}
        assert by_x[-2.0].source == "forced"
        assert by_x[-1.0].source == "forced"
        assert by_x[-1.0].value == pytest.approx(-1.0)  # simulated exactly


class TestCategoricalGroups:
    def test_each_group_calibrates_independently(self):
        spec = surface_spec(
            base={"gain": 2.0},
            axes=(SweepAxis("label", ("low", "high")), SweepAxis("x", XS)),
        )
        report = sampler(audit_fraction=0.0).run(spec)
        seeds = [p for p in report.points if p.source == "seed"]
        assert len(seeds) == 4  # two corners per categorical group

    def test_groups_with_different_bias_both_estimate_exactly(self):
        @point_function("adaptivetest.grouped")
        def _grouped(params):
            gain = {"low": 2.0, "high": 7.0}[params["label"]]
            return {"obs": params["x"] * gain}

        profile = AdaptiveProfile(
            experiment="adaptivetest.grouped",
            predict=lambda p: float(p["x"]),
            observe=lambda payload: payload["obs"],
        )
        spec = ExperimentSpec(
            experiment="adaptivetest.grouped",
            axes=(SweepAxis("label", ("low", "high")), SweepAxis("x", XS)),
        )
        report = AdaptiveSampler(
            serial_runner(), profile, threshold=0.05, audit_fraction=0.5
        ).run(spec)
        gains = {"low": 2.0, "high": 7.0}
        for p in report.points:
            assert p.value == pytest.approx(gains[p.params["label"]]
                                            * p.params["x"])
        assert report.max_audit_rel_error == pytest.approx(0.0, abs=1e-12)


class TestReportShape:
    def test_counts_partition_the_grid(self):
        report = sampler().run(surface_spec({"curve": 0.12}))
        assert report.total_points == len(XS)
        assert report.simulated_points + report.skipped_points == len(XS)

    def test_runs_are_deterministic(self):
        first = sampler().run(surface_spec({"curve": 0.08}, seed=5))
        second = sampler().run(surface_spec({"curve": 0.08}, seed=5))
        assert ([p.source for p in first.points]
                == [p.source for p in second.points])
        assert ([p.value for p in first.points]
                == [p.value for p in second.points])

    def test_to_dict_round_trips_cleanly(self):
        import json

        report = sampler().run(surface_spec({"gain": 2.0}))
        payload = report.to_dict()
        assert payload["total_points"] == len(XS)
        assert payload["quantity"] == "obs"
        assert len(payload["points"]) == len(XS)
        json.dumps(payload)  # strict-JSON serializable
