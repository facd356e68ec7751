"""Adaptive sweep sampling: simulate only where the model is uncertain.

The Kruskal–Snir closed forms in :mod:`repro.analysis.queueing` predict
the network's behavior to within a few percent across the regimes the
drift gate patrols.  For design-space exploration at the scale the
paper implies (4096 PEs x queue sizes x hot-spot fractions x
topologies), that accuracy is capital to spend: instead of simulating
every grid point, seed each axis with a handful of exact simulations,
calibrate the analytic prior against them, and simulate further points
*only where the calibrated prior disagrees with its neighbors by more
than a threshold*.  Every skipped point gets a model-sourced estimate;
a deterministic audit sample of the skipped points is simulated anyway
and the estimate error measured, so the coverage report always carries
an empirical error bound rather than a promise.

The algorithm, per group of categorical coordinates (e.g. per
topology):

1. **Seed** — simulate the corners of the numeric subgrid (and any
   point where the prior has no finite answer, e.g. past saturation).
2. **Calibrate** — each exact point yields a correction factor
   ``observed / predicted``; skipped points interpolate corrections
   linearly between their bracketing exact neighbors along the axis.
3. **Refine by bisection** — where a bracket's endpoint corrections
   disagree relatively by more than ``threshold``, the correction
   surface is changing too fast to interpolate across: simulate the
   bracket's midpoint, splitting it, and repeat until every bracket's
   endpoints agree.  A *constant* correction (the model merely biased)
   never refines; a sloped one refines only ``O(log(slope/threshold))``
   times, because each split halves a straight surface's bracket
   disagreement — so the simulation budget concentrates where the
   correction genuinely curves.
4. **Audit** — simulate a deterministic ``audit_fraction`` sample of
   the skipped points and report the realized estimate error.

Profiles bind an experiment name to its prior: ``predict`` maps point
parameters to the model's number (or ``None`` where the model abstains)
and ``observe`` extracts the comparable number from a simulated
payload.  Built-in profiles cover the Figure 7 experiments; register
new ones with ``ADAPTIVE_PROFILES.register(experiment, profile)``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ..util import Registry
from .engine import SweepRunner
from .spec import ExperimentSpec

#: How many exact neighbors vote on each skipped point's correction.
_NEIGHBORS = 4


@dataclass(frozen=True)
class AdaptiveProfile:
    """Binds an experiment to its analytic prior.

    ``predict`` receives one point's full parameter dict and returns
    the model's value for the profiled quantity, or ``None`` where the
    model abstains (saturation, unsupported regime) — abstentions are
    always simulated exactly.  ``observe`` extracts the same quantity
    from a simulated payload (``None`` means the payload carries no
    usable observation, which also forces exact handling).
    """

    experiment: str
    predict: Callable[[dict[str, Any]], Optional[float]]
    observe: Callable[[Any], Optional[float]]
    quantity: str = "value"


#: Profiles keyed by the experiment (point-function) name they bind.
ADAPTIVE_PROFILES: Registry[AdaptiveProfile] = Registry("adaptive profile")


# ---------------------------------------------------------------------------
# built-in profiles: the Figure 7 experiments against the queueing prior
# ---------------------------------------------------------------------------


def _predict_round_trip(params: dict[str, Any]) -> Optional[float]:
    from ..analysis.queueing import CapacityExceededError, predict_uniform_run

    pes = params["pes"]
    k = params.get("k", 2)
    rate = params["rate"]
    topology_name = params.get("topology", "omega")
    try:
        if topology_name == "omega":
            prediction = predict_uniform_run(pes, k, rate)
        else:
            from ..network.topology import make_topology

            topo = make_topology(topology_name, pes, k)
            prediction = predict_uniform_run(pes, k, rate, topology=topo)
    except (CapacityExceededError, ValueError):
        return None
    return prediction.round_trip


def _observe_round_trip(payload: Any) -> Optional[float]:
    if not isinstance(payload, dict):
        return None
    value = payload.get("observed_mean_round_trip")
    if value is None or value <= 0:
        return None
    return float(value)


for _experiment in ("fig7.cross_topology", "fig7.simulated"):
    ADAPTIVE_PROFILES.register(_experiment, AdaptiveProfile(
        experiment=_experiment,
        predict=_predict_round_trip,
        observe=_observe_round_trip,
        quantity="mean_round_trip",
    ))


# ---------------------------------------------------------------------------
# the sampler
# ---------------------------------------------------------------------------


@dataclass
class AdaptivePoint:
    """One grid point's fate in an adaptive run."""

    index: int
    params: dict[str, Any]
    #: "seed" | "forced" | "refined" | "audit" (exactly simulated)
    #: or "model" (estimate only — the skipped points)
    source: str
    predicted: Optional[float]
    value: Optional[float]
    estimate: Optional[float] = None
    rel_error: Optional[float] = None
    payload: Any = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "params": self.params,
            "source": self.source,
            "predicted": self.predicted,
            "value": self.value,
            "estimate": self.estimate,
            "rel_error": self.rel_error,
        }


@dataclass
class AdaptiveReport:
    """Coverage report: what was simulated, what was skipped, and how
    well the model stood in for the skipped points."""

    spec: ExperimentSpec
    quantity: str
    threshold: float
    audit_fraction: float
    points: list[AdaptivePoint] = field(default_factory=list)
    wall_time: float = 0.0

    def _count(self, *sources: str) -> int:
        return sum(1 for p in self.points if p.source in sources)

    @property
    def total_points(self) -> int:
        return len(self.points)

    @property
    def simulated_points(self) -> int:
        return self._count("seed", "forced", "refined", "audit")

    @property
    def skipped_points(self) -> int:
        return self._count("model")

    @property
    def skipped_fraction(self) -> float:
        if not self.points:
            return 0.0
        return self.skipped_points / len(self.points)

    @property
    def audit_errors(self) -> list[float]:
        return [p.rel_error for p in self.points
                if p.source == "audit" and p.rel_error is not None]

    @property
    def aggregate_rel_error(self) -> float:
        errors = self.audit_errors
        return sum(errors) / len(errors) if errors else 0.0

    @property
    def max_audit_rel_error(self) -> float:
        errors = self.audit_errors
        return max(errors) if errors else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.spec_hash(),
            "quantity": self.quantity,
            "threshold": self.threshold,
            "audit_fraction": self.audit_fraction,
            "total_points": self.total_points,
            "simulated_points": self.simulated_points,
            "skipped_points": self.skipped_points,
            "skipped_fraction": self.skipped_fraction,
            "aggregate_rel_error": self.aggregate_rel_error,
            "max_audit_rel_error": self.max_audit_rel_error,
            "wall_time": self.wall_time,
            "points": [p.to_dict() for p in self.points],
        }


def _axis_coords(spec: ExperimentSpec, index: int) -> tuple[int, ...]:
    """Decompose a row-major grid index into per-axis value indexes."""
    sizes = [len(axis.values) for axis in spec.axes]
    coords = [0] * len(sizes)
    remainder = index
    for position in range(len(sizes) - 1, -1, -1):
        remainder, coords[position] = divmod(remainder, sizes[position])
    return tuple(coords)


def _is_numeric_axis(values: tuple) -> bool:
    return all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in values
    )


class AdaptiveSampler:
    """Drives a sweep through seed / calibrate / refine / audit.

    All exact simulation goes through the supplied
    :class:`~repro.exp.engine.SweepRunner` — whatever backend and
    cache it carries, the sampler inherits (an adaptive run over a
    sharded runner shards its seed batch).
    """

    def __init__(
        self,
        runner: SweepRunner,
        profile: Optional[AdaptiveProfile] = None,
        *,
        threshold: float = 0.05,
        audit_fraction: float = 0.25,
    ) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold={threshold} must be positive")
        if not 0 <= audit_fraction <= 1:
            raise ValueError(
                f"audit_fraction={audit_fraction} must be within [0, 1]"
            )
        self.runner = runner
        self.profile = profile
        self.threshold = threshold
        self.audit_fraction = audit_fraction

    # -- exact simulation ---------------------------------------------
    def _simulate(
        self, spec: ExperimentSpec, indices: list[int]
    ) -> dict[int, Any]:
        if not indices:
            return {}
        result = self.runner.run(spec, indices=indices)
        return {o.index: o.payload for o in result.outcomes}

    # -- interpolation -------------------------------------------------
    @staticmethod
    def _interpolate(
        position: tuple[int, ...],
        corrections: dict[tuple[int, ...], float],
    ) -> tuple[Optional[float], float]:
        """(correction estimate, neighbor disagreement) at ``position``.

        Inverse-distance weighting over the nearest exact points in
        axis-index space; the disagreement is the relative spread of
        the neighbors' corrections — large spread means the correction
        surface is changing fast there and the model needs help.
        """
        if not corrections:
            return None, math.inf
        scored = sorted(
            (sum(abs(a - b) for a, b in zip(position, pos)), pos)
            for pos in corrections
        )
        nearest = scored[:_NEIGHBORS]
        # Exact hit: that point's own correction, no uncertainty.
        if nearest[0][0] == 0:
            return corrections[nearest[0][1]], 0.0
        weights = [(1.0 / distance, corrections[pos])
                   for distance, pos in nearest]
        total = sum(w for w, _ in weights)
        estimate = sum(w * c for w, c in weights) / total
        values = [c for _, c in weights]
        center = sum(values) / len(values)
        if center == 0:
            return estimate, math.inf
        disagreement = (max(values) - min(values)) / abs(center)
        return estimate, disagreement

    def _bisect_candidate(
        self,
        members: dict[int, int],
        sources: dict[int, str],
        corrections: dict[tuple[int, ...], float],
    ) -> Optional[int]:
        """The point index splitting the worst bracket, or None.

        ``members`` maps scalar axis position -> point index for one
        group.  Brackets are spans between adjacent calibrated points;
        a bracket whose endpoint corrections disagree relatively by
        more than the threshold gets its (nearest-to-)midpoint
        simulated, which splits it for the next round.
        """
        exact_sorted = sorted(pos[0] for pos in corrections)
        best: Optional[tuple[float, int]] = None
        for lo, hi in zip(exact_sorted, exact_sorted[1:]):
            inner = [p for p in members
                     if lo < p < hi and members[p] not in sources]
            if not inner:
                continue
            c_lo, c_hi = corrections[(lo,)], corrections[(hi,)]
            center = (abs(c_lo) + abs(c_hi)) / 2
            disagreement = (
                abs(c_hi - c_lo) / center if center else math.inf
            )
            if disagreement <= self.threshold:
                continue
            target = (lo + hi) / 2
            midpoint = min(inner, key=lambda p: (abs(p - target), p))
            if best is None or disagreement > best[0]:
                best = (disagreement, members[midpoint])
        return None if best is None else best[1]

    # -- the run -------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> AdaptiveReport:
        started = time.perf_counter()
        profile = self.profile or ADAPTIVE_PROFILES[spec.experiment]
        if profile.experiment != spec.experiment:
            raise ValueError(
                f"profile is for {profile.experiment!r}, "
                f"spec is for {spec.experiment!r}"
            )

        points = list(spec.points())
        params = {p.index: p.as_dict() for p in points}
        predicted = {p.index: profile.predict(params[p.index])
                     for p in points}

        numeric = [_is_numeric_axis(axis.values) for axis in spec.axes]
        coords = {p.index: _axis_coords(spec, p.index) for p in points}
        sizes = [len(axis.values) for axis in spec.axes]

        def group_key(index: int) -> tuple:
            return tuple(c for c, num in zip(coords[index], numeric)
                         if not num)

        def numeric_pos(index: int) -> tuple[int, ...]:
            return tuple(c for c, num in zip(coords[index], numeric) if num)

        groups: dict[tuple, list[int]] = {}
        for p in points:
            groups.setdefault(group_key(p.index), []).append(p.index)

        # 1. Seed: numeric-subgrid corners per group, plus every point
        #    where the prior abstained (those must be exact anyway).
        numeric_sizes = [s for s, num in zip(sizes, numeric) if num]
        corner_positions = set(itertools.product(
            *({0, size - 1} for size in numeric_sizes)
        )) if numeric_sizes else {()}

        sources: dict[int, str] = {}
        for index in (p.index for p in points):
            if predicted[index] is None:
                sources[index] = "forced"
            elif numeric_pos(index) in corner_positions:
                sources[index] = "seed"

        exact_payloads = self._simulate(spec, sorted(sources))
        observed: dict[int, Optional[float]] = {
            index: profile.observe(payload)
            for index, payload in exact_payloads.items()
        }

        # 2 + 3. Calibrate and refine.  One-dimensional numeric grids
        # (every preset after categorical grouping) refine by bisection
        # — batched across groups so each round is one backend fan-out;
        # higher-dimensional grids fall back to per-point IDW.
        estimates: dict[int, float] = {}
        corrections: dict[tuple, dict[tuple[int, ...], float]] = {
            key: {} for key in groups
        }

        def calibrate(index: int) -> None:
            obs, pred = observed.get(index), predicted[index]
            if obs and pred:
                corrections[group_key(index)][numeric_pos(index)] = obs / pred

        def absorb(index: int, source: str, payload: Any) -> None:
            sources[index] = source
            exact_payloads[index] = payload
            observed[index] = profile.observe(payload)
            calibrate(index)

        for index in sources:
            calibrate(index)

        one_dimensional = sum(1 for num in numeric if num) == 1
        if one_dimensional:
            while True:
                batch: dict[int, tuple] = {}
                for key in sorted(groups):
                    members = {numeric_pos(i)[0]: i for i in groups[key]}
                    candidate = self._bisect_candidate(
                        members, sources, corrections[key]
                    )
                    if candidate is not None:
                        batch[candidate] = key
                if not batch:
                    break
                payloads = self._simulate(spec, sorted(batch))
                for index in batch:
                    absorb(index, "refined", payloads.get(index))

        # Estimate the survivors; anything outside a group's calibrated
        # range (or un-bracketable) is simulated exactly in one fixup.
        fixup: list[int] = []
        for key in sorted(groups):
            corr = {pos[0] if one_dimensional else pos: c
                    for pos, c in corrections[key].items()}
            for index in sorted(groups[key]):
                if index in sources:
                    continue
                pred = predicted[index]
                if one_dimensional:
                    pos = numeric_pos(index)[0]
                    lows = [p for p in corr if p <= pos]
                    highs = [p for p in corr if p >= pos]
                    if not lows or not highs:
                        fixup.append(index)
                        continue
                    lo, hi = max(lows), min(highs)
                    if lo == hi:
                        correction = corr[lo]
                    else:
                        correction = (corr[lo] + (corr[hi] - corr[lo])
                                      * (pos - lo) / (hi - lo))
                    estimates[index] = pred * correction
                else:
                    correction, disagreement = self._interpolate(
                        numeric_pos(index), corrections[key]
                    )
                    if correction is None or disagreement > self.threshold:
                        fixup.append(index)
                        continue
                    estimates[index] = pred * correction
        if fixup:
            payloads = self._simulate(spec, fixup)
            for index in fixup:
                absorb(index, "refined", payloads.get(index))

        # 4. Audit a deterministic sample of the skipped points.
        skipped = sorted(set(params) - set(sources))
        rng = random.Random(spec.seed * 0x9E3779B1 + len(skipped))
        n_audit = math.ceil(self.audit_fraction * len(skipped))
        audited = sorted(rng.sample(skipped, n_audit)) if n_audit else []
        for index in audited:
            sources[index] = "audit"
        audit_payloads = self._simulate(spec, audited)
        exact_payloads.update(audit_payloads)
        for index in audited:
            observed[index] = profile.observe(audit_payloads.get(index))

        report = AdaptiveReport(
            spec=spec,
            quantity=profile.quantity,
            threshold=self.threshold,
            audit_fraction=self.audit_fraction,
        )
        for p in points:
            index = p.index
            source = sources.get(index, "model")
            entry = AdaptivePoint(
                index=index,
                params=params[index],
                source=source,
                predicted=predicted[index],
                value=None,
                estimate=estimates.get(index),
                payload=exact_payloads.get(index),
            )
            if source == "model":
                entry.value = estimates.get(index)
            else:
                entry.value = observed.get(index)
                if source == "audit":
                    obs, est = observed.get(index), estimates.get(index)
                    if obs and est is not None:
                        entry.rel_error = abs(est - obs) / abs(obs)
            report.points.append(entry)
        report.wall_time = time.perf_counter() - started
        return report
