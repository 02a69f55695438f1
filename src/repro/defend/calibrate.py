"""Deterministic detector calibration: thresholds plus a learned model.

The defender's training protocol, as the published HPC detectors run it:
collect labelled windows of *known* traffic -- cache-channel attacks as
positives, benign workloads as negatives -- and fit (1) the classic E11
rule thresholds as diagnostics and (2) a small logistic regression over
the :data:`~repro.defend.features.RATE_FIELDS` rate vector.  TET windows
are deliberately absent from training (see
:attr:`~repro.defend.scenarios.Scenario.training_label`): the evaluation
then asks whether the *unseen* channel clears the fitted bar, which is
the paper's E11 question.

Everything is a pure function of the training campaign's stored feature
vectors, consumed in expansion order: gradient descent runs a fixed
number of full-batch epochs in plain Python floats with a fixed
summation order, so the fitted weights -- and the serialised calibration
artifact -- are byte-identical whether the training campaign ran
serially, pooled, resumed, or shard-merged.  No numpy, no platform
nondeterminism, no dependence on sample arrival order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.defend.features import (
    FEATURE_SCHEMA_VERSION,
    RATE_FIELDS,
    FeatureVector,
)

#: Version of every ``repro.defend`` artifact layout (calibration files
#: and eval reports).  Bump on any key-level change.
DEFEND_SCHEMA_VERSION = 1

#: The E11 rule's published defaults (diagnostic thresholds carried in
#: every calibration so the rule and the model are always co-reported).
DEFAULT_CLFLUSH_THRESHOLD = 1.0
DEFAULT_LLC_MISS_THRESHOLD = 5.0

_EPOCHS = 300
_LEARNING_RATE = 0.5
_SIGMOID_CLAMP = 35.0
_MIN_SCALE = 1e-12


def _sigmoid(z: float) -> float:
    z = max(-_SIGMOID_CLAMP, min(_SIGMOID_CLAMP, z))
    return 1.0 / (1.0 + math.exp(-z))


@dataclass(frozen=True)
class Calibration:
    """A fitted, serialisable detector configuration."""

    schema_version: int
    feature_schema: int
    rate_fields: Tuple[str, ...]
    #: Z-score normalisation fitted on the training windows.
    means: Tuple[float, ...]
    scales: Tuple[float, ...]
    #: Logistic-regression weights over the normalised rate vector.
    weights: Tuple[float, ...]
    bias: float
    #: Verdict threshold on the model score (midpoint of the training
    #: margin when the classes separate, 0.5 otherwise).
    threshold: float
    #: The classic rule's thresholds (diagnostics, not the verdict).
    clflush_threshold: float
    llc_miss_threshold: float
    #: Sorted ``(scenario, windows)`` provenance of the training set.
    trained_on: Tuple[Tuple[str, int], ...]

    # -- scoring ---------------------------------------------------------------

    def score(self, features: FeatureVector) -> float:
        """The model's probability-like score for one window."""
        z = self.bias
        for rate, mean, scale, weight in zip(
            features.rates(), self.means, self.scales, self.weights
        ):
            z += weight * ((rate - mean) / scale)
        return _sigmoid(z)

    def flag(self, features: FeatureVector) -> bool:
        return self.score(features) > self.threshold

    def rule_flag(self, features: FeatureVector) -> bool:
        """The classic E11 rule (both rates anomalous), for comparison."""
        return (
            features.clflush_per_kilo_uop > self.clflush_threshold
            and features.llc_miss_per_kilo_uop > self.llc_miss_threshold
        )

    # -- serialisation ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "feature_schema": self.feature_schema,
            "rate_fields": list(self.rate_fields),
            "means": list(self.means),
            "scales": list(self.scales),
            "weights": list(self.weights),
            "bias": self.bias,
            "threshold": self.threshold,
            "clflush_threshold": self.clflush_threshold,
            "llc_miss_threshold": self.llc_miss_threshold,
            "trained_on": [list(pair) for pair in self.trained_on],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @property
    def digest(self) -> str:
        """Content address of the fitted configuration (report provenance)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            handle.write(self.to_json())

    @classmethod
    def from_json_dict(cls, data: dict) -> "Calibration":
        if data.get("schema_version") != DEFEND_SCHEMA_VERSION:
            raise ValueError(
                f"calibration schema_version {data.get('schema_version')!r} "
                f"!= supported {DEFEND_SCHEMA_VERSION}"
            )
        if data.get("feature_schema") != FEATURE_SCHEMA_VERSION or tuple(
            data.get("rate_fields", ())
        ) != RATE_FIELDS:
            raise ValueError(
                "calibration was fitted under a different feature schema; "
                "re-run `repro defend calibrate`"
            )
        return cls(
            schema_version=data["schema_version"],
            feature_schema=data["feature_schema"],
            rate_fields=tuple(data["rate_fields"]),
            means=tuple(data["means"]),
            scales=tuple(data["scales"]),
            weights=tuple(data["weights"]),
            bias=data["bias"],
            threshold=data["threshold"],
            clflush_threshold=data["clflush_threshold"],
            llc_miss_threshold=data["llc_miss_threshold"],
            trained_on=tuple(
                (str(name), int(count)) for name, count in data["trained_on"]
            ),
        )

    @classmethod
    def load(cls, path: str) -> "Calibration":
        with open(path) as handle:
            return cls.from_json_dict(json.load(handle))


# -- fitting -------------------------------------------------------------------


def fit_calibration(
    samples: Sequence[Tuple[str, FeatureVector, bool]],
    clflush_threshold: float = DEFAULT_CLFLUSH_THRESHOLD,
    llc_miss_threshold: float = DEFAULT_LLC_MISS_THRESHOLD,
) -> Calibration:
    """Fit a calibration from ``(scenario, features, is_attack)`` samples.

    *samples* must arrive in a deterministic order (campaign expansion
    order); every arithmetic step below iterates that order, so the fit
    is byte-stable.
    """
    if not samples:
        raise ValueError("cannot calibrate on an empty training set")
    labels = [1.0 if attack else 0.0 for _, _, attack in samples]
    if len(set(labels)) < 2:
        raise ValueError("training set needs both attack and benign windows")
    rows = [features.rates() for _, features, _ in samples]
    count = len(rows)
    dims = len(RATE_FIELDS)

    means = tuple(sum(row[d] for row in rows) / count for d in range(dims))
    scale_list = []
    for d in range(dims):
        variance = sum((row[d] - means[d]) ** 2 for row in rows) / count
        # A constant feature carries no signal; scale 1.0 leaves its
        # centred value at 0 instead of dividing by ~0.
        scale_list.append(math.sqrt(variance) if variance > _MIN_SCALE else 1.0)
    scales = tuple(scale_list)
    normalised = [
        tuple((row[d] - means[d]) / scales[d] for d in range(dims)) for row in rows
    ]

    weights = [0.0] * dims
    bias = 0.0
    for _ in range(_EPOCHS):
        grad_w = [0.0] * dims
        grad_b = 0.0
        for row, label in zip(normalised, labels):
            z = bias
            for d in range(dims):
                z += weights[d] * row[d]
            error = _sigmoid(z) - label
            for d in range(dims):
                grad_w[d] += error * row[d]
            grad_b += error
        for d in range(dims):
            weights[d] -= _LEARNING_RATE * grad_w[d] / count
        bias -= _LEARNING_RATE * grad_b / count

    scores = [
        _sigmoid(bias + sum(w * x for w, x in zip(weights, row)))
        for row in normalised
    ]
    benign_max = max(s for s, label in zip(scores, labels) if label == 0.0)
    attack_min = min(s for s, label in zip(scores, labels) if label == 1.0)
    # Split the training margin when the classes separate; a detector
    # thresholded at the midpoint is maximally robust to the unseen mix.
    threshold = (
        (benign_max + attack_min) / 2.0 if attack_min > benign_max else 0.5
    )

    counts: Dict[str, int] = {}
    for scenario, _, _ in samples:
        counts[scenario] = counts.get(scenario, 0) + 1
    return Calibration(
        schema_version=DEFEND_SCHEMA_VERSION,
        feature_schema=FEATURE_SCHEMA_VERSION,
        rate_fields=RATE_FIELDS,
        means=means,
        scales=scales,
        weights=tuple(weights),
        bias=bias,
        threshold=threshold,
        clflush_threshold=clflush_threshold,
        llc_miss_threshold=llc_miss_threshold,
        trained_on=tuple(sorted(counts.items())),
    )


# -- the training campaign -----------------------------------------------------


def calibration_campaign():
    """The seeded benign/attack training mix, as an ordinary campaign.

    Only scenarios with a training label (cache attacks and benign
    traffic -- never TET) appear; seeds are disjoint from ``e11-detect``
    so evaluation traffic is always unseen.
    """
    from repro.campaign.spec import CampaignSpec, detect_cell
    from repro.defend.scenarios import SCENARIOS
    from repro.runtime.spec import MachineSpec

    cells = []
    index = 0
    for scenario in SCENARIOS.values():
        if scenario.training_label is None:
            continue
        for noise in (0, 2):
            machine = MachineSpec(
                model="i7-7700", seed=2200 + index, noise_amplitude=noise
            )
            cells.append(detect_cell(machine, scenario=scenario.name, trials=8))
        index += 1
    return CampaignSpec(name="defend-calibrate", cells=tuple(cells))


def training_samples(spec, store) -> List[Tuple[str, FeatureVector, bool]]:
    """Collect ``(scenario, features, label)`` from a completed campaign.

    Expansion order, successes only -- quarantined windows are dropped
    (deterministically: a failure record replays as the same failure).
    """
    from repro.campaign.store import trial_keys
    from repro.defend.scenarios import get_scenario

    refs = spec.expand()
    keys = trial_keys([ref.trial for ref in refs])
    cached = store.get_many(keys)
    samples: List[Tuple[str, FeatureVector, bool]] = []
    for ref, key in zip(refs, keys):
        cell = spec.cells[ref.cell]
        if cell.kind != "detect":
            continue
        scenario = get_scenario(cell.param("scenario"))
        if scenario.training_label is None:
            continue
        outcome = cached.get(key)
        if outcome is None or not hasattr(outcome, "totes"):
            continue
        samples.append(
            (
                scenario.name,
                FeatureVector.from_ints(outcome.totes),
                scenario.training_label,
            )
        )
    return samples


def calibrate(
    store=None,
    pool=None,
    spec=None,
    progress=None,
    **runner_kwargs,
):
    """Run (or resume) the training campaign and fit; returns
    ``(Calibration, RunStats)``."""
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.store import ResultStore

    if spec is None:
        spec = calibration_campaign()
    if store is None:
        store = ResultStore()
    runner = CampaignRunner(
        spec, store=store, pool=pool, progress=progress, **runner_kwargs
    )
    _, stats = runner.run()
    calibration = fit_calibration(training_samples(spec, store))
    return calibration, stats


__all__ = [
    "Calibration",
    "DEFEND_SCHEMA_VERSION",
    "calibrate",
    "calibration_campaign",
    "fit_calibration",
    "training_samples",
]
