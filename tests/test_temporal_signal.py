"""End to end: where a project's faults lie in recently changed classes, decayed risk keeps more of
their tests than static mode, which weighs every change alike; where faults have no tie to the
history, the two do not differ.

The first two tests run ``evaluate`` under extent, a 32-day half-life, ``gmean`` and budget 0.5,
then under static mode, then ``compare`` on the two outcome files. The last two run ``sweep``
over the horizons 1-512 days and static mode at budget 0.5, and check the shape the premise
predicts across horizons. The project is ``temporalproject``'s, whose seed and parameters were
fixed before the first run.
"""

import csv
import json

from riskmin import cli

import temporalproject


def _decayed_against_static(directory, faults):
    """The mean accuracies of the decayed and the static run, and ``compare``'s Wilcoxon block."""
    manifest = temporalproject.write(directory / "project", faults)
    means = []
    for name, horizon in (("decayed", "32"), ("static", "static")):
        argv = ["evaluate", manifest, "--metric", "extent", "--horizon", horizon,
                "--aggregate", "gmean", "--budget", "0.5", "--output", str(directory / name)]
        assert cli.main(argv) == 0
        means.append(json.loads((directory / name / "summary.json").read_text(encoding="utf-8"))["mean_accuracy"])
    outcomes = [str(directory / name / "outcomes.csv") for name in ("decayed", "static")]
    assert cli.main(["compare", *outcomes, "--output", str(directory / "compare")]) == 0
    comparison = json.loads((directory / "compare" / "comparison.json").read_text(encoding="utf-8"))
    assert comparison["n_versions"] == temporalproject.VERSIONS
    return *means, comparison["wilcoxon"]


def test_decayed_risk_keeps_more_tests_of_recent_faults_than_static_mode(tmp_path):
    decayed, static, wilcoxon = _decayed_against_static(tmp_path, "recent")
    assert decayed > static
    assert wilcoxon["status"] == "ok" and wilcoxon["p_two_sided"] < 0.05, wilcoxon


def test_with_faults_drawn_uniformly_decayed_and_static_do_not_differ(tmp_path):
    _, _, wilcoxon = _decayed_against_static(tmp_path, "uniform")
    assert wilcoxon["status"] != "ok" or wilcoxon["p_two_sided"] >= 0.05, wilcoxon


SWEEP_HORIZONS = ("1", "2", "4", "8", "16", "32", "64", "128", "256", "512", "static")


def _sweep_means(directory, faults):
    """Each (metric, operator) slice's mean accuracy by horizon, from ``sweep`` at budget 0.5."""
    manifest = temporalproject.write(directory / "project", faults)
    argv = ["sweep", manifest, "--horizons", ",".join(SWEEP_HORIZONS), "--budgets", "0.5",
            "--output", str(directory / "sweep")]
    assert cli.main(argv) == 0
    slices = {}
    with open(directory / "sweep" / "sweep.csv", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            slices.setdefault((row["metric"], row["operator"]), {})[row["horizon_days"]] = float(row["mean_accuracy"])
    assert len(slices) == 8 and all(tuple(means) == SWEEP_HORIZONS for means in slices.values())
    return slices


def test_across_horizons_every_short_half_life_keeps_more_tests_of_recent_faults_than_every_long_one(tmp_path):
    """Faults follow the changes of the 30 days before each version, and versions are 15 days
    apart: in every metric and operator, every half-life of at most 32 days scores a higher mean
    accuracy than every half-life of 128 days or more, and than static mode."""
    for (metric, operator), means in _sweep_means(tmp_path, "recent").items():
        short = [means[horizon] for horizon in ("1", "2", "4", "8", "16", "32")]
        long = [means[horizon] for horizon in ("128", "256", "512", "static")]
        assert min(short) > max(long), (metric, operator, means)


def test_with_faults_drawn_uniformly_the_spread_across_horizons_is_recorded(tmp_path, request):
    """The control asserts no ordering: each slice's spread of mean accuracy across the horizons
    is recorded, and printed with the premise checks at the end of the run. The spreads go to the
    test item's ``user_properties`` directly: the ``record_property`` fixture warns under a JUnit
    XML report of the default ``xunit2`` family, and warnings fail this suite."""
    for (metric, operator), means in _sweep_means(tmp_path, "uniform").items():
        spread = max(means.values()) - min(means.values())
        request.node.user_properties.append((f"{metric}/{operator} spread", f"{spread:.3f}"))
