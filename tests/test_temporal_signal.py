"""End to end: where a project's faults lie in recently changed classes, decayed risk keeps more of
their tests than static mode, which weighs every change alike; where faults have no tie to the
history, the two do not differ.

Each test runs ``evaluate`` under extent, a 32-day half-life, ``gmean`` and budget 0.5, then
under static mode, then ``compare`` on the two outcome files. The project is
``temporalproject``'s, whose seed and parameters were fixed before the first run.
"""

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
