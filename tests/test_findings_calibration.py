"""Tests for findings extraction and calibration-target checking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.findings import EXTRACTORS, Finding, extract_findings
from repro.core.study import StreamingTraceStudy, TraceStudy
from repro.workload.calibration import (
    TARGETS,
    CalibrationResult,
    calibration_passed,
    check_calibration,
)


@pytest.fixture(scope="module")
def study(multi_bundles):
    return TraceStudy(multi_bundles)


@pytest.fixture(scope="module")
def r2_study(r2_bundle):
    return TraceStudy({"R2": r2_bundle})


class TestFindings:
    def test_registry_is_populated(self):
        assert len(EXTRACTORS) >= 7

    def test_extract_returns_one_finding_per_applicable_extractor(self, study):
        findings = extract_findings(study)
        ids = [finding.finding_id for finding in findings]
        assert len(ids) == len(set(ids))
        assert "custom_runtime_penalty" in ids
        assert "timer_keepalive_mismatch" in ids

    def test_findings_have_evidence(self, study):
        for finding in extract_findings(study):
            assert finding.claim
            assert isinstance(finding.evidence, dict)

    def test_cross_region_skipped_for_single_region(self, r2_study):
        ids = [f.finding_id for f in extract_findings(r2_study)]
        assert "cross_region_potential" not in ids

    def test_custom_penalty_supported_on_r2(self, r2_study):
        findings = {f.finding_id: f for f in extract_findings(r2_study)}
        finding = findings["custom_runtime_penalty"]
        assert finding.supported
        assert finding.evidence["ratio"] > 5.0

    def test_timer_mismatch_supported(self, r2_study):
        findings = {f.finding_id: f for f in extract_findings(r2_study)}
        assert findings["timer_keepalive_mismatch"].supported

    def test_summary_row_shape(self):
        finding = Finding("x", "claim", True, {"a": 1.0})
        row = finding.summary_row()
        assert row["finding"] == "x"
        assert row["supported"] == "yes"
        assert "a=1" in row["evidence"]


class TestCalibration:
    def test_targets_cover_major_figures(self):
        figures = {target.figure.split(".")[0] for target in TARGETS}
        assert len(TARGETS) >= 12
        ids = [target.target_id for target in TARGETS]
        assert len(ids) == len(set(ids))

    def test_check_returns_result_per_target(self, study):
        results = check_calibration(study)
        assert len(results) == len(TARGETS)
        for result in results:
            assert isinstance(result, CalibrationResult)
            assert isinstance(result.passed, bool)

    def test_summary_rows_printable(self, study):
        for result in check_calibration(study):
            row = result.summary_row()
            assert row["target"]
            assert row["passed"] in ("yes", "NO")

    def test_single_region_checks_do_not_crash(self, r2_study):
        results = check_calibration(r2_study)
        assert len(results) == len(TARGETS)

    def test_r2_specific_targets_pass_on_r2(self, r2_study):
        by_id = {r.target_id: r for r in check_calibration(r2_study)}
        assert by_id["fig15.custom_penalty"].passed, by_id["fig15.custom_penalty"].measured
        assert by_id["fig16.obs_slowest"].passed, by_id["fig16.obs_slowest"].measured

    @pytest.mark.parametrize("fixture", ["study", "r2_study"])
    def test_streaming_study_matches_materialised(self, fixture, request):
        materialised = request.getfixturevalue(fixture)
        streamed = StreamingTraceStudy.from_bundles(materialised.bundles)
        expected = [(r.target_id, r.passed) for r in check_calibration(materialised)]
        assert [
            (r.target_id, r.passed) for r in check_calibration(streamed)
        ] == expected

    @pytest.mark.parametrize("streamed", [False, True])
    def test_dominant_components_report_means_and_medians(self, study, streamed):
        if streamed:
            study = StreamingTraceStudy.from_bundles(study.bundles)
        by_id = {r.target_id: r for r in check_calibration(study)}
        measured = by_id["fig11.dominant_components"].measured
        dominant = study.fig11_dominant_component()
        for name in study.regions:
            means = {c: measured[f"{name}_{c}_mean_s"]
                     for c in ("pod_alloc", "deploy_code", "deploy_dep", "scheduling")}
            medians = [measured[f"{name}_{c}_median_s"] for c in means]
            # the verdict ranks the reported means
            assert f"{max(means, key=means.get)}_us" == dominant[name]
            assert all(m >= 0.0 for m in medians)
        assert len(measured) == 8 * len(study.regions)

    def test_calibration_passed_reduces(self):
        good = CalibrationResult("a", "f", "d", True)
        bad = CalibrationResult("b", "f", "d", False)
        assert calibration_passed([good])
        assert not calibration_passed([good, bad])
