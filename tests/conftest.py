"""Shared pytest wiring: one verdict line per acceptance check.

The acceptance module holds the checks that gate a release; this hook
prints a compact PASS/FAIL line for each of them after the normal pytest
output so the verdicts are readable without scrolling through node ids.
"""

from __future__ import annotations

_ACCEPTANCE_FILE = "test_acceptance.py"

# Printed in this order; keys are test function names in the acceptance module.
_ACCEPTANCE_LABELS = {
    "test_score_matches_reference_operating_point": "score formula reference value",
    "test_frame_confidence_matches_reference_example": "frame confidence reference value",
    "test_selection_fixture_exploit_and_explore": "selection fixture (exploit and explore)",
    "test_exploration_rate_within_binomial_bound": "exploration rate within binomial bound",
    "test_full_run_selects_every_model": "full run selects every model",
    "test_usage_concentration_ordering": "usage concentration ordering",
    "test_average_switch_time_ordering": "average switch time ordering",
    "test_orderings_hold_over_seeds": "orderings, rush-hour shift, starvation contrast, seeds 1-5",
    "test_static_models_rise_in_cpu_and_confidence": "static models rise in CPU and confidence",
    "test_window_aggregates_match_brute_force": "window aggregates match brute force",
    "test_identical_runs_are_byte_identical": "identical runs byte-identical",
    "test_csv_contract_headers_and_round_trip": "CSV headers and 4-decimal round trip",
    "test_score_sign_tracks_confidence_difference": "score sign tracks confidence difference",
}

_results: dict[str, str] = {}


def pytest_runtest_logreport(report) -> None:
    if _ACCEPTANCE_FILE not in report.nodeid:
        return
    # A parametrized check is one line, and it fails if any of its cases does.
    name = report.nodeid.rsplit("::", 1)[-1].split("[")[0]
    if name not in _ACCEPTANCE_LABELS:
        return
    if report.failed or (report.when == "call" and not report.passed):
        # A setup or teardown error, or a skipped call, still means the check did not pass.
        _results[name] = "FAIL"
    elif report.when == "call":
        _results.setdefault(name, "PASS")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _results:
        return
    terminalreporter.section("acceptance checks")
    for name, label in _ACCEPTANCE_LABELS.items():
        if name in _results:
            terminalreporter.write_line(f"[{_results[name]}] {label}")
