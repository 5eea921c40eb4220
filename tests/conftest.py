"""Shared pytest configuration.

Prints one PASS/FAIL line per acceptance-gate criterion, and one per
paper-premise check of ``test_temporal_signal.py`` with the values it
records, at the end of the run, so that their status is readable without
scanning the full report.
"""

from __future__ import annotations

# test module -> (section title, [(test name, outcome, recorded properties)])
_SECTIONS: dict[str, tuple[str, list[tuple[str, str, list]]]] = {
    "test_acceptance.py": ("acceptance criteria", []),
    "test_temporal_signal.py": ("paper-premise checks", []),
}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    path, _, name = report.nodeid.partition("::")
    section = _SECTIONS.get(path.rsplit("/", 1)[-1])
    if section is not None:
        section[1].append((name, report.outcome.upper(), report.user_properties))


def pytest_terminal_summary(terminalreporter):
    for title, results in _SECTIONS.values():
        if not results:
            continue
        terminalreporter.write_sep("=", title)
        for name, outcome, properties in results:
            status = "PASS" if outcome == "PASSED" else outcome
            terminalreporter.write_line(f"[{status}] {name}")
            for key, value in properties:
                terminalreporter.write_line(f"    {key}: {value}")
