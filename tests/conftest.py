"""Shared pytest plumbing: the hypothesis profile and the acceptance verdict block."""

from hypothesis import settings

from acceptance_report import RESULTS

# Property tests replay the same examples on every run and stay bounded, so
# tier-1 is deterministic and its time is fixed. A longer search can load
# another profile with ``--hypothesis-profile``.
settings.register_profile(
    "tier1", derandomize=True, max_examples=200, deadline=None, database=None
)
settings.load_profile("tier1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(RESULTS):
        ok, detail = RESULTS[num]
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status} - {detail}")
