"""Per-criterion summary lines for the acceptance gate.

The tests in test_acceptance.py are named test_cNN_<slug>.  After the run,
the hook below prints one `[criterion NN] PASS/FAIL <label>` line for every
criterion that executed, derived from the actual pytest outcomes.  A terminal
summary survives output capture, so the lines show up in a plain `pytest -v`
run without -s.

pytest_configure ignores the one DeprecationWarning libcst's import raises
("mypy_extensions.TypedDict is deprecated"): hypothesis's plugin imports
libcst for a failing property's example, and the error::DeprecationWarning
filter would turn that warning into an INTERNALERROR.
"""

import re

CRITERION_LABELS = {
    1: "matrix-unit images match the window rule exactly",
    2: "diagonal-unitary covariance residual <= 1e-12 over 1000 trials/spec",
    3: "determinant closed form matches numeric to 1e-10",
    4: "f(uniform) = 1 exactly and f <= 1 + 1e-12 on 10^4 samples/spec",
    5: "curvature PSD with 1-dim kernel; finite-difference Hessian NSD",
    6: "spanning ranks n^2-n+1 / n^2 as frozen",
    7: "window circulants: kernels, spectra, and fixtures",
    8: "optimality verdicts by exact gcd",
    9: "see-saw floors, negative certificate at the closed-form minimum, analytic witness",
    10: "critical-weight probes evidence-positive with exact zero crossing",
    11: "zero-sum PSD subtractions annihilate ones and phase pairs",
    12: "CLI reruns byte-identical and schema-valid",
}

_CRITERION_NODE = re.compile(r"test_acceptance\.py::test_c(\d+)_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    status = {}
    for key, word in (
        ("passed", "PASS"),
        ("failed", "FAIL"),
        ("error", "FAIL"),
        ("skipped", "SKIP"),
    ):
        for report in terminalreporter.stats.get(key, []):
            match = _CRITERION_NODE.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            num = int(match.group(1))
            if status.get(num) != "FAIL":
                status[num] = word
    if not status:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(status):
        label = CRITERION_LABELS.get(num, "")
        terminalreporter.write_line(f"[criterion {num:02d}] {status[num]} {label}".rstrip())


def pytest_configure(config):
    config.addinivalue_line(
        "filterwarnings", "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
