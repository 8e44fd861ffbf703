"""The acceptance gate: one test per numbered criterion.  Each runs the
matching verification suite, prints a single pass/fail line with the
elapsed time, and enforces the time budget.  Each suite must also print
the lines pinned in `check_all.txt` (the output of `fmlab check all`),
once the `  (N cases, T s)` suffix that varies from run to run is
stripped."""

import pathlib
import re
import time

from fmlab.suites import run_suite

_TIMING = re.compile(r"  \(\d+ cases, [\d.]+ s\)$")


def _pinned_blocks() -> dict:
    """check_all.txt's lines per suite, keyed by suite name."""
    blocks = {}
    for line in (pathlib.Path(__file__).parent / "check_all.txt"
                 ).read_text().splitlines():
        if line.startswith("suite "):
            block = blocks.setdefault(line.split()[1], [])
        if line.startswith(("suite ", "  ")):
            block.append(line)
    return blocks


PINNED = _pinned_blocks()

CRITERIA = [
    # (number, suite name, time budget in seconds)
    (1, "haertig-addition", 5),
    (2, "order-from-plus", 5),
    (3, "mulext-lemma", 30),
    (4, "mulext-prop", 60),
    (5, "set-criteria", 30),
    (6, "looseness-examples", 60),
    (7, "relativization", 60),
    (8, "substitution", 30),
    (9, "regularization-ui", 30),
    (10, "lift-hartig", 60),
    (11, "rc-unary", 10),
    (12, "divmod-interdef", 10),
    (13, "median-trick", 60),
    (14, "mso-counterexample", 120),
    (15, "neutral-letter", 5),
    (16, "ef-games", 30),
]


def _run(number, name, budget):
    start = time.monotonic()
    report = run_suite(name)
    elapsed = time.monotonic() - start
    verdict = "PASS" if report.ok and elapsed < budget else "FAIL"
    print(f"criterion-{number:02d} {name}: {verdict} "
          f"({elapsed:.2f}s / {budget}s)")
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.2f}s)"
    assert [_TIMING.sub("", line) for line in report.lines()] == PINNED[name]
    assert report.ok, "\n".join(report.lines())


def test_criterion_01_haertig_addition():
    _run(1, "haertig-addition", 5)


def test_criterion_02_order_from_plus():
    _run(2, "order-from-plus", 5)


def test_criterion_03_mulext_lemma():
    _run(3, "mulext-lemma", 30)


def test_criterion_04_mulext_prop():
    _run(4, "mulext-prop", 60)


def test_criterion_05_set_criteria():
    _run(5, "set-criteria", 30)


def test_criterion_06_looseness_examples():
    _run(6, "looseness-examples", 60)


def test_criterion_07_relativization():
    _run(7, "relativization", 60)


def test_criterion_08_substitution():
    _run(8, "substitution", 30)


def test_criterion_09_regularization_ui():
    _run(9, "regularization-ui", 30)


def test_criterion_10_lift_hartig():
    _run(10, "lift-hartig", 60)


def test_criterion_11_rc_unary():
    _run(11, "rc-unary", 10)


def test_criterion_12_divmod_interdef():
    _run(12, "divmod-interdef", 10)


def test_criterion_13_median_trick():
    _run(13, "median-trick", 60)


def test_criterion_14_mso_counterexample():
    _run(14, "mso-counterexample", 120)


def test_criterion_15_neutral_letter():
    _run(15, "neutral-letter", 5)


def test_criterion_16_ef_games():
    _run(16, "ef-games", 30)
