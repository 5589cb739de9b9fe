"""Acceptance suite: each contract criterion at its full stated bound.

One test per criterion; each prints a PASS/FAIL line (visible with -s or
on failure) and asserts both correctness and, where stated, the runtime
budget. Criterion 11 is evidence-level: it must compute, and any
mismatch is reported in the printed line without failing the build.
"""

import time

from qtsym.verify import CRITERIA

_BUDGETS = {1: 10.0, 2: 300.0, 6: 600.0}


def _run(number):
    label, func, bound, _min_n = CRITERIA[number]
    start = time.time()
    results = func(max_n=bound)
    elapsed = time.time() - start
    failures = [(name, detail) for name, ok, detail in results if not ok]
    status = "PASS" if not failures else "FAIL"
    print("%s criterion %d (%s) [%.1fs]" % (status, number, label, elapsed))
    for name, ok, detail in results:
        if not ok or "conjecture" in name:
            print("    %s: %s %s" % (name, "ok" if ok else "FAILED", detail))
    assert not failures, failures
    budget = _BUDGETS.get(number)
    if budget is not None:
        assert elapsed < budget, "criterion %d took %.1fs (budget %.0fs)" % (
            number,
            elapsed,
            budget,
        )


def test_criterion_01_paper_values():
    # runtime budget includes the degree-4 table build
    from qtsym.macdonald import clear_tables

    clear_tables()
    _run(1)


def test_criterion_02_macdonald_characterization():
    _run(2)


def test_criterion_03_kostka_positivity():
    _run(3)


def test_criterion_04_alternating_collapse():
    _run(4)


def test_criterion_05_evaluation_identity():
    _run(5)


def test_criterion_06_three_path_agreement():
    _run(6)


def test_criterion_07_nabla_catalan():
    _run(7)


def test_criterion_08_algebra_axioms():
    _run(8)


def test_criterion_09_kernel_sanity():
    _run(9)


def test_criterion_10_q1_theorem():
    _run(10)


def test_criterion_11_conjecture_evidence():
    _run(11)
