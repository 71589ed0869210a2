"""Acceptance gate: every guaranteed bound at its stated tolerance.

Each test prints its PASS/FAIL line (run pytest with -s to see them); the
same checks back the ``stratgame verify`` subcommand.  The long-horizon
checks run their seeds on one worker per CPU, or on STRATGAME_THREADS
workers when it is set.
"""

from stratgame import acceptance


def _run(i):
    result = acceptance.CRITERIA[i - 1].run()
    print(result.line())
    assert result.passed, result.details
    return result


def test_criterion_1_halving_mistake_bound():
    _run(1)


def test_criterion_2_mwmr_expectation_bound():
    _run(2)


def test_criterion_3_deterministic_floor():
    _run(3)


def test_criterion_4_randomized_floor():
    _run(4)


def test_criterion_5_union_learner_loss():
    _run(5)


def test_criterion_6_boosting():
    _run(6)


def test_criterion_7_longest_survivor():
    _run(7)


def test_criterion_8_exact_construction_losses():
    _run(8)


def test_criterion_9_property_suite():
    _run(9)
