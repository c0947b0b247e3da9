"""Top-level acceptance gate: one test (and one pass/fail line) per criterion.

Each test delegates to windest.acceptance, which owns the scenario
builds, tolerances and scoring.
"""

from windest import acceptance


def _run(fn):
    res = fn()
    print(res.line())
    assert res.passed, res.details
    return res


def test_criterion_01_relative_airflow():
    _run(acceptance.criterion_1)


def test_criterion_02_drag_sysid():
    _run(acceptance.criterion_2)


def test_criterion_03_drag_at_3ms():
    _run(acceptance.criterion_3)


def test_criterion_04_gust_detection():
    _run(acceptance.criterion_4)


def test_criterion_05_drag_touch_disambiguation():
    _run(acceptance.criterion_5)


def test_criterion_06_filter_numerics():
    _run(acceptance.criterion_6)


def test_criterion_07_ut_affine_exactness():
    _run(acceptance.criterion_7)


def test_criterion_08_lstm_gradients():
    _run(acceptance.criterion_8)


def test_criterion_09_adam_reference():
    _run(acceptance.criterion_9)


def test_criterion_10_driver_recovery():
    _run(acceptance.criterion_10)
