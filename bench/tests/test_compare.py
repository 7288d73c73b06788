"""``--compare``: bounds, direction, and the unresolved rule."""

from compare import judge, worse_by


def test_direction():
    assert worse_by(100.0, 110.0, "lower") == 0.1
    assert worse_by(100.0, 110.0, "higher") == -0.1


def test_within_bound_is_ok_and_beyond_is_regressed():
    assert judge([100.0], [109.0], "lower", 0.10)["verdict"] == "ok"
    assert judge([100.0], [111.0], "lower", 0.10)["verdict"] == "regressed"
    assert judge([100.0], [89.0], "higher", 0.10)["verdict"] == "regressed"
    assert judge([100.0], [300.0], "higher", 0.10)["verdict"] == "ok"


def test_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    noisy = [80.0, 95.0, 100.0, 105.0, 130.0]
    assert judge(noisy, [99.0] * 5, "lower", 0.10)["verdict"] == "unresolved"
    assert judge(noisy, [70.0] * 5, "lower", 0.10)["verdict"] == "ok"
    steady = [99.0, 100.0, 100.0, 100.0, 101.0]
    assert judge(steady, [120.0] * 5, "lower", 0.10)["verdict"] == "regressed"
