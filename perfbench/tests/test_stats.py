from perfbench.stats import beyond, ratio


def test_p99_of_1000_samples_has_ten_beyond() -> None:
    samples = [float(i) for i in range(1000)]
    assert beyond(samples, 99) == 10
    assert beyond(samples[::-1], 99) == 10


def test_ratio_of_nothing_is_zero() -> None:
    assert ratio(3.0, 0.0) == 0.0
    assert ratio(3.0, 4.0) == 0.75
