from perfbench.service import flatten_status, status_delta


def _backend(requests: int, latency_sum: float, decisions: int) -> dict:
    return {
        "metrics": {
            "counters": {"service.requests": requests},
            "histograms": {"service.latency_ms": {"sum": latency_sum,
                                                  "count": requests}},
            "spans": {"service.solve": {"calls": requests, "seconds": 0.5}},
        },
        "shards": {"a": {"engine": {"decisions": decisions}},
                   "b": {"engine": None}},
    }


def test_router_status_sums_backends() -> None:
    status = {
        "router": {"metrics": {"counters": {"router.requests": 7}}},
        "backends": {"b0": _backend(3, 30.0, 2), "b1": _backend(4, 10.0, 5)},
    }
    flat = flatten_status(status)
    assert flat["router.requests"] == 7
    assert flat["service.requests"] == 7
    assert flat["service.latency_ms.sum"] == 40.0
    assert flat["service.solve.seconds"] == 1.0
    assert flat["engine.decisions"] == 7


def test_status_delta_over_the_window() -> None:
    before = _backend(3, 30.0, 2)
    after = _backend(10, 100.0, 9)
    delta = status_delta(before, after)
    assert delta["service.requests"] == 7
    assert delta["service.latency_ms.count"] == 7
    assert delta["engine.decisions"] == 7
