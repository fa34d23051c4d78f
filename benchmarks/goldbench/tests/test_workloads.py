"""The analyze workload's memory checkpoint fires once, at the n-th tick."""

import threading

from workloads import Countdown


def test_countdown_runs_its_action_once_on_the_nth_tick():
    calls = []
    countdown = Countdown(100, lambda: calls.append(1) or len(calls))
    threads = [threading.Thread(target=lambda: [countdown.tick()
                                                for _ in range(80)])
               for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert calls == [1]
    assert countdown.result == 1


def test_countdown_not_reached_keeps_no_result():
    countdown = Countdown(3, lambda: 42.0)
    countdown.tick()
    countdown.tick()
    assert countdown.result is None
