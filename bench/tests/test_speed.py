"""Timing calls with the machine's speed divided out."""

import signal
import time
from fractions import Fraction

import pytest

import speed


def test_reference_loop_does_fixed_exact_work():
    assert speed.reference_loop() == sum(
        (Fraction(i, i + 1) ** 2 for i in range(1, 9)), Fraction(0))


def test_measure_returns_the_result_and_both_times():
    def call():
        return sum(Fraction(1, i) for i in range(1, 2000))

    raw, scaled, result = speed.measure(call)
    assert result == call()
    assert raw > 0 and scaled > 0
    # Scaled time is raw time times a mean speed; the machine's two modes
    # are within 2x of the reference speed.
    assert 0.3 < scaled / raw < 3


def test_sampling_interrupts_the_call_and_is_taken_out_of_its_time():
    ticks = []
    real = speed._speed_sample

    def counting():
        ticks.append(1)
        return real()

    speed._speed_sample = counting
    try:
        raw, _, _ = speed.measure(lambda: time.sleep(0.05))
    finally:
        speed._speed_sample = real
    assert len(ticks) >= 10
    assert raw == pytest.approx(0.05, rel=0.5)


def test_a_failing_call_stops_the_timer_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)

    def fail():
        raise ValueError("op failed")

    with pytest.raises(ValueError):
        speed.measure(fail)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_unsampled_calls_are_not_interrupted():
    raw, scaled, result = speed.measure(lambda: 7, sampled=False)
    assert (scaled, result) == (None, 7) and raw >= 0
