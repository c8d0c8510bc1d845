"""The speed probe and its window around a question."""

import pytest

import speed


def test_speed_scale_uses_the_probes_near_the_question():
    sampler = speed.Sampler()
    starts, durations = sampler.samples["rational"]
    starts += [0.0, 0.4, 0.8, 5.0, 5.4, 5.8, 6.2]
    durations += [0.01, 0.01, 0.01, 0.02, 0.02, 0.04, 0.02]
    ref = speed.REFERENCE["rational"]
    assert sampler.scale("rational", 0.2, 0.3) == ref / 0.01
    assert sampler.scale("rational", 5.5, 5.6) == ref / 0.02
    # nothing within PAD of t = 3: the three nearest probes, 0.8, 5.0 and 5.4
    assert sampler.scale("rational", 3.0, 3.0) == ref / 0.02


def test_sampler_probes_both_kinds_while_entered():
    import signal
    import time

    with speed.Sampler() as sampler:
        until = time.perf_counter() + 1.0
        while time.perf_counter() < until:
            pass
    assert all(len(sampler.samples[mode][1]) >= 2 for mode in speed.MODES)
    assert sampler.spent == pytest.approx(sum(sum(d) for _, d in sampler.samples.values()))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
