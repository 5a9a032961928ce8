"""Fig. 8: feedback-control delays, constants and measured reaction."""

import pytest

from repro.experiments import fig8_delays
from repro.experiments.common import RunScale


def test_fig8_delays(benchmark, eval_scale):
    result = benchmark.pedantic(
        fig8_delays.run, kwargs={"scale": eval_scale}, rounds=1, iterations=1
    )
    # The paper's table values.
    assert result.sw.throttle_s == pytest.approx(0.1e-3)
    assert result.hw.throttle_s == pytest.approx(0.1e-6)
    assert result.sw.thermal_s == pytest.approx(1e-3)
    # Both runs warn and react, and HW reacts no slower than SW.
    sw_t, hw_t = result.measured_s["software"], result.measured_s["hardware"]
    assert sw_t is not None and hw_t is not None
    assert hw_t <= sw_t
    print()
    print(fig8_delays.format_result(result))
