"""The benchmark's layer names stay attached to the code they time.

bench/layers.py names package functions by dotted path, and the traced
run (bench/spans.py) wraps each at its module or class attribute.  A
rename fails the traced run only when the benchmark runs, so these fast
checks run the same resolution and the same wrapping on one filter step.
"""

import collections
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import layers  # noqa: E402
import spans  # noqa: E402

from windest import ukf  # noqa: E402
from windest.vehicle import STATE_DIM, VehicleParams  # noqa: E402


def test_every_layer_target_resolves():
    """Each target resolves the way the traced run resolves it."""
    for layer in layers.LAYERS:
        _, _, fn = spans.Tracer._resolve(layer.target)
        assert callable(fn), layer.target


def traced_predict_calls(dt):
    """The spans per layer of one predict of the hover wrench over dt,
    under the traced run's wrappers."""
    rng = np.random.default_rng(3)
    A = rng.normal(0.0, 0.1, (STATE_DIM, STATE_DIM))
    q_ref = np.array([1.0, 0.0, 0.0, 0.0])
    belief = ukf.BeliefState(q_ref, rng.normal(0.0, 0.1, STATE_DIM), A @ A.T + 1e-4 * np.eye(STATE_DIM))
    params = VehicleParams()
    u = np.array([params.mass * params.gravity, 0.0, 0.0, 0.0])
    tracer = spans.Tracer()
    with tracer.installed():
        ukf.predict(belief, u, dt, ukf.ProcessNoise(), params)
    return collections.Counter(tracer.names[i] for i in tracer.lid)


@pytest.mark.parametrize("dt, steps", [(0.005, 1), (0.35, 4)])
def test_predict_calls_each_step_layer_once_per_euler_step(dt, steps):
    """Under the traced run's wrappers, a predict over `steps` stretches
    opens one span of each of its three step layers per stretch."""
    assert traced_predict_calls(dt) == {
        "ukf.predict": 1,
        "geometry.sigma_points": steps,
        "vehicle.euler_step_arrays": steps,
        "geometry.reconstruct": steps,
    }
