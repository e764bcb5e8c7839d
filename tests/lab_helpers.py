"""Model builders and data generators that only the tests use: a cascade
controller with the default gains, the illustrative coupling matrix whose
``rga.csv`` digest is pinned, and the exact sampled response of a
first-order channel that identification round trips are checked against.
"""

import math

import numpy as np

from coldstart.dsmc import BETA_DEFAULT, RHO_DEFAULTS, AdaptiveLoop, CascadeController
from coldstart.rga import FirstOrderTF, TFMatrix, from_gain_time_constant


def with_default_gains(T: float = 0.02, **kwargs) -> CascadeController:
    return CascadeController(
        AdaptiveLoop(BETA_DEFAULT, RHO_DEFAULTS["fuel"]),
        AdaptiveLoop(BETA_DEFAULT, RHO_DEFAULTS["speed"]),
        AdaptiveLoop(BETA_DEFAULT, RHO_DEFAULTS["exh"]),
        AdaptiveLoop(BETA_DEFAULT, RHO_DEFAULTS["air"]),
        T=T,
        **kwargs,
    )


def default_coupling_matrix() -> TFMatrix:
    """Illustrative 3x3 loop-coupling model (fuel, air, spark channels).

    The numbers are synthetic placeholders for exercising the analysis
    tooling; they are not identified from the engine model.
    """
    k = from_gain_time_constant
    return TFMatrix(
        [
            [k(1.0, 0.3), k(0.4, 0.5), None],
            [k(0.25, 0.6), k(2.0, 0.8), None],
            [k(0.3, 0.2), k(0.5, 0.4), k(1.5, 0.05)],
        ]
    )


def simulate_first_order(tf: FirstOrderTF, u, T: float, y0: float = 0.0) -> np.ndarray:
    """Exact sampled response of 1/(tau*s + k) to a piecewise-constant input.

    Used to generate round-trip test data; the input is held over each step.
    """
    if tf.tau <= 0.0 or tf.k <= 0.0:
        raise ValueError("simulation needs tau > 0 and k > 0")
    u = np.asarray(u, dtype=float).ravel()
    pole = tf.k / tf.tau
    a = math.exp(-pole * T)
    b = (1.0 - a) / tf.k
    y = np.empty(len(u))
    cur = y0
    for idx, uk in enumerate(u):
        y[idx] = cur
        cur = a * cur + b * uk
    return y
