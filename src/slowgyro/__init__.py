"""Slow-light ring gyroscope simulator.

Computes the rotational (Sagnac) phase, EIT absorption, shot-noise-limited
signal-to-noise ratio and minimum detectable rotation rate of a hybrid
light/matter-wave gyroscope: a probe beam propagating through a ring-shaped
ultra-cold three-level gas under electromagnetically induced transparency.
"""

__version__ = "0.1.0"
