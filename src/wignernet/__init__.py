"""Closed-form Gaussian Wigner dynamics for the 1-D harmonic oscillator and a
from-scratch neural-network emulator of that mapping."""

__version__ = "0.1.0"
