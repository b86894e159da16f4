"""Continual-learning lab: EWC and weight-velocity attenuation on a small MLP."""

__version__ = "0.1.0"
