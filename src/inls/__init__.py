"""Numerical laboratory for the weighted (inhomogeneous) nonlinear
Schrodinger equation i u_t + Lap u = lambda |x|^-b |u|^sigma u."""

__version__ = "0.1.0"
