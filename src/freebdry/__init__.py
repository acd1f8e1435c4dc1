"""Numerical verification of sharp Sobolev, isoperimetric, exponential-class,
and principal-frequency inequalities on planar domains whose boundary is
partially free, the free part being concave with respect to the domain.
The root imports nothing: each name lives in the module that defines it."""

__version__ = "0.1.0"
