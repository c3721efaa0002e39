"""Spectral solver for the time-fractional Benjamin-Bona-Mahony-Burgers equation
on the unit square, built on shifted Gegenbauer-Gauss collocation."""
