"""Coverage statistics for Latin hypercube and orthogonal sampling designs.

Exact rational expectations, closed-form laws with error bounds, pinned
reproducible samplers, Monte Carlo estimation, brute-force oracles, and
threshold sweeps, with a CSV-first command line.
"""

__version__ = "0.1.0"
