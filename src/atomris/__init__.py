"""RIS-assisted atomic MIMO receiver simulation.

Channel generation, RIS phase-shift optimization by momentum gradient
descent on the imaginary-part Frobenius objective, a magnitude-only
photodetector front end with least-squares / exhaustive / genie-ZF
detection, and seeded Monte-Carlo BER campaigns.
"""

__version__ = "0.1.0"
