"""Polarization-encoded BB84 QKD simulation over underwater optical channels.

Subsystems:

* :mod:`aqua_qkd.polarization` — Mueller-matrix algebra of the optical train.
* :mod:`aqua_qkd.transport` — Monte Carlo photon transport with receiver
  aperture/field-of-view accounting.
* :mod:`aqua_qkd.characterization` — channel Mueller-matrix estimation and
  the BB84 states' projection through a channel, which gives detection its
  arm probabilities and the channel its QBER and per-state fidelity.
* :mod:`aqua_qkd.bb84` — the full BB84 pipeline (encode through privacy
  amplification) including CASCADE and the classical-channel framing.
* :mod:`aqua_qkd.experiments` / :mod:`aqua_qkd.cli` — configuration-driven
  experiment scenarios and the command-line front end.
"""

__version__ = "0.1.0"
