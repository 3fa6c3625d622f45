"""Latent-lookahead adversarial transfer learning at desk scale.

Modules:

- ``autodiff``: tape-based reverse-mode differentiation with gradients at
  intermediate nodes, plus a finite-difference oracle.
- ``model``: two-domain encoder / classifier / discriminator architecture
  with gradient reversal, losses, and checkpointing.
- ``optim``: Adam and the cosine learning-rate schedule.
- ``training``: the training strategies (multi-task, adversarial, and their
  latent- and parameter-space lookahead variants).
- ``quadratic``: 2-D quadratic playground comparing gradient descent with
  extragradient lookahead rules.
- ``render``: deterministic SVG/CSV export of optimization trajectories.
- ``data``: synthetic two-domain dataset generation, preprocessing, and the
  unigram KL divergence diagnostic.
- ``harness``: experiment runner with seed sweeps, learning-rate selection,
  and resource accounting.
"""

__version__ = "0.1.0"
