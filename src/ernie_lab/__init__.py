"""Adversarially regularized multi-agent RL lab.

Smoothness-regularized MARL training (PGD observation attacks, Stackelberg
leader gradients, action-flip and mean-field variants), tabular smooth-MDP
theory certification, and finite-difference gradient verification.
"""

__version__ = "0.1.0"
