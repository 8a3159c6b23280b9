"""Adversarially regularized multi-agent RL lab.

Smoothness-regularized MARL training (PGD observation attacks, Stackelberg
leader gradients, action-flip and mean-field variants), tabular smooth-MDP
theory certification, and finite-difference gradient verification.
"""

__version__ = "0.1.0"

from .advreg import AttackConfig, pgd_attack, stackelberg_grad
from .config import ConfigError, ExperimentConfig, load_config, resolve_config
from .mdp import TabularMdp, TabularPolicy, gen_smooth_mdp, lipschitz_bounds
from .net import Net, net_forward, net_grads, net_init

__all__ = [
    "AttackConfig", "pgd_attack", "stackelberg_grad",
    "ConfigError", "ExperimentConfig", "load_config", "resolve_config",
    "TabularMdp", "TabularPolicy", "gen_smooth_mdp", "lipschitz_bounds",
    "Net", "net_forward", "net_grads", "net_init",
    "__version__",
]
