"""Maliciously secure collaborative regression over matrix-masked data.

Agencies holding disjoint rows of a shared feature space send only the
triangular R factors of their rows, keyed with commuting polynomial keys,
a cloud fits linear or ridge models on the ciphertext, and a round-robin
decryption recovers the exact plaintext estimate together with a built-in
tamper check. The attacks module plays the adversary against the paper's
row-masked scheme.
"""

from .attacks import cpa_attack, cpa_rank_analysis, kpa_gram_sweep, ldp_sweep
from .keygen import derive_bases, draw_commuting_key
from .matrix_core import random_orthogonal
from .model import ols_fit
from .protocol import TamperPlan
from .runner import RunConfig, cross_validate_encrypted, run_protocol

__version__ = "0.1.0"

__all__ = [
    "RunConfig",
    "TamperPlan",
    "cpa_attack",
    "cpa_rank_analysis",
    "cross_validate_encrypted",
    "derive_bases",
    "draw_commuting_key",
    "kpa_gram_sweep",
    "ldp_sweep",
    "ols_fit",
    "random_orthogonal",
    "run_protocol",
]
