"""Outcome-only reinforcement learning lab for probabilistic forecasting.

A small categorical policy is trained online, one question at a time, from
Brier-score rewards, with group-relative advantage estimators (GRPO and a
variance-free variant), baseline-subtracted REINFORCE (ReMax), and an
off-policy DPO baseline.  The evaluation stack covers soft-Brier accuracy,
equal-mass calibration error, paired statistics, and a hypothetical
one-share trading simulator against market prices.
"""

__version__ = "0.1.0"

from forecast_rl.errors import (
    DataFormatError,
    ValidationError,
)

__all__ = [
    "DataFormatError",
    "ValidationError",
    "__version__",
]
