"""Guard-rail penalty weights.

Training uses the strict Brier reward (abstention scores as the maximum
loss) plus the guard-rail terms weighted here, computed from token counts
by `algorithms.count_rewards`.  Evaluation uses the soft Brier loss
(`evaluation.soft_brier_losses`: abstention costs a flat 0.25, the loss
of always guessing 50%).
"""

from __future__ import annotations

from dataclasses import dataclass

from forecast_rl.errors import ValidationError


@dataclass
class PenaltyConfig:
    """Guard-rail penalty weights and the raw-input truncation limit."""

    lambda_lang: float = 0.3
    lambda_gib: float = 0.3
    lambda_miss: float = 0.1
    lambda_exp: float = 0.05
    input_truncation_chars: int = 16000

    def validate(self) -> None:
        for name in ("lambda_lang", "lambda_gib", "lambda_miss", "lambda_exp"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        if self.input_truncation_chars < 1:
            raise ValidationError("input_truncation_chars must be >= 1")

