"""The collapsed-Gibbs hyperparameters, which every command validates with
its config. Kept apart from `newstm.lda`, and free of numpy, so that a
command that trains nothing need not import the sampler."""

from __future__ import annotations

from dataclasses import dataclass

from newstm.modelfile import json_fields

# The JSON type of each LdaHyperparams field, which config, both model
# headers and library callers must all give exactly.
_HYPER_TYPES = dict(k=int, alpha=float, eta=float, iterations=int, burn_in=int, thin=int, seed=int)


@dataclass(frozen=True)
class LdaHyperparams:
    """Collapsed-Gibbs settings; alpha=None resolves to the 50/k default.

    Each field must be of its type exactly, by the rule of
    `modelfile.json_fields`: a bool or a numpy integer is not an int, and a
    float is a finite int or float.
    """

    k: int
    alpha: float | None = None
    eta: float = 0.01
    iterations: int = 1000
    burn_in: int = 200
    thin: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        json_fields(vars(self), {"k": int})  # the default alpha divides by it
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", 50.0 / self.k)
        json_fields(vars(self), _HYPER_TYPES)
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not self.iterations > self.burn_in >= 0:
            raise ValueError(
                f"need iterations > burn_in >= 0, got {self.iterations} and {self.burn_in}"
            )
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
