"""Decision-theoretic multiple testing under the sparse normal scale mixture.

Exact thresholds, error probabilities and Bayes risks for fixed-threshold
rules on X ~ (1-p) N(0, sigma^2) + p N(0, sigma^2 + tau^2); asymptotic
expansions on the verge of detectability; BFDR/Bonferroni/step-up
procedures; reproducible Monte-Carlo verification; and preset convergence
studies tying them together.

The package exports every name that its modules list in their __all__.
"""

from . import bfdr, errors, experiments, model, montecarlo, normal, procedures, risk, rules
from .errors import *  # noqa: F401,F403
from .normal import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .risk import *  # noqa: F401,F403
from .bfdr import *  # noqa: F401,F403
from .procedures import *  # noqa: F401,F403
from .rules import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (errors, normal, model, risk, bfdr, procedures, rules, montecarlo, experiments):
    __all__ += _module.__all__
del _module
