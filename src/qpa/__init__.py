"""Information quantities, universal_2 hashing checks, and security exponents
for classical-quantum states.

The package namespace holds the names of the README's library example and
the exceptions the command line maps to exit codes; everything else is
imported from its submodule (``qpa.hermitian``, ``qpa.cqstate``,
``qpa.quantities``, ``qpa.hashing``, ``qpa.verification``, ``qpa.exponents``).
"""

from .cqstate import (
    AlphabetMismatchError,
    StateFormatError,
    StateValidationError,
    load_state_json,
    make_cq_state,
    preset,
    random_cq,
    tensor_power,
)
from .exponents import ExponentComparisonError, exponent_curve, rates
from .hashing import collision_stats, make_family
from .hermitian import EigenConvergenceError, SizeCapError
from .quantities import (
    cond_entropy,
    mutual_info_variants,
    quantity_report,
    renyi_cond,
    renyi_cond_bar_star,
)
from .verification import verify_avg_leak_bound

__version__ = "0.1.0"
