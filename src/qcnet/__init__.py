"""qcnet: qualitative change propagation over uncertainty networks.

Propagates qualitative changes of certainty (+, 0, -, intervals and the
unknown value) through singly connected networks whose links are
quantified in probability theory, possibility theory or belief functions,
bridges changes across formalisms under a monotonicity assumption, and
verifies every qualitative prediction against a brute-force numeric
oracle.

The names here are the entry points the README documents; everything
else is imported from its module (``qcnet.links``, ``qcnet.network``,
``qcnet.oracle``, ``qcnet.netfile``, ``qcnet.signs``).
"""

from .links import ProbCond1
from .netfile import build_network, load_network, parse_network
from .network import PROB, Link, Network, NetworkError, Variable, explain, propagate, validate
from .oracle import (
    OracleError,
    PerturbationSpec,
    check_containment,
    exact_belief,
    exact_possibility,
    exact_probability,
    sample_model,
)
from .signs import POS, QSign

__version__ = "0.1.0"

__all__ = [
    "Link",
    "Network",
    "NetworkError",
    "OracleError",
    "POS",
    "PROB",
    "PerturbationSpec",
    "ProbCond1",
    "QSign",
    "Variable",
    "build_network",
    "check_containment",
    "exact_belief",
    "exact_possibility",
    "exact_probability",
    "explain",
    "load_network",
    "parse_network",
    "propagate",
    "sample_model",
    "validate",
]
