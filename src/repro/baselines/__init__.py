"""``repro.baselines`` — every comparison method from the paper.

Rating prediction (Table III): :class:`PMF`, :class:`DeepCoNN`,
:class:`NARRE`, :class:`DER`.

Reliability scoring (Tables IV-VI): :class:`ICWSM13`,
:class:`SpEaglePlus`, :class:`REV2`.

:class:`RRREAdapter` is both: one fit serves Tables III-VI
(``biased=False`` gives RRRE⁻).
"""

from .base import RatingModel, ReliabilityModel
from .deepconn import DeepCoNN
from .der import DER
from .features import FEATURE_NAMES, review_features, standardize, suspicion_priors
from .graph import FraudEagle, build_review_graph, graph_statistics
from .icwsm13 import ICWSM13, LogisticRegression
from .narre import NARRE
from .pmf import PMF
from .rev2 import REV2
from .rrre_adapters import RRREAdapter
from .speagle import SpEaglePlus
from .svdpp import SVDpp, TrustWeightedSVDpp

__all__ = [
    "DER",
    "DeepCoNN",
    "FEATURE_NAMES",
    "FraudEagle",
    "ICWSM13",
    "LogisticRegression",
    "NARRE",
    "PMF",
    "REV2",
    "RRREAdapter",
    "SVDpp",
    "RatingModel",
    "ReliabilityModel",
    "SpEaglePlus",
    "TrustWeightedSVDpp",
    "build_review_graph",
    "graph_statistics",
    "review_features",
    "standardize",
    "suspicion_priors",
]
