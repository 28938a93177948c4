"""The paper's baseline conflict-resolution methods (Section 3.1.2).

Three families:

* no reliability estimation — :class:`MeanResolver`,
  :class:`MedianResolver` (continuous only), :class:`VotingResolver`
  (categorical only);
* continuous-only truth discovery — :class:`GTMResolver` [14];
* fact-based truth discovery run on heterogeneous data by treating
  continuous observations as facts — :class:`InvestmentResolver` and
  :class:`PooledInvestmentResolver` [9], :class:`TwoEstimatesResolver`
  and :class:`ThreeEstimatesResolver` [5], :class:`TruthFinderResolver`
  [4], :class:`AccuSimResolver` [10].

All are implemented from their original papers with the authors'
suggested parameters and share the :class:`ConflictResolver` interface
— including its execution-backend knobs
(``backend``/``n_workers``/``chunk_claims``): every resolver runs on
every backend, either natively through the segment kernels (CRH,
Mean/Median/Voting, CATD) or inline on the resolved sparse claims with
the degradation reason traced (GTM and the fact-graph methods on
process/mmap).  See ``docs/RESOLVERS.md`` for the full support matrix.
"""

from .accusim import AccuSimResolver
from .catd import CATDResolver
from .base import (
    ConflictResolver,
    available_resolvers,
    register_resolver,
    resolver_by_name,
)
from .claims import ClaimGraph, build_claim_graph, winners_to_truth_table
from .crh_adapter import CRHResolver
from .estimates import ThreeEstimatesResolver, TwoEstimatesResolver
from .gtm import GTMParams, GTMResolver
from .investment import InvestmentResolver, PooledInvestmentResolver
from .naive import MeanResolver, MedianResolver, VotingResolver
from .truthfinder import TruthFinderResolver

#: Method order of the Table 2 / Table 4 rows.
PAPER_METHOD_ORDER: tuple[str, ...] = (
    "CRH", "Mean", "Median", "GTM", "Voting", "Investment",
    "PooledInvestment", "2-Estimates", "3-Estimates", "TruthFinder",
    "AccuSim",
)

__all__ = [
    "AccuSimResolver",
    "CATDResolver",
    "CRHResolver",
    "ClaimGraph",
    "ConflictResolver",
    "GTMParams",
    "GTMResolver",
    "InvestmentResolver",
    "MeanResolver",
    "MedianResolver",
    "PAPER_METHOD_ORDER",
    "PooledInvestmentResolver",
    "ThreeEstimatesResolver",
    "TruthFinderResolver",
    "TwoEstimatesResolver",
    "VotingResolver",
    "available_resolvers",
    "build_claim_graph",
    "register_resolver",
    "resolver_by_name",
    "winners_to_truth_table",
]
