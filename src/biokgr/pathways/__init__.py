"""Pathway parsing and graph analytics.

KGML documents become a signed gene/protein interaction graph plus a
substrate→product reaction graph; KEGG flat records become typed drug/pathway
records. The analytics here (path polarity, betweenness, SCCs, k-step
neighborhoods) feed every downstream curator.
"""
from biokgr.pathways.graphs import (
    PathwayNode,
    ReactionGraph,
    SignedEdge,
    SignedPathwayGraph,
)
from biokgr.pathways.kgml import MalformedKgml, parse_kgml
from biokgr.pathways.flat import KeggFlatRecord, MalformedRecord, parse_flat_record
from biokgr.pathways.analytics import (
    NodeNotFound,
    PolarityResult,
    betweenness,
    k_step_neighborhood,
    path_polarity,
)
from biokgr.pathways.families import infer_functional_type

__all__ = [
    "PathwayNode",
    "ReactionGraph",
    "SignedEdge",
    "SignedPathwayGraph",
    "MalformedKgml",
    "parse_kgml",
    "KeggFlatRecord",
    "MalformedRecord",
    "parse_flat_record",
    "NodeNotFound",
    "PolarityResult",
    "betweenness",
    "k_step_neighborhood",
    "path_polarity",
    "infer_functional_type",
]
