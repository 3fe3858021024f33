"""Co-commenter network pipeline: graph construction, whole-graph embedding,
clustering, and clique-census ranking of channels."""

__version__ = "0.1.0"


def _import_numpy_with_one_blas_thread() -> None:
    """Load numpy with its OpenBLAS capped at one thread, unless numpy is
    already loaded or the caller chose a thread count.

    OpenBLAS starts one worker thread per extra CPU when the library loads,
    and each busy-waits for work. mobgraph has next to none for them: its
    largest BLAS calls are gemv products, which OpenBLAS runs on one thread
    below 9,216 elements, and their results do not depend on the thread
    count.
    OpenBLAS reads the variable only while it loads, so it is removed again
    and no program started later inherits the cap. Forked workers inherit
    the loaded single-thread library."""
    import os
    import sys

    if "numpy" in sys.modules or any(name in os.environ for name in (
        "OPENBLAS_NUM_THREADS", "OPENBLAS_DEFAULT_NUM_THREADS", "GOTO_NUM_THREADS",
        "OMP_NUM_THREADS",
    )):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


# Before the first module that imports numpy.
_import_numpy_with_one_blas_thread()
del _import_numpy_with_one_blas_thread

from .errors import MobgraphError
from .graph import Graph
from .ingest import CommentRecord, build_co_commenter_graph, parse_comments
from .gexf import read_gexf, write_gexf
from .wl import GraphDocument, extract_document
from .embed import (
    EmbeddingMatrix,
    Vocabulary,
    build_vocabulary,
    cosine_similarity,
    train_embeddings,
)
from .reduce import reduce_embeddings
from .cluster import (
    adjusted_rand_index,
    cophenetic_correlation,
    cut_tree,
    davies_bouldin,
    kmeans,
    select_k_by_silhouette,
    silhouette_score,
    single_linkage,
)
from .cliques import clique_census, maximal_cliques, rank_channels
from .synth import SynthConfig, generate_corpus, two_family_config
from .pipeline import PipelineConfig, run_pipeline

__all__ = [
    "__version__",
    "MobgraphError",
    "Graph",
    "CommentRecord",
    "parse_comments",
    "build_co_commenter_graph",
    "read_gexf",
    "write_gexf",
    "GraphDocument",
    "extract_document",
    "Vocabulary",
    "EmbeddingMatrix",
    "build_vocabulary",
    "train_embeddings",
    "cosine_similarity",
    "reduce_embeddings",
    "kmeans",
    "silhouette_score",
    "select_k_by_silhouette",
    "single_linkage",
    "cut_tree",
    "cophenetic_correlation",
    "davies_bouldin",
    "adjusted_rand_index",
    "maximal_cliques",
    "clique_census",
    "rank_channels",
    "SynthConfig",
    "two_family_config",
    "generate_corpus",
    "PipelineConfig",
    "run_pipeline",
]
