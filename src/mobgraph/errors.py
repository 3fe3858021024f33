"""Exception types shared across the pipeline."""

from __future__ import annotations

import copyreg


class MobgraphError(Exception):
    """Base class for all pipeline errors."""

    def __reduce__(self):
        # Rebuild from args and attributes without calling the subclass
        # __init__, whose parameters differ from args: an error raised in a
        # worker process crosses back by pickle with its type and text intact.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# --- ingest -----------------------------------------------------------------

class MissingColumn(MobgraphError):
    def __init__(self, column: str):
        super().__init__(f"required column missing: {column!r}")
        self.column = column


class MalformedRow(MobgraphError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"malformed row at line {line}: {reason}")
        self.line = line
        self.reason = reason


class DuplicateCommentId(MobgraphError):
    def __init__(self, comment_id: str, line: int | None = None):
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate comment_id {comment_id!r}{where}")
        self.comment_id = comment_id
        self.line = line


class EmptyChannel(MobgraphError):
    def __init__(self, channel: str | None):
        super().__init__(f"no comment records for channel {channel!r}")
        self.channel = channel


class MalformedGexf(MobgraphError):
    def __init__(self, detail: str):
        super().__init__(f"malformed GEXF: {detail}")
        self.detail = detail


class DirectedGraphUnsupported(MobgraphError):
    def __init__(self, detail: str = "only undirected graphs are supported"):
        super().__init__(detail)


# --- embedding --------------------------------------------------------------

class EmptyVocabulary(MobgraphError):
    def __init__(self, min_count: int):
        super().__init__(
            f"no token reaches min_count={min_count}; lower min_count for this corpus"
        )
        self.min_count = min_count


class NonFiniteUpdate(MobgraphError):
    def __init__(self, detail: str):
        super().__init__(f"training diverged: {detail}")


class ZeroVector(MobgraphError):
    def __init__(self):
        super().__init__("cosine similarity undefined for a zero vector")


# --- dimensionality reduction -----------------------------------------------

class TooFewPoints(MobgraphError):
    def __init__(self, n: int, needed: int):
        super().__init__(f"need more than {needed} points, got {n}")
        self.n = n
        self.needed = needed


class NonFiniteCoordinate(MobgraphError):
    def __init__(self, detail: str):
        super().__init__(f"layout produced non-finite coordinates: {detail}")


# --- clustering -------------------------------------------------------------

class InvalidK(MobgraphError):
    def __init__(self, k: int, n: int):
        super().__init__(f"k={k} invalid for {n} points")
        self.k = k
        self.n = n


class SingleCluster(MobgraphError):
    def __init__(self):
        super().__init__("metric requires at least 2 clusters")


class DegenerateVariance(MobgraphError):
    def __init__(self, which: str):
        super().__init__(f"correlation undefined: {which} distances are constant")


class CoincidentCentroids(MobgraphError):
    def __init__(self, i: int, j: int):
        super().__init__(f"clusters {i} and {j} have coincident centroids")
        self.pair = (i, j)


# --- cliques ----------------------------------------------------------------

class CliqueBudgetExceeded(MobgraphError):
    def __init__(self, budget: int, channel: str | None = None):
        where = f" on channel {channel!r}" if channel else ""
        super().__init__(f"maximal clique count exceeded budget {budget}{where}")
        self.budget = budget


class MissingLabel(MobgraphError):
    def __init__(self, channel: str):
        super().__init__(f"no cluster label for channel {channel!r}")
        self.channel = channel


# --- synthetic corpora ------------------------------------------------------

class InvalidConfig(MobgraphError):
    def __init__(self, detail: str):
        super().__init__(f"invalid config: {detail}")


# --- orchestration ----------------------------------------------------------

class PipelineStageError(MobgraphError):
    """Wraps the first error raised by a pipeline stage, naming the stage."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause
