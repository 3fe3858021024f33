import inspect
import pickle

import pytest

from mobgraph import errors

# Constructor arguments for every error type in mobgraph.errors.
EXAMPLES = {
    "MobgraphError": ("plain message",),
    "MissingColumn": ("video_id",),
    "MalformedRow": (7, "channel_id must be a string"),
    "DuplicateCommentId": ("c1", 4),
    "EmptyChannel": ("ch03",),
    "MalformedGexf": ("no <graph> element",),
    "DirectedGraphUnsupported": (),
    "EmptyVocabulary": (5,),
    "NonFiniteUpdate": ("nan in row 3",),
    "ZeroVector": (),
    "TooFewPoints": (3, 5),
    "NoConvergence": ("maxfev reached",),
    "NonFiniteCoordinate": ("inf at epoch 2",),
    "InvalidK": (9, 4),
    "SingleCluster": (),
    "DegenerateVariance": ("cophenetic",),
    "CoincidentCentroids": (0, 2),
    "CliqueBudgetExceeded": (100, "ch00"),
    "MissingLabel": ("ch05",),
    "InvalidConfig": ("threads must be >= 1, got 0",),
    "PipelineStageError": ("cliques", errors.CliqueBudgetExceeded(100, "ch00")),
}


def error_types():
    return {
        name: cls for name, cls in vars(errors).items()
        if inspect.isclass(cls) and issubclass(cls, errors.MobgraphError)
    }


def test_examples_cover_every_error_type():
    assert set(EXAMPLES) == set(error_types())


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_error_survives_pickle(name):
    # A worker process's error crosses back to the pipeline by pickle.
    error = error_types()[name](*EXAMPLES[name])
    error.__notes__ = ["noted"]
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert set(vars(copy)) == set(vars(error))
    for key, value in vars(error).items():
        if isinstance(value, BaseException):
            assert (type(vars(copy)[key]), str(vars(copy)[key])) == (type(value), str(value))
        else:
            assert vars(copy)[key] == value, key
