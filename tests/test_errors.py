"""Error taxonomy: every package error survives a pickle round trip."""

import pickle

import pytest

from dyadicmeasure import errors
from dyadicmeasure.errors import DyadicMeasureError

ERRORS = sorted(
    (
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, DyadicMeasureError)
    ),
    key=lambda cls: cls.__name__,
)


def _sample(cls):
    if issubclass(cls, errors.VerificationViolation):
        return cls("failed here", stage=12, block=(2, 3))
    if issubclass(cls, errors.InsufficientDepth):
        return cls("too shallow", 4)
    return cls("failed here")


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_error_survives_pickling(cls):
    error = _sample(cls)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert copy.args == error.args
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
    if isinstance(error, errors.VerificationViolation):
        assert (copy.stage, copy.block) == (12, (2, 3))
    if isinstance(error, errors.InsufficientDepth):
        assert copy.required_m == 4
