"""Package exceptions survive pickling, so a worker process can send one back."""

import inspect
import pickle

import pytest

from btwmoe import errors


def _package_errors():
    return [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
            if issubclass(cls, errors.BtwError)]


@pytest.mark.parametrize("cls", _package_errors(), ids=lambda cls: cls.__name__)
def test_every_package_error_round_trips_through_pickle(cls):
    args = ("unimodal[0]", 3, "loss diverged") if cls is errors.TrainingFailureError else ("x",)
    exc = cls(*args)
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    if cls is errors.TrainingFailureError:
        assert (copy.phase, copy.epoch, copy.detail) == ("unimodal[0]", 3, "loss diverged")


def test_the_package_has_one_input_error_type():
    # A value, shape, sample size, spec, config line or file the program
    # cannot use is one InvalidInputError; a training failure is its own type.
    assert {cls.__name__ for cls in _package_errors()} == {
        "BtwError", "InvalidInputError", "NumericOverflowError", "TrainingFailureError",
    }
