import pickle

import pytest

from alignsig import errors

#: Constructor arguments of every AlignsigError subclass in errors.py.
ARGUMENTS = {
    errors.NonEquivalenceRelation: ("line 3", "<"),
    errors.MalformedLine: (3, "x"),
    errors.XmlSyntax: ((1, 30), "no element found"),
    errors.BadConfidence: ("Cell 2", "high"),
    errors.Undecodable: (7, "invalid start byte", "UTF-16"),
    errors.MissingEntity: ("Cell 0",),
    errors.DuplicateId: (4, "m1"),
    errors.UniverseTooSmall: (10, 12),
    errors.DuplicateSystemName: ("A",),
    errors.BadSystemName: ("blank system name",),
    errors.NegativeCount: ("A", "B", -1),
    errors.UndefinedStatistic: (),
    errors.ModeMismatch: ("bergmann", "nx1"),
    errors.TooManySystems: (12, 10),
    errors.EmptyTable: ("label tables must be non-empty",),
}


def test_every_subclass_has_arguments():
    subclasses = {cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.AlignsigError)}
    assert subclasses - {errors.AlignsigError} == set(ARGUMENTS)


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("cls", ARGUMENTS, ids=lambda cls: cls.__name__)
def test_pickling_keeps_type_message_and_attributes(cls, protocol):
    # what a worker process raises reaches its parent pickled
    exc = cls(*ARGUMENTS[cls])
    copy = pickle.loads(pickle.dumps(exc, protocol))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == ARGUMENTS[cls]
    assert vars(copy) == vars(exc)


@pytest.mark.parametrize("cls", ARGUMENTS, ids=lambda cls: cls.__name__)
def test_attributes_are_the_constructor_arguments(cls):
    exc = cls(*ARGUMENTS[cls])
    assert exc.args == ARGUMENTS[cls]
    assert tuple(getattr(exc, name) for name in cls.fields) == ARGUMENTS[cls]


@pytest.mark.parametrize("cls", [cls for cls in ARGUMENTS if ARGUMENTS[cls]],
                         ids=lambda cls: cls.__name__)
def test_too_few_or_too_many_arguments_raise_type_error(cls):
    with pytest.raises(TypeError):
        cls(*ARGUMENTS[cls][:-1])
    with pytest.raises(TypeError):
        cls(*ARGUMENTS[cls], "extra")
