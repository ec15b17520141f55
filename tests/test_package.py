import sys

import pytest

import partsel


def test_every_public_name_is_its_defining_modules_object():
    for name in partsel.__all__:
        value = getattr(partsel, name)
        assert getattr(sys.modules[value.__module__], name) is value


def test_dir_lists_the_public_names():
    assert set(partsel.__all__) <= set(dir(partsel))
    assert "__version__" in dir(partsel)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        partsel.no_such_name  # noqa: B018
    assert not hasattr(partsel, "pipeline_v2")


def test_errors_keep_their_identity_across_modules():
    import partsel.params
    import partsel.pipeline

    for name in ("ConfigurationError", "InputFormatError", "StrictViolationError"):
        error = getattr(partsel, name)
        assert getattr(partsel.pipeline, name) is error
        assert getattr(partsel.params, name) is error
        assert issubclass(error, ValueError)
