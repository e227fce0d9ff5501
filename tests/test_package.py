"""The package's public names, which it resolves from its submodules on first use."""

import importlib
import inspect

import pytest

import riskcurves

SUBMODULES = ("_version", "curves", "data", "learners", "linalg")


def test_every_public_name_is_its_defining_modules_object():
    modules = [importlib.import_module(f"riskcurves.{m}") for m in SUBMODULES]
    for name in riskcurves.__all__:
        value = getattr(riskcurves, name)
        holders = [m for m in modules if hasattr(m, name)]
        assert holders, name
        assert all(getattr(m, name) is value for m in holders), name
        home = getattr(value, "__module__", None)
        if home and home.startswith("riskcurves."):  # classes and functions name their module
            assert getattr(importlib.import_module(home), name) is value, name


def test_dir_lists_the_public_names():
    assert set(riskcurves.__all__) <= set(dir(riskcurves))


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from riskcurves import *", namespace)
    for name in riskcurves.__all__:
        assert namespace[name] is getattr(riskcurves, name), name


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="'riskcurves' has no attribute 'no_such_name'"):
        riskcurves.no_such_name  # noqa: B018


def test_every_public_class_and_function_has_a_docstring_of_its_own():
    for name in riskcurves.__all__:
        value = getattr(riskcurves, name)
        if inspect.isclass(value):
            doc, inherited = vars(value).get("__doc__"), {base.__doc__ for base in value.__mro__[1:]}
        elif inspect.isfunction(value):
            doc, inherited = value.__doc__, set()
        else:
            continue
        assert doc and doc.strip() and doc not in inherited, name  # an Enum inherits one
        assert not doc.startswith(f"{name}("), name  # the signature a dataclass generates
