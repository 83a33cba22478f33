"""The public surface: what ``srdf_kit`` exports is exactly what it imports."""

import inspect

import srdf_kit


def test_every_exported_name_resolves():
    namespace = {}
    exec("from srdf_kit import *", namespace)
    assert [name for name in srdf_kit.__all__ if name not in namespace] == []
    assert len(set(srdf_kit.__all__)) == len(srdf_kit.__all__)


def test_every_imported_class_and_function_is_exported():
    public = {
        name for name, obj in vars(srdf_kit).items()
        if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
    }
    assert sorted(public - set(srdf_kit.__all__)) == []


def test_removed_names_stay_removed():
    for name in ("BayesAtomData", "bayes_atom_data", "EmptyAtom", "AmbiguityAtom"):
        assert name not in srdf_kit.__all__
        assert not hasattr(srdf_kit, name)
