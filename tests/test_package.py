import unifrag


def test_every_public_name_is_listed_once_and_imports_from_the_package_root():
    assert len(unifrag.__all__) == len(set(unifrag.__all__))
    namespace: dict = {}
    exec("from unifrag import *", namespace)  # raises on a name the root lacks
    assert set(unifrag.__all__) <= namespace.keys()
