"""The public namespace of the package."""

import gmclone


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gmclone import *", namespace)
    for name in gmclone.__all__:
        assert namespace[name] is getattr(gmclone, name)
