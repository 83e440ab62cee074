import types

import bentkit


def test_all_is_every_public_name_the_package_binds():
    names = bentkit.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(bentkit, name) for name in names)
    # submodules are bound too (by the package's own imports and by any
    # `import bentkit.x`), but are not exports
    public = {
        name for name, value in vars(bentkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(names) == public
