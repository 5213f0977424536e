"""The package's top-level names."""

import incseg


def test_all_names_resolve():
    for name in incseg.__all__:
        assert getattr(incseg, name) is not None, name


def test_entry_points_stay_exported():
    # the benchmark drives the library through these names
    for name in ("run", "load_gold", "write_segmentation",
                 "evaluate_segmentation", "majority_vote"):
        assert callable(getattr(incseg, name)), name
