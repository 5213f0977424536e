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


def test_exported_names_are_pinned():
    assert set(incseg.__all__) == {
        "GoldSegmentation", "RawCorpus", "load_gold", "write_segmentation",
        "CRITERIA", "CriterionValue", "SegmentedText", "majority_vote",
        "LearnerOptions", "PenaltyParams", "RunResult",
        "SegmentationHypothesis", "run", "step", "Lexicon", "TokenSequence",
        "init_from_corpus", "evaluate_segmentation", "spearman_rho",
        "GridSpec", "RunRecord", "run_grid", "select_family_minimum",
        "__version__"}
