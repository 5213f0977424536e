"""scripts/base_compare.py: the check that a change keeps every output
byte-identical to a base tree's."""

import json

from conftest import SCRIPTS, script

base_compare = script("base_compare")


def test_the_working_tree_matches_itself(tmp_path):
    """Every case, run twice on this tree's source in two child processes,
    writes the same bytes, and none of the comparison comes out empty."""
    assert base_compare.check(SCRIPTS.parent, SCRIPTS.parent, tmp_path) == []


def test_one_digit_of_a_trace_objective_is_named(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, digit in ((a, "7"), (b, "8")):
        (d / "grid" / "traces").mkdir(parents=True)
        (d / "grid" / "traces" / "same.jsonl").write_text(
            '{"iteration": 7, "objective": 0.5}\n', encoding="utf-8")
        (d / "toy.jsonl").write_text(
            '{"iteration": 7, "objective": 5400.25}\n'
            f'{{"iteration": 14, "objective": 5369.70661295997{digit}5}}\n'
            '{"iteration": 21, "objective": 5300.5}\n', encoding="utf-8")
    found = base_compare.compare(a, b)
    assert found == [f"toy.jsonl: line 2/objective: {5369.7066129599775!r} "
                     f"!= {5369.7066129599785!r}"]
    assert base_compare.report(found) == 1
    assert capsys.readouterr().out == found[0] + "\n"


def test_ledgers_differing_only_in_wall_times_and_order_match(tmp_path, capsys):
    rows = [{"penalty": "xlogx", "alpha": a, "beta": 0.0, "objective": 10 - a,
             "wall_time": 0.25 + a} for a in (0.0, 0.1, 0.2)]
    a, b = tmp_path / "a", tmp_path / "b"
    for d, order, shift in ((a, rows, 0.0), (b, rows[::-1], 1.5)):
        (d / "grid").mkdir(parents=True)
        (d / "grid" / "runs.jsonl").write_text("".join(
            json.dumps({**r, "wall_time": r["wall_time"] + shift}) + "\n"
            for r in order), encoding="utf-8")
    assert base_compare.compare(a, b) == []
    assert base_compare.report([]) == 0
    assert capsys.readouterr().out == "identical\n"
    # any other field still counts
    (b / "grid" / "runs.jsonl").write_text(
        (b / "grid" / "runs.jsonl").read_text().replace('"beta": 0.0', '"beta": 0.5', 1))
    assert [f.split(":")[0] for f in base_compare.compare(a, b)] == ["grid/runs.jsonl"]
