"""tools/slottimes.py: which slot perfbench's percentile ranks fall on."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "slottimes.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("slottimes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_percentile_ranks_map_to_slots():
    percentile_slots = _load_tool().percentile_slots
    # 15 slots, slot i taking (7·i mod 15) + 1 ms: the k-th fastest is slot 13·(k − 1) mod 15
    times = [(7 * i) % 15 + 1.0 for i in range(15)]
    # nearest rank: p50 is the 8th fastest of 15 (8 ms) and p90 the 14th (14 ms)
    assert percentile_slots(times) == {0.5: 1, 0.9: 4}
    assert times[1] == 8.0 and times[4] == 14.0
    # 10 slots: p50 is the 5th fastest and p90 the 9th
    ten = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]
    assert percentile_slots(ten) == {0.5: 9, 0.9: 2}
    assert percentile_slots(ten, quantiles=(0.0, 1.0)) == {0.0: 1, 1.0: 0}
    # one slot is every percentile
    assert percentile_slots([3.0]) == {0.5: 0, 0.9: 0}


def _slot(digest: str) -> dict:
    return {"kind": "reduce", "sizes": {"n": 1}, "digest": digest, "best_s": 0.001}


def test_differing_output_digests_are_named(capsys):
    tool = _load_tool()
    parent = [_slot(d) for d in ("aa", "bb", "cc", "dd")]
    change = [_slot(d) for d in ("aa", "b0", "cc", "d0")]
    assert tool.differing_slots(parent, change) == [1, 3]
    tool._report({"parent": parent, "change": change})
    assert "outputs differ on slots 1, 3 (2 of 4)" in capsys.readouterr().out
    tool._report({"parent": parent, "change": parent})
    assert "outputs identical on all 4 slots" in capsys.readouterr().out


def test_against_itself_reports_identical_outputs(capsys):
    tool = _load_tool()
    assert tool.main(["algebra_mix", "--seed", "3", "--repeat", "1", "--rounds", "1",
                      "--against", ROOT]) == 0
    assert "outputs identical on all 15 slots" in capsys.readouterr().out


def test_rounds_keep_the_best_time_and_name_varying_digests():
    merge_rounds = _load_tool().merge_rounds
    rounds = [[dict(_slot(d), best_s=t) for d, t in zip(digests, times)]
              for digests, times in ((("aa", "bb", "cc"), (3.0, 1.0, 2.0)),
                                     (("aa", "b1", "cc"), (2.0, 4.0, 2.5)),
                                     (("aa", "bb", "c2"), (5.0, 0.5, 1.0)))]
    merged, varying = merge_rounds(rounds)
    assert [slot["best_s"] for slot in merged] == [2.0, 0.5, 1.0]
    assert [slot["digest"] for slot in merged] == ["aa", "bb", "cc"]
    assert varying == [1, 2]
    assert rounds[0][1]["best_s"] == 1.0      # the measured rounds are left as they were
    assert merge_rounds(rounds[:1]) == (rounds[0], [])


def test_against_names_slots_that_vary_in_a_later_round(monkeypatch, capsys):
    tool = _load_tool()
    # parent, change, then change, parent: the second parent process writes other bytes on slot 2
    runs = iter([["aa", "bb", "cc"], ["aa", "bb", "cc"], ["aa", "bb", "cc"], ["aa", "bb", "c2"]])
    monkeypatch.setattr(tool, "_measure_in_subprocess",
                        lambda root, args: [_slot(d) for d in next(runs)])
    assert tool.main(["algebra_mix", "--rounds", "2", "--against", ROOT]) == 0
    out = capsys.readouterr().out
    assert "outputs identical on all 3 slots" in out
    assert "parent outputs vary between rounds on slots 2 (1 of 3)" in out
    assert "change outputs vary" not in out


@pytest.mark.parametrize("flag", ["--rounds", "--repeat"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_rounds_and_repeat_below_one_are_usage_errors(flag, value, monkeypatch, capsys):
    tool = _load_tool()

    def refuse(*args, **kwargs):
        raise AssertionError("nothing is measured after a usage error")

    monkeypatch.setattr(tool, "_measure_in_subprocess", refuse)
    monkeypatch.setattr(tool, "measure", refuse)
    for against in ([], ["--against", ROOT]):
        with pytest.raises(SystemExit) as info:
            tool.main(["algebra_mix", flag, value, *against])
        assert info.value.code == 2
        assert f"{flag} must be at least 1" in capsys.readouterr().err
