"""tools/benchdiff.py on the committed benchmark record."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "benchdiff.py")


def _load_tool():
    spec = importlib.util.spec_from_file_location("benchdiff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench9_reduce_chain_claim_holds():
    proc = subprocess.run([sys.executable, TOOL, os.path.join(ROOT, "BENCH_9.json")],
                          capture_output=True, text=True, timeout=60, check=True)
    lines = proc.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("reduce_chain "))
    row = next(line for line in lines[start:] if line.split()[0] == "jobs_per_s")
    assert row.split()[7:10] == ["10/10", "gain", "holds:"]
    assert "11.0935 [10.7759, 11.6095]" in row      # median and quartiles of the parent


def test_claim_rule():
    compare = _load_tool().compare
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.5, 11.5, 12.5, 13.5, 14.5]
    faster = [p + 5.0 for p in parent]
    assert compare(parent, faster, higher_is_better=True)["holds"]
    assert not compare(parent, faster, higher_is_better=False)["holds"]
    # 9 of 10 wins, but a median gain of 1.5 inside the parent's IQR of 2.25
    close = [p + 2.0 for p in parent[:9]] + [parent[9] - 1.0]
    result = compare(parent, close, higher_is_better=True)
    assert result["wins"] == 9 and result["parent_iqr"] == 2.25 and result["gain"] == 1.5
    assert not result["holds"]


def test_spread_wider_than_the_bound_is_unresolved():
    compare = _load_tool().compare
    # parent IQR 3.5 on a median of 10: 35% of it, wider than a 25% bound
    parent = [4.0, 6.0, 8.0, 9.0, 10.0, 10.0, 11.0, 12.0, 14.0, 16.0]
    assert compare(parent, [p * 1.05 for p in parent], True, bound=0.25)["unresolved"]
    assert not compare(parent, parent, True, bound=0.5)["unresolved"]
    # unless every run of the change is better than every run of the parent
    better = [p + 12.1 for p in parent]
    assert not compare(parent, better, True, bound=0.25)["unresolved"]
    assert compare(parent, better, False, bound=0.25)["unresolved"]
    assert compare(parent, [16.0] + parent[1:], True, bound=0.25)["unresolved"]


def test_change_spread_wider_than_the_bound_is_flagged():
    compare = _load_tool().compare
    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    assert not compare(parent, parent, False, bound=0.25)["spread"]
    # the same median, an IQR of 3.3 against 0.25 × 10.9 = 2.725
    wide = [7.0, 8.0, 9.0, 10.0, 10.9, 10.9, 11.8, 12.8, 13.8, 14.8]
    result = compare(parent, wide, False, bound=0.25)
    assert result["spread"] and not result["unresolved"]


def test_bench10_reports_the_wide_algebra_setup_as_unresolved():
    proc = subprocess.run([sys.executable, TOOL, os.path.join(ROOT, "BENCH_10.json")],
                          capture_output=True, text=True, timeout=60, check=True)
    lines = proc.stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("algebra_mix "))
    row = next(line for line in lines[start:] if line.split()[0] == "setup_s")
    assert "unresolved: parent IQR 0.1068 > bound 0.25 × median 0.4194" in row
