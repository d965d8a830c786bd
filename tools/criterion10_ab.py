"""Alternating A/B runs of acceptance criterion 10 on two checkouts.

    python3 tools/criterion10_ab.py PARENT CHANGE --pairs 10

Criterion 10 gates the ratio of per-iteration solve time at n = 4000 to
n = 2000, and a slow spell on the host can fail it on unchanged code, so
one run of each side shows little.  Each pair here runs
tests/test_acceptance.py::test_criterion_10_complexity_scaling once from
each checkout, in a fresh pytest process started in that checkout with
PYTHONPATH set to its src/ (so the root conftest.py adds nothing) and
without pytest's cache; the side that runs first alternates from pair
to pair.  It reads the ratio and PASS or FAIL from the scoreboard line
the test prints, prints each run, and ends with, per side, the run count,
the failures and the min, median and max ratio.  It changes no test or
gate.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

TEST = "tests/test_acceptance.py::test_criterion_10_complexity_scaling"
LINE = re.compile(r"ACCEPTANCE CRITERION 10: (PASS|FAIL)\s+"
                  r"\[per-iteration time ratio ([0-9.]+)")


def run_once(checkout: Path) -> tuple[bool, float]:
    """(passed, ratio) of one criterion-10 run from `checkout`."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         TEST], cwd=checkout, env=env, capture_output=True, text=True,
        timeout=600)
    match = LINE.search(out.stdout)
    if match is None:
        raise RuntimeError(f"no criterion 10 line from {checkout}:\n"
                           f"{out.stdout}{out.stderr}")
    return match.group(1) == "PASS", float(match.group(2))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, root in sides.items():
        if not (root / TEST.split("::")[0]).is_file():
            p.error(f"{name}: {root} has no {TEST.split('::')[0]}")

    results = {name: [] for name in sides}
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        for name in order:
            passed, ratio = run_once(sides[name])
            results[name].append((passed, ratio))
            print(f"pair {pair + 1:3d} {name:6s} "
                  f"{'PASS' if passed else 'FAIL'} {ratio:.2f}", flush=True)
    for name, runs in results.items():
        ratios = [ratio for _, ratio in runs]
        failed = sum(not passed for passed, _ in runs)
        print(f"{name}: {len(runs)} runs, {failed} failed, ratio min "
              f"{min(ratios):.2f} median {statistics.median(ratios):.2f} "
              f"max {max(ratios):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
