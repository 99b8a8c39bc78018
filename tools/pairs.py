#!/usr/bin/env python3
"""Alternating parent/change runs of the benchmark, summarised per metric.

Run from the root of a git checkout:

    python3 tools/pairs.py --workload sphere_constrained --pairs 10

The change is the working tree. The parent is a revision exported with
`git archive` into a temporary directory: `--parent`, or by default HEAD
when tracked files differ from HEAD (an uncommitted change) and HEAD~1
when they do not (a committed one). Each pair runs
`perfbench/run.py --seed N --trace 0` once on each side (N from `--seed`,
default 1), parent first in odd pairs and change first in even ones, so
a drift of the machine's speed falls on both sides alike. A claim should
also hold at a seed not used while the change was written. For every
end-to-end metric that BENCHMARK.json declares, one table row gives the
parent median (IQR), the change median (IQR), the change of the medians
in percent, the number of pairs in which the change read lower, and a
verdict (see `verdict`). The lines after the table give each side's
`golden:` results and its summed `failed` count, the workload seed, and
each side's line count of `src/wellopt` (every `.py` file), the measure
of ROADMAP's north-star 2. The exit status is 1 when any run failed, or
when a workload's golden digests moved: every parent run reads
`golden: match` and some change run does not (see `golden_moved`).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path


def export(revision: str, into: Path) -> Path:
    """A copy of the committed files of `revision` in a new directory."""
    archive = subprocess.run(["git", "archive", revision], check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def default_parent() -> str:
    """HEAD when tracked files differ from it, HEAD~1 when they do not."""
    dirty = subprocess.run(["git", "diff", "--quiet", "HEAD"]).returncode
    return "HEAD" if dirty else "HEAD~1"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its result line plus its `golden:` line."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    result["golden"] = next((line.split("golden:", 1)[1].strip()
                             for line in lines
                             if line.strip().startswith("golden:")), "absent")
    return result


def source_lines(root: Path) -> int:
    """Lines in the `.py` files under `root/src/wellopt`."""
    return sum(len(path.read_text().splitlines())
               for path in (root / "src" / "wellopt").rglob("*.py"))


def quartiles(values: list[float]) -> tuple[float, float]:
    """Median and interquartile range (linear interpolation)."""
    if len(values) < 2:
        return values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q3 - q1


def verdict(before: list[float], after: list[float], better: str,
            bound: float) -> str:
    """One metric's paired runs judged as `gain`, `worse`, `unresolved`
    or `level`, the first that holds:

    - gain: the change is better in at least 9 of 10 pairs (a tie counts
      for neither side), and its median is better than the parent's by
      more than the parent's IQR;
    - worse: the change median is worse than the parent's by more than
      `bound` (relative);
    - unresolved: the parent's IQR exceeds `bound` of its median, and not
      every change run is better than every parent run.

    `better` is "lower" or "higher", as in BENCHMARK.json."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(a: float, b: float) -> bool:
        return sign * (a - b) < 0.0

    (p_med, p_iqr), (c_med, _) = quartiles(before), quartiles(after)
    wins = sum(beats(a, b) for a, b in zip(after, before))
    if 10 * wins >= 9 * len(before) and sign * (p_med - c_med) > p_iqr:
        return "gain"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    if p_iqr > bound * abs(p_med) and not all(
            beats(a, b) for a in after for b in before):
        return "unresolved"
    return "level"


def golden_moved(parent: list[str], change: list[str]) -> bool:
    """Whether a change moved the golden digests: every parent run's
    `golden:` result is a match and some change run's is not. A parent
    that does not match (no golden file, another fingerprint, moved
    digests) judges nothing."""
    return (all(g.startswith("match") for g in parent)
            and not all(g.startswith("match") for g in change))


def fmt(value: float) -> str:
    return f"{value:.4g}"


def table(workload: str, metrics: list[dict], parent: list[dict],
          change: list[dict]) -> list[str]:
    lines = []
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        before = [r["metrics"][name]["value"] for r in parent]
        after = [r["metrics"][name]["value"] for r in change]
        (p_med, p_iqr), (c_med, c_iqr) = quartiles(before), quartiles(after)
        pct = (c_med - p_med) / p_med * 100.0 if p_med else float("nan")
        lower = sum(a < b for a, b in zip(after, before))
        judged = verdict(before, after, metric["better"], metric["bound"])
        lines.append(f"| `{workload}` | {len(before)} | `{name}` | "
                     f"{fmt(p_med)} {unit} ({fmt(p_iqr)}) | "
                     f"{fmt(c_med)} {unit} ({fmt(c_iqr)}) | {pct:+.1f}% | "
                     f"{lower}/{len(before)} | {judged} |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed of every run (default 1)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--parent", default=None,
                        help="a revision; default: HEAD with an uncommitted "
                             "change, HEAD~1 without one")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        parent_root = export(args.parent or default_parent(),
                             Path(tmp, "parent"))
        change_root = Path.cwd()
        spec = json.loads((change_root / "BENCHMARK.json").read_text())
        rows = ["| workload | pairs | metric | parent median (IQR) | "
                "change median (IQR) | change | change lower in | verdict |",
                "|---|---|---|---|---|---|---|---|"]
        notes, failed, moved = [], 0, []
        for workload in args.workload:
            sides = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change",
                                                                 "parent")
                for side in order:
                    root = parent_root if side == "parent" else change_root
                    sides[side].append(run_once(root, workload, args.seed,
                                                args.seconds))
                print(f"{workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
            rows.extend(table(workload, spec["end_to_end"], sides["parent"],
                              sides["change"]))
            if golden_moved([r["golden"] for r in sides["parent"]],
                            [r["golden"] for r in sides["change"]]):
                moved.append(workload)
            for side, results in sides.items():
                golden = Counter(r["golden"] for r in results)
                failed += sum(r["failed"] for r in results)
                notes.append(f"{workload} {side}: golden: " + ", ".join(
                    f"{value} ({count})" for value, count in golden.items())
                    + f"; failed {sum(r['failed'] for r in results)}")
        notes.append(f"workload seed {args.seed}")
        if moved:
            notes.append("golden digests moved: " + ", ".join(moved))
        notes.append(f"src/wellopt lines: parent "
                     f"{source_lines(parent_root):,}, change "
                     f"{source_lines(change_root):,}")
    print("\n".join(rows + [""] + notes))
    return 1 if failed or moved else 0


if __name__ == "__main__":
    sys.exit(main())
