"""A/A and A/B reader: two summary files against the declared bounds.

For each workload and end-to-end metric it prints both medians and
quartiles over the repetitions, the relative difference of B against A in
the direction that counts as worse, and a verdict:

``within-bound``  B's median is not worse than A's by more than the bound;
``worse``         it is;
``unresolved``    the spread across repetitions (inter-quartile range over
                  median, of either side) is wider than the bound, so the
                  two medians cannot be told apart at that bound — unless
                  every repetition of B reads better than every one of A.
"""

from __future__ import annotations

import json
from statistics import median, quantiles
from typing import Any, Dict, List, Tuple


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    first, _second, third = quantiles(samples, n=4)
    return first, median(samples), third


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[float, str]:
    """Relative worsening of B against A, and what to call it."""
    (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b2 - a2) / a2
    clear_win = max(b) < min(a) if better == "lower" else min(b) > max(a)
    spread = max((a3 - a1) / a2, (b3 - b1) / b2)
    if clear_win:
        return worsening, "within-bound"
    if spread > bound:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > bound else "within-bound"


def compare(path_a: str, path_b: str, declaration: Dict[str, Any]) -> int:
    """Print the table; exit status 1 when any metric is ``worse``."""
    with open(path_a) as handle:
        summary_a = json.load(handle)
    with open(path_b) as handle:
        summary_b = json.load(handle)
    print(f"A = {path_a} (seed {summary_a['seed']})   B = {path_b} (seed {summary_b['seed']})")
    header = f"{'workload':16} {'metric':12} {'A q1/median/q3':>34} {'B q1/median/q3':>34}"
    print(f"{header} {'B vs A':>8} {'bound':>6}  verdict")
    status = 0
    for workload in (entry["name"] for entry in declaration["workloads"]):
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            a = summary_a["workloads"][workload]["end_to_end"][name]["samples"]
            b = summary_b["workloads"][workload]["end_to_end"][name]["samples"]
            worsening, label = verdict(a, b, metric["better"], metric["bound"])
            status = status or int(label == "worse")
            cells = ["/".join(f"{q:.5g}" for q in quartiles(side)) for side in (a, b)]
            print(
                f"{workload:16} {name:12} {cells[0]:>34} {cells[1]:>34}"
                f" {worsening:+8.1%} {metric['bound']:6.0%}  {label}"
            )
        for side, summary in (("A", summary_a), ("B", summary_b)):
            failed = summary["workloads"][workload]["failed"]
            print(f"{workload:16} failed       {side}: {failed}")
            status = status or int(failed > 0)
    return status
