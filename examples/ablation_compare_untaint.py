#!/usr/bin/env python3
"""Ablation: what happens without the compare-untaint rule?

Table 1's compare rule ("untaint every byte in the operands of a compare
instruction") is the paper's application-compatibility concession.  It cuts
both ways:

* WITH the rule: validated input is trusted -> zero false positives on
  benign programs, but the Table 4(A) integer-overflow attack slips through
  (its flawed bound check still untaints the index).
* WITHOUT the rule: Table 4(A) is caught! ...and ordinary bounds-checked
  array indexing in benign programs starts raising false alarms, which is
  why the paper keeps the rule.

This script measures both sides of the trade-off.

Run:  python examples/ablation_compare_untaint.py
"""

from repro.apps.spec import SPEC_WORKLOADS
from repro.apps.synthetic import vuln_a_scenario
from repro.attacks.replay import run_minic
from repro.defenses.policy import PointerTaintPolicy


def main() -> None:
    strict = PointerTaintPolicy(untaint_on_compare=False)
    paper = PointerTaintPolicy()

    print("=== Table 4(A) integer-overflow attack ===")
    scenario = vuln_a_scenario()
    with_rule = scenario.run_attack(paper)
    without_rule = scenario.run_attack(strict)
    print(f"  paper policy (compare untaints):   {with_rule.describe()}")
    print(f"  ablated policy (no untainting):    {without_rule.describe()}")
    assert not with_rule.detected and without_rule.detected

    print("\n=== benign workloads under both policies ===")
    print(f"  {'workload':10} {'paper policy':>14} {'ablated policy':>16}")
    false_positives = 0
    for workload in SPEC_WORKLOADS[:4]:
        stdin = workload.make_input()
        ok = run_minic(workload.source, paper, stdin=stdin)
        ablated = run_minic(workload.source, strict, stdin=stdin)
        if ablated.detected:
            false_positives += 1
        print(
            f"  {workload.name:10} {ok.outcome:>14} {ablated.outcome:>16}"
        )
        assert ok.outcome == "exit"

    print(
        f"\nWithout the compare rule, {false_positives} of 4 benign "
        "workloads raise FALSE alarms\n(validated indices stay tainted). "
        "That is the trade-off the paper accepts:\nkeep the rule, accept "
        "the Table 4 false negatives, get zero false positives."
    )


if __name__ == "__main__":
    main()
