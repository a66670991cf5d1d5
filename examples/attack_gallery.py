#!/usr/bin/env python3
"""Attack gallery: every evaluated attack under every detection policy.

Replays the paper's full attack suite -- the three Figure 2 synthetic
attacks, the three Table 4 false-negative scenarios, and the four real-world
network application attacks of section 5.1.2 -- under:

* the paper's pointer-taintedness policy,
* a control-data-only baseline (Minos / Secure Program Execution style),
* an unprotected machine (to show each attack actually succeeds).

Run:  python examples/attack_gallery.py
"""

from repro.defenses.policy import (
    ControlDataPolicy,
    NullPolicy,
    PointerTaintPolicy,
)
from repro.evalx.experiments import all_attack_scenarios, report_coverage_matrix


def main() -> None:
    print("Replaying each attack (details), then the coverage matrix.\n")
    paper = PointerTaintPolicy()
    for scenario in all_attack_scenarios():
        result = scenario.run_attack(paper)
        verdict = (
            f"ALERT at `{result.alert.disassembly}` "
            f"pointer={result.alert.pointer_value:#010x}"
            if result.detected
            else f"undetected ({result.describe()})"
        )
        print(f"[{scenario.category:>16}] {scenario.name:26} {verdict}")
        print(f"{'':19}{scenario.description} -- {scenario.paper_ref}")
    print()
    print(report_coverage_matrix())
    print(
        "\nReading the matrix: pointer-taintedness detects all seven real\n"
        "attacks; the control-flow-integrity baseline catches only the\n"
        "return-address smash; every attack compromises an unprotected\n"
        "machine; and the three Table 4 scenarios evade detection -- the\n"
        "paper's acknowledged false negatives."
    )


if __name__ == "__main__":
    main()
