"""Render fault-injection campaign results as a coverage report.

The layout mirrors the paper's evaluation tables: a header with the
campaign parameters and the reproducibility digest, an outcome
distribution, a fault-kind x outcome matrix (which fault classes the
taintedness detector catches, which are masked by the workload, and which
slip through as silent data corruption), and the recovery summary.
"""

from __future__ import annotations

from ..fault.campaign import CampaignResult, OUTCOMES
from .reporting import render_kv, render_table

__all__ = ["render_campaign_report"]


def render_campaign_report(result: CampaignResult) -> str:
    config = result.config
    counts = result.counts
    total = len(result.records) or 1
    header = render_kv(
        [
            ("workload", result.workload),
            ("seed", config.seed),
            ("trials", len(result.records)),
            ("recovery", config.recovery),
            ("caches", "on" if config.use_caches else "off"),
            (
                "golden",
                f"exit={result.golden.exit_status} "
                f"instructions={result.golden.instructions}",
            ),
            ("faults injected", result.injected_count),
            ("digest", result.digest()),
            ("throughput", f"{result.trials_per_second:.1f} trials/sec"),
        ],
        title="Fault-injection campaign",
    )

    outcome_table = render_table(
        ["outcome", "trials", "share"],
        [
            [outcome, counts[outcome], f"{100.0 * counts[outcome] / total:.1f}%"]
            for outcome in OUTCOMES
        ],
        title="Outcome distribution",
    )

    matrix = result.kind_outcome_matrix()
    matrix_table = render_table(
        ["fault kind"] + list(OUTCOMES) + ["total"],
        [
            [kind] + [row[outcome] for outcome in OUTCOMES] + [sum(row.values())]
            for kind, row in sorted(matrix.items())
        ],
        title="Fault kind x outcome",
    )

    parts = [header, "", outcome_table, "", matrix_table]
    if config.recovery == "rollback-retry":
        abnormal = (
            counts["detected"] + counts["crash"] + counts["timeout"]
        )
        parts += [
            "",
            render_kv(
                [
                    ("abnormal endings", abnormal),
                    ("rollback-retry reproduced golden", result.recovered_count),
                ],
                title="Recovery (rollback-retry)",
            ),
        ]
    return "\n".join(parts)
