"""Output checks.  Each returns a list of failure messages; empty means pass.

They take outputs as bytes and plain values so the self-test can feed
them deliberately corrupted copies.
"""

from __future__ import annotations

import json
import math

#: best r2 a discover run must reach, per workload.  On the noiseless grid
#: seeds 1-5 reached 0.99965-0.99987; the noisy rows cap r2 near 0.9965.
R2_TARGET = {"discover-mono": 0.999, "discover-rows": 0.99}

#: relative tolerance of predicted levels against the reference table
LEVEL_RTOL = 1e-9

#: relative tolerance of report predictions against a re-evaluation
PREDICTION_RTOL = 1e-9


def close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(1.0, abs(want))


def check_discover(workload: str, exit_code: int, report: bytes | None,
                   first_report: bytes | None, reevaluate) -> list[str]:
    """One discover invocation.

    ``first_report`` is an earlier report at the same GP seed, or None;
    ``reevaluate(graph_dict)`` returns the best graph's values on the
    dataset, computed with ``exprgraph.evaluate_batch``.
    """
    if exit_code != 0:
        return [f"discover exited with {exit_code}"]
    if report is None:
        return ["report.json missing"]
    failures = []
    if first_report is not None and report != first_report:
        failures.append("report.json differs from the earlier report at this seed")
    payload = json.loads(report)
    r2 = payload["equations"][0]["r2"]
    target = R2_TARGET[workload]
    if r2 is None or r2 < target:
        failures.append(f"best r2 {r2} below {target}")
    predicted = payload["predictions"]
    values = reevaluate(payload["equations"][0]["graph"])
    if len(predicted) != len(values):
        failures.append(f"{len(predicted)} predictions for {len(values)} rows")
    elif not all(close(float(v), p, PREDICTION_RTOL)
                 for p, v in zip(predicted, values)):
        failures.append("report predictions differ from the best graph "
                        "re-evaluated with evaluate_batch")
    return failures


def check_prediction(level: float, per_phase, reference: dict) -> list[str]:
    """One predict-ri request against its reference-table entry."""
    want = [reference["level"]] + reference["per_phase"]
    got = [level] + list(per_phase)
    if len(got) != len(want):
        return [f"{len(got) - 1} phase levels, reference has {len(want) - 1}"]
    if not all(close(g, w, LEVEL_RTOL) for g, w in zip(got, want)):
        return [f"levels {got} differ from reference {want}"]
    return []
