"""The correctness gate every benchmark repetition passes through.

A report must show the paper's shape: on Table 2's matrix every channel
cell decodes its payload cleanly, and the KASLR sweep breaks on the four
Intel models and stays blind on Zen 3 (``ryzen-5600G``); ``ci-smoke``
decodes ``030b``.  At the shipped seeds (offset 0) the report bytes must
also hash to the checksum pinned here, taken from the commit that added
this benchmark.  Any change to the report bytes or to ``repro.__version__``
therefore fails the gate until the pin is renewed on purpose.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

#: sha256 of ``<store>/<campaign>/report.json`` at the shipped seeds.
PINNED_REPORT_SHA256 = {
    "e3-matrix": "f0887dbcb461e15af04cabff21a7b57143439251d1a246cba8511817126cd73a",
    "ci-smoke": "a7dfca0953dc5f03bd2e365560aee1b86ea5f8fcbff324d20caa76de2b949f66",
}

#: Trials per campaign: what a report must contain, and what a repetition
#: counts as attempted.
TRIALS = {"e3-matrix": 5120, "ci-smoke": 32}

INTEL_MODELS = ("i7-6700", "i7-7700", "i9-10980XE", "i9-13900K")
BLIND_MODELS = ("ryzen-5600G",)


def _channel_problems(cell: dict) -> List[str]:
    problems = []
    for rep in cell["reps"]:
        if rep["received"] != cell["payload"] or rep["error_rate"] != 0.0:
            problems.append(
                f"channel cell {cell['cell']} on {cell['model']}: sent "
                f"{cell['payload']} received {rep['received']}"
            )
    return problems


def shape_problems(campaign: str, report: dict) -> List[str]:
    """Every way *report* departs from the paper's shape (empty = ok)."""
    if report.get("campaign") != campaign:
        return [f"report is for {report.get('campaign')!r}, not {campaign!r}"]
    summary = report["summary"]
    problems = []
    if summary["trials"] != TRIALS[campaign]:
        problems.append(f"{summary['trials']} trials, expected {TRIALS[campaign]}")
    if summary["failures"]:
        problems.append(f"{summary['failures']} failed trials")
    cells = report["cells"]
    for cell in cells:
        if cell["failures"]:
            problems.append(f"cell {cell['cell']} has failures")
        if cell["kind"] == "channel":
            problems += _channel_problems(cell)
    if campaign == "ci-smoke":
        if [cell["payload"] for cell in cells] != ["030b"]:
            problems.append("ci-smoke must be one channel cell sending 030b")
        return problems
    models = INTEL_MODELS + BLIND_MODELS
    for kind in ("channel", "kaslr"):
        seen = sorted(cell["model"] for cell in cells if cell["kind"] == kind)
        if seen != sorted(models):
            problems.append(f"{kind} cells cover {seen}, expected {sorted(models)}")
    for cell in cells:
        if cell["kind"] != "kaslr":
            continue
        broken = [rep["success"] for rep in cell["reps"]]
        if cell["model"] in INTEL_MODELS and not all(broken):
            problems.append(f"KASLR did not break on {cell['model']}")
        if cell["model"] in BLIND_MODELS and any(broken):
            problems.append(f"KASLR broke on {cell['model']}, which must stay blind")
    return problems


def report_problems(campaign: str, data: bytes, shipped_seeds: bool) -> List[str]:
    """The gate for one report file's bytes (empty = ok)."""
    try:
        report = json.loads(data)
        problems = shape_problems(campaign, report)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report ({type(exc).__name__}: {exc})"]
    if shipped_seeds:
        digest = hashlib.sha256(data).hexdigest()
        if digest != PINNED_REPORT_SHA256[campaign]:
            problems.append(
                f"report sha256 {digest} != pinned {PINNED_REPORT_SHA256[campaign]}"
            )
    return problems


def simulated_cycles(data: bytes) -> int:
    """Simulated cycles summed over the report's cells."""
    return sum(int(cell["cycles"]) for cell in json.loads(data)["cells"])
