"""Golden reports of the sampled audits: audit_a1, audit_a4 and audit_relaxed_a4.

Each case runs one audit with a fixed seed and compares its report with
``audit_golden.json``: verdict, trial count, worst value and message as
they are, the location t of the worst Lebesgue value, and the whole
``to_json()`` by a SHA-256 digest of its canonical JSON.  The cases cover
PASS, FAIL and INCONCLUSIVE verdicts, singular-Gram skips (partial and
total) and failed point sampling.

To regenerate the golden file after an intended change of the reports:

    PYTHONPATH=src python tests/test_audit_golden.py

Before it overwrites the file, the script prints, for each case that
changed, the fields that moved, the relative move of worst_value and
whether the location t moved.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from l1kernels import (
    Interval,
    PointSet,
    RandomPointSets,
    audit_a1,
    audit_a4,
    audit_relaxed_a4,
    brownian_bridge,
    exponential,
    gaussian,
    wendland_d3_k1,
)
from l1kernels import admissibility

GOLDEN = Path(__file__).with_name("audit_golden.json")
GRID = 401
TRIALS = 6


def closed(lo, hi):
    return Interval(lo, hi, lo_open=False, hi_open=False)


KERNELS = {
    "exponential": (exponential(), closed(-3.0, 3.0)),
    "brownian_bridge": (brownian_bridge(), brownian_bridge().domain),
    "gaussian": (gaussian(1.0), closed(-3.0, 3.0)),
    "wendland_d3_k1": (wendland_d3_k1(), closed(-1.0, 1.0)),
}


class SometimesDuplicated:
    """Sorted uniform draws; with probability 1/2 the first point is repeated,
    which makes the PointSet constructor raise DuplicatePoints."""

    domain = closed(-1.0, 1.0)

    def __call__(self, rng):
        pts = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(3, 8))))
        if rng.random() < 0.5:
            pts[1] = pts[0]
        return PointSet(pts)


def audits(kernel, generator, seed):
    """The three sampled audits of one kernel and generator, by name."""
    return {
        "a1": lambda: audit_a1(kernel, generator, trials=TRIALS, master_seed=seed),
        "a4": lambda: audit_a4(kernel, generator, grid_size=GRID, trials=TRIALS, master_seed=seed),
        "relaxed": lambda: audit_relaxed_a4(
            kernel, generator, grid_size=GRID, trials=TRIALS, master_seed=seed
        ),
    }


def cases():
    out = {}
    for name, (kernel, window) in KERNELS.items():
        for sizes, spacing in (((2, 30), 1e-3), ((31, 120), 1e-4)):
            gen = RandomPointSets(window, sizes, spacing)
            for seed in (0, 1):
                for audit, run in audits(kernel, gen, seed).items():
                    out[f"{name}-n{sizes[0]}-{sizes[1]}-seed{seed}-{audit}"] = run
    clustered = closed(0.0, 0.05)
    for sizes in ((2, 6), (20, 25)):
        gen = RandomPointSets(clustered, sizes)
        for audit, run in audits(gaussian(1.0), gen, 1).items():
            out[f"gaussian-clustered-n{sizes[0]}-{sizes[1]}-seed1-{audit}"] = run
    for audit, run in audits(exponential(), SometimesDuplicated(), 3).items():
        out[f"exponential-duplicates-seed3-{audit}"] = run
    # spacing no draw can meet: the sampler gives up with RuntimeError
    starved = RandomPointSets(closed(-1.0, 1.0), (40, 50), min_spacing_factor=0.05)
    for audit, run in audits(exponential(), starved, 0).items():
        out[f"exponential-starved-seed0-{audit}"] = with_three_draws(run)
    return out


def with_three_draws(run):
    """run, with the sampler giving up after 3 draws instead of MAX_POINT_DRAWS."""

    def limited():
        with mock.patch.object(admissibility, "MAX_POINT_DRAWS", 3):
            return run()

    return limited


def summarize(report) -> dict:
    obj = report.to_json()
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    location = obj["stats"]["argmax_location"]
    return {
        "verdict": obj["verdict"],
        "n_trials": obj["stats"]["n_trials"],
        "worst_value": obj["stats"]["worst_value"],
        "argmax_t": location["t"] if location else None,
        "message": obj.get("message"),
        "sha256": digest,
    }


def changes(old: dict, new: dict) -> list:
    """One line per case whose summary differs between two golden tables."""
    lines = []
    for case in sorted(old.keys() | new.keys()):
        before, after = old.get(case), new.get(case)
        if before == after:
            continue
        if before is None or after is None:
            lines.append(f"{case}: {'added' if before is None else 'removed'}")
            continue
        keys = sorted(before.keys() | after.keys())
        moved = [key for key in keys if key not in before or key not in after or before[key] != after[key]]
        line = f"{case}: {', '.join(moved)}"
        was, now = before.get("worst_value"), after.get("worst_value")
        if was and now is not None and was != now:
            line += f"; worst_value moved {(now - was) / abs(was):+.2e} relative"
        if before.get("argmax_t") is not None and after.get("argmax_t") is not None:
            line += "; t moved" if "argmax_t" in moved else "; t kept"
        lines.append(line)
    return lines


CASES = cases()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_audit_report_matches_golden(case, golden):
    assert summarize(CASES[case]()) == golden[case]


if __name__ == "__main__":
    table = {case: summarize(run()) for case, run in sorted(CASES.items())}
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    moved = changes(old, table)
    print("\n".join(moved))
    print(f"{len(moved)} of {len(table)} cases changed")
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} cases to {GOLDEN}")
