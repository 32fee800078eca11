"""Bundled worked-example corpus and its verification harness.

Each fixture is a directory with ``job.json`` and ``expected.json``.  The
expected document pins exact values for a subset of report fields (any of
``psi``, ``psi_divided``, ``charpoly``, ``verdict``, ``factors``,
``observed_depth``); verification runs the job and compares those fields
against the produced report, exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import FixtureError
from .jobs import canonical_json, load_job, read_json, run_job

COMPARABLE_FIELDS = ("psi", "psi_divided", "charpoly", "verdict", "factors",
                     "certificates", "observed_depth")


def bundled_dir() -> Path:
    path = Path(str(resources.files("psicert").joinpath("fixtures_data")))
    return path


@dataclass
class FixtureResult:
    name: str
    mismatches: list = field(default_factory=list)  # (field, expected, actual)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.error is None


@dataclass
class FixtureSummary:
    results: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def lines(self) -> list[str]:
        out = []
        for r in self.results:
            if r.ok:
                out.append(f"PASS {r.name}")
            elif r.error is not None:
                out.append(f"FAIL {r.name}: {r.error}")
            else:
                fields = ", ".join(m[0] for m in r.mismatches)
                out.append(f"FAIL {r.name}: mismatch in {fields}")
        return out


def _compare_field(name: str, expected, report_obj) -> list:
    actual = report_obj.get(name)
    if canonical_json(expected) != canonical_json(actual):
        return [(name, expected, actual)]
    return []


def verify_fixtures(directory=None) -> FixtureSummary:
    """Run every fixture under `directory` (default: the bundled corpus)."""
    root = Path(directory) if directory is not None else bundled_dir()
    if not root.is_dir():
        raise FixtureError(f"fixture directory {root} does not exist")
    names = sorted(p.name for p in root.iterdir() if (p / "job.json").is_file())
    if not names:
        raise FixtureError(f"fixture directory {root} contains no fixtures")
    results = []
    for name in names:
        res = FixtureResult(name)
        try:
            expected_path = root / name / "expected.json"
            if not expected_path.is_file():
                raise FixtureError(f"missing expected.json for fixture {name}")
            expected = read_json(expected_path)
            if not isinstance(expected, dict):
                raise FixtureError(f"{expected_path} is not a JSON object")
            unknown = set(expected) - set(COMPARABLE_FIELDS)
            if unknown:
                raise FixtureError(f"expected.json for {name} has unknown fields {sorted(unknown)}")
            job = load_job(root / name / "job.json")
            report = run_job(job).to_json_obj()
            for key, value in expected.items():
                res.mismatches.extend(_compare_field(key, value, report))
        except Exception as exc:  # report per-fixture, keep going
            res.error = f"{type(exc).__name__}: {exc}"
        results.append(res)
    return FixtureSummary(results)
