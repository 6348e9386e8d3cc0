"""Threading of the ``metrics=`` knob through the runner, specs and CLI.

``metrics="summary"`` specs execute end to end with summary rows identical
to ``metrics="full"``, and the knob round-trips through the declarative
:class:`~repro.runtime.spec.ExperimentSpec` JSON format and the CLI.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import pytest

from repro.exceptions import ValidationError
from repro.policies import PolicySpec
from repro.runtime.runner import ExperimentRunner, RunSpec
from repro.runtime.spec import ExperimentSpec
from repro.sim.scenario import ScenarioConfig


@pytest.fixture
def service_scenario():
    return ScenarioConfig.fig1b(seed=0).with_overrides(num_slots=60)


@pytest.fixture
def service_specs(service_scenario):
    return [
        RunSpec(
            kind="service",
            scenario=service_scenario,
            policy=PolicySpec.coerce("lyapunov"),
            label="lyapunov",
        ),
        RunSpec(
            kind="service",
            scenario=service_scenario,
            policy=PolicySpec.coerce("always-serve"),
            label="always",
        ),
    ]


class TestMetricsThreading:
    def test_runspec_validates_metrics(self, service_scenario):
        with pytest.raises(ValidationError):
            RunSpec(
                kind="service",
                scenario=service_scenario,
                policy=PolicySpec.coerce("lyapunov"),
                metrics="everything",
            )

    def test_summary_specs_execute_identically(self, service_specs):
        full = ExperimentRunner(workers=1).run_grid(service_specs, num_seeds=3)
        summary = ExperimentRunner(workers=1).run_grid(
            [replace(spec, metrics="summary") for spec in service_specs],
            num_seeds=3,
        )
        assert full.rows() == summary.rows()
        assert full.matches(summary)

    def test_summary_cache_specs_keep_traces(self):
        spec = RunSpec(
            kind="cache",
            scenario=ScenarioConfig.small(seed=0, num_slots=30),
            policy=PolicySpec.coerce("mdp"),
            metrics="summary",
            label="cache",
        )
        batch = ExperimentRunner(workers=1).run_grid([spec], num_seeds=2)
        full = ExperimentRunner(workers=1).run_grid(
            [replace(spec, metrics="full")], num_seeds=2
        )
        assert batch.matches(full)
        assert all(record.trace is not None for record in batch.records)

    def test_experiment_spec_round_trips_metrics(self):
        spec = ExperimentSpec(
            kind="cache",
            scenario=ScenarioConfig.small(seed=0, num_slots=20),
            policy="mdp",
            metrics="summary",
        )
        rebuilt = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.metrics == "summary"
        assert rebuilt.to_run_spec().metrics == "summary"

    def test_experiment_spec_metrics_default_and_validation(self):
        spec = ExperimentSpec(
            kind="cache",
            scenario=ScenarioConfig.small(seed=0, num_slots=20),
            policy="mdp",
        )
        assert spec.metrics == "full"
        with pytest.raises(ValidationError):
            spec.with_overrides(metrics="everything")

    def test_cli_metrics_flag(self, tmp_path):
        from repro.cli import main
        from repro.runtime.spec import save_specs

        path = str(tmp_path / "experiments.json")
        out_path = str(tmp_path / "results.json")
        save_specs(
            [
                ExperimentSpec(
                    kind="cache",
                    scenario=ScenarioConfig.small(seed=0, num_slots=20),
                    policy="mdp",
                    num_seeds=2,
                )
            ],
            path,
        )
        out = io.StringIO()
        code = main(
            [
                "run",
                "--spec",
                path,
                "--metrics",
                "summary",
                "--out",
                out_path,
                "--workers",
                "1",
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        document = json.loads(open(out_path).read())
        assert document["rows"]
        # --metrics without --spec is a usage error.
        out = io.StringIO()
        assert main(["run", "E1", "--metrics", "summary"], out=out) == 2
        assert "--metrics applies to --spec" in out.getvalue()
