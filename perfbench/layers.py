"""Per-layer metrics of the traced run.

``LayerProbe`` wraps the public functions of each package module (the
layers: channel, utility, timeshare, gradsched, quantized, fairness,
powercontrol, simulate, cli) in spans, reads solver results as they return,
and folds both into the metric names BENCHMARK.json lists under
``per_layer``.  ``oracles`` and ``errors`` are on no workload path.

Which end-to-end metric each layer should move, and where the prediction is
no change, is set out in ``README.md``.
"""

import inspect

import numpy as np

from spans import Tracer

# (span, module, qualified name): spans reporting calls and self time
COUNTED = [
    ("channel.sample_gains", "channel", "sample_gains"),
    ("channel.achievable_rate", "channel", "achievable_rate"),
    ("channel.quantize", "channel", "quantize"),
    ("utility.value", "utility", "LogUtility.value"),
    ("timeshare.allocate_ts", "timeshare", "allocate_ts"),
    ("quantized.greedy_allocate", "quantized", "QuantizedScheduler.greedy_allocate"),
    ("quantized.bin_expected_utility", "quantized", "bin_expected_utility"),
    ("fairness.average_utilities", "fairness", "average_utilities"),
    ("powercontrol.update_shares", "powercontrol", "update_shares"),
    ("powercontrol.update_energies", "powercontrol", "update_energies"),
    ("powercontrol.update_energies_pooled", "powercontrol", "update_energies_pooled"),
]
# spans reporting self time only
TIMED = [
    ("gradsched.select_user", "gradsched", "select_user"),
    ("gradsched.update_state", "gradsched", "update_state"),
    ("powercontrol.apply_policy", "powercontrol", "apply_policy"),
    ("simulate.run_experiment", "simulate", "run_experiment"),
    ("cli.main", "cli", "main"),
]

# spans read only for what their results report
RESULTS = [
    ("fairness.adapt_weights", "fairness", "adapt_weights"),
    ("powercontrol.solve_uplink", "powercontrol", "solve_uplink"),
    ("powercontrol.solve_downlink", "powercontrol", "solve_downlink"),
]

# metrics that repeat exactly from one traced run to the next
EXACT = [f"{span}.calls" for span, _, _ in COUNTED] + [
    "timeshare.degenerate",
    "fairness.iterations",
    "powercontrol.gs_iterations",
    "powercontrol.apply_rounds",
    "powercontrol.apply_at_cap",
    "simulate.frames",
]


class LayerProbe:
    """Spans on every layer plus what the solvers' results report."""

    def __init__(self):
        self.tracer = Tracer()
        self.active_users = 0
        self.degenerate = 0
        self.fairness_iterations = 0
        self.gs_iterations = 0
        self.apply_rounds = []
        self.apply_at_cap = 0
        self.budget_residual_max = 0.0
        self.frames = 0

    # -- result hooks ------------------------------------------------------

    def _on_allocate(self, result, args, kwargs, span):
        _, solve = result
        self.active_users += len(solve.active_set)
        self.degenerate += bool(solve.degenerate)

    def _on_adapt(self, result, args, kwargs, span):
        _, report = result
        self.fairness_iterations += report.iterations

    def _on_solve(self, result, args, kwargs, span):
        policy, trace = result
        self.gs_iterations += trace.iterations
        budgets = np.asarray(policy.budgets, dtype=float)
        if policy.pooled:
            spent = policy.energies.sum(axis=1).mean()
        else:
            spent = policy.energies.mean(axis=0)
        residual = float(np.max(np.abs(spent - budgets) / budgets))
        self.budget_residual_max = max(self.budget_residual_max, residual)

    def _on_apply(self, result, args, kwargs, span):
        # one round re-solves the shares once
        rounds = (span.child_calls or {}).get("powercontrol.update_shares", 0)
        self.apply_rounds.append(rounds)
        bound = self._apply_signature.bind(*args, **kwargs)
        bound.apply_defaults()
        if rounds >= bound.arguments["max_rounds"]:
            self.apply_at_cap += 1

    def _on_run_experiment(self, result, args, kwargs, span):
        self.frames += result.n_frames

    # -- install / remove --------------------------------------------------

    def install(self):
        from utilsched import powercontrol

        hooks = {
            "timeshare.allocate_ts": self._on_allocate,
            "fairness.adapt_weights": self._on_adapt,
            "powercontrol.solve_uplink": self._on_solve,
            "powercontrol.solve_downlink": self._on_solve,
            "powercontrol.apply_policy": self._on_apply,
            "simulate.run_experiment": self._on_run_experiment,
        }
        apply_policy = getattr(powercontrol, "apply_policy", None)
        self._apply_signature = inspect.signature(apply_policy) if apply_policy else None
        for span, module, name in COUNTED + TIMED + RESULTS:
            self.tracer.install(span, module, name, hooks.get(span),
                                keep_durations=span == "timeshare.allocate_ts")

    def remove(self):
        self.tracer.restore()

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Metric name -> value; a metric whose span or hook is gone is absent."""
        stats = self.tracer.stats
        broken = self.tracer.broken
        out = {}
        for span, _, _ in COUNTED:
            if span in stats:
                out[f"{span}.calls"] = stats[span].calls
                out[f"{span}.self_s"] = stats[span].self_s
        for span, _, _ in TIMED:
            if span in stats:
                out[f"{span}.self_s"] = stats[span].self_s

        allocate = stats.get("timeshare.allocate_ts")
        if allocate is not None:
            durations_us = np.asarray(allocate.durations) * 1e6
            p50, p99 = np.percentile(durations_us, [50, 99]) if durations_us.size else (0.0, 0.0)
            out["timeshare.allocate_ts.p50_us"] = float(p50)
            out["timeshare.allocate_ts.p99_us"] = float(p99)
            if "timeshare.allocate_ts" not in broken:
                out["timeshare.active_users_mean"] = self.active_users / max(allocate.calls, 1)
                out["timeshare.degenerate"] = self.degenerate

        if "fairness.adapt_weights" in stats and "fairness.adapt_weights" not in broken:
            out["fairness.iterations"] = self.fairness_iterations

        solves = [s for s in ("powercontrol.solve_uplink", "powercontrol.solve_downlink") if s in stats]
        if solves and not broken.intersection(solves):
            out["powercontrol.gs_iterations"] = self.gs_iterations
            out["powercontrol.budget_residual_max"] = self.budget_residual_max
        if "powercontrol.apply_policy" in stats and "powercontrol.apply_policy" not in broken:
            out["powercontrol.apply_rounds"] = max(self.apply_rounds, default=0)
            out["powercontrol.apply_at_cap"] = self.apply_at_cap

        if "simulate.run_experiment" in stats and "simulate.run_experiment" not in broken:
            out["simulate.frames"] = self.frames
        return out
