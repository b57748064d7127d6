"""Layer timing for the traced benchmark run, recorded from outside the package.

Calls the benchmark makes itself are timed at the call site with
``Tracer.call``.  Calls the program makes internally are timed by replacing
the public name in the module that looks it up (``xzmeas.cli`` for the
``qmeas`` modes, ``xzmeas.sde`` for the noise streams of ``run_ensemble``)
for the duration of ``traced_program``.  The package source is not edited.
"""
from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from xzmeas import analytic, cli, fpe, sde


class NullTracer:
    """Untraced run: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, name, amount):
        pass


class Tracer:
    """Per-name call counts, busy time, self time and work done."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.work = defaultdict(float)
        self._stack = []  # [name, seconds spent in child spans]

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def call(self, name, fn, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
            self.calls[name] += 1
            self.busy[name] += dt
            self.self_time[name] += dt - frame[1]

    def add(self, name, amount):
        self.work[name] += amount


def _correlator_branch(kind, t1, t2, bc, *rest, **kw):
    resummed = bc.t_total / bc.tau_m > analytic.RESUM_THRESHOLD
    return "analytic.correlator_cond." + ("resummed" if resummed else "direct")


def _kernel_branch(theta, t, bc, kp, **kw):
    wrapped = kp.diffusion * min(t, bc.t_total - t) < fpe.CROSSOVER
    return "fpe.two_sided_density." + ("wrapped" if wrapped else "fourier")


@contextmanager
def traced_program(tracer: Tracer):
    """Time the program's internal calls to public names while active."""
    saved = []

    def wrap(module, attr, label, work=None):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            name = label(*args, **kwargs) if callable(label) else label
            out = tracer.call(name, fn, *args, **kwargs)
            if work is not None:
                for suffix, amount in work(out).items():
                    tracer.add(name + suffix, amount)
            return out

        saved.append((module, attr, fn))
        setattr(module, attr, traced)

    wrap(sde, "noise_stream", lambda *a, **k: "sde.noise_stream"
         if tracer.parent() == "sde.run_ensemble" else "sde.noise_stream.other")
    wrap(cli, "polar_ensemble", "sde.polar_ensemble", work=lambda th: {"": th.size})
    wrap(cli, "polar_states", "sde.polar_states")
    wrap(cli, "select", "estimator.select",
         work=lambda sub: {"": sub.accepted_count, ".total": sub.total_count})
    wrap(cli, "correlate", "estimator.correlate")
    wrap(cli, "correlator_cond", _correlator_branch)
    wrap(cli, "subens_avg_state", "analytic.subens_avg_state")
    wrap(cli, "two_sided_density", _kernel_branch)
    wrap(cli, "cov_tree", "perturb.cov_tree")
    wrap(cli, "var_tree", "perturb.var_tree")
    wrap(cli, "read_readout_records", "bayes.read_readout_records")
    wrap(cli, "reconstruct", "bayes.reconstruct", work=lambda traj: {"": len(traj.times) - 1})
    try:
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


CLI_MODES = ("analytic", "fpe", "perturb", "compare", "reconstruct")


def layer_metrics(tr: Tracer, iterations: int) -> dict:
    """Per-layer metrics per traced iteration, as {name: (value, unit)}."""
    n = iterations

    def busy(name):
        return tr.busy[name] / n

    def rate(name):
        return tr.work[name] / tr.busy[name] if tr.busy[name] else 0.0

    def us_per_call(name):
        return 1e6 * tr.busy[name] / tr.calls[name] if tr.calls[name] else 0.0

    cli_spans = [f"cli.run.{m}" for m in CLI_MODES]
    m = {
        "sde.run_ensemble.busy_s": (busy("sde.run_ensemble"), "s"),
        "sde.run_ensemble.traj_steps_per_s": (rate("sde.run_ensemble"), "1/s"),
        "sde.run_ensemble.out_mb": (tr.work["sde.run_ensemble.out_bytes"] / n / 2**20, "MB"),
        "sde.noise_stream.busy_s": (busy("sde.noise_stream"), "s"),
        "sde.noise_stream.calls": (tr.calls["sde.noise_stream"] / n, "count"),
        "sde.simulate_trajectory.busy_s": (busy("sde.simulate_trajectory"), "s"),
        "sde.simulate_trajectory.steps_per_s": (rate("sde.simulate_trajectory"), "1/s"),
        "sde.polar_ensemble.busy_s": (busy("sde.polar_ensemble"), "s"),
        "sde.polar_ensemble.samples_per_s": (rate("sde.polar_ensemble"), "1/s"),
        "sde.polar_states.busy_s": (busy("sde.polar_states"), "s"),
        "bayes.reconstruct_batch.busy_s": (busy("bayes.reconstruct_batch"), "s"),
        "bayes.reconstruct_batch.traj_steps_per_s": (rate("bayes.reconstruct_batch"), "1/s"),
        "bayes.reconstruct.busy_s": (busy("bayes.reconstruct"), "s"),
        "bayes.reconstruct.steps_per_s": (rate("bayes.reconstruct"), "1/s"),
        "bayes.read_readout_records.busy_s": (busy("bayes.read_readout_records"), "s"),
        "bayes.write_readout_records.busy_s": (busy("bayes.write_readout_records"), "s"),
        "estimator.select.busy_s": (busy("estimator.select"), "s"),
        "estimator.select.accept_ratio": (
            tr.work["estimator.select"] / tr.work["estimator.select.total"]
            if tr.work["estimator.select.total"] else 0.0, "ratio"),
        "estimator.correlate.busy_s": (busy("estimator.correlate"), "s"),
        "estimator.correlate.calls": (tr.calls["estimator.correlate"] / n, "count"),
        "estimator.covariance.busy_s": (busy("estimator.covariance"), "s"),
        "estimator.covariance.calls": (tr.calls["estimator.covariance"] / n, "count"),
        "perturb.cov_tree.busy_s": (busy("perturb.cov_tree"), "s"),
        "perturb.var_tree.busy_s": (busy("perturb.var_tree"), "s"),
        "analytic.subens_avg_state.us_per_call": (us_per_call("analytic.subens_avg_state"), "us"),
    }
    for branch in ("direct", "resummed"):
        name = f"analytic.correlator_cond.{branch}"
        m[f"analytic.correlator_cond.us_per_call.{branch}"] = (us_per_call(name), "us")
        m[f"analytic.correlator_cond.calls.{branch}"] = (tr.calls[name] / n, "count")
    for branch in ("wrapped", "fourier"):
        name = f"fpe.two_sided_density.{branch}"
        m[f"fpe.two_sided_density.us_per_call.{branch}"] = (us_per_call(name), "us")
        m[f"fpe.two_sided_density.calls.{branch}"] = (tr.calls[name] / n, "count")
    for name in cli_spans:
        m[f"{name}.busy_s"] = (busy(name), "s")
    m["cli.self_s"] = (sum(tr.self_time[name] for name in cli_spans) / n, "s")
    m["cli.bytes_written"] = (tr.work["cli.bytes_written"] / n, "bytes")
    return m
