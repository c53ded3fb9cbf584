"""Outside-in tracer: spans around the functions each bqbox layer exposes.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces each
function in ``TARGETS`` with a wrapper, in its defining module and in every
``bqbox`` module that imported the name (the package uses ``from .x import
y``); methods (the RHS and forcing quadrature of ``duhamel``, the forcing
values) are replaced on their classes.  ``numpy.fft.fftn``/``ifftn`` are
wrapped too, because ``duhamel`` calls them directly, and ``numpy.sort``
stands in for the inline sort of the ball scan.

Spans are kept in memory (name, start, end, parent, run id) and written
out once, when the run ends; :func:`layer_metrics` turns one run's spans
into the per-layer metrics.  A span's self time is its duration minus the
durations of its child spans.  Counts marked *computed* come from array
sizes, not from hardware counters.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

# (module, attribute, span name).  Several functions may share one span name.
TARGETS = (
    ("numpy.fft", "fftn", "grid.fft"),
    ("numpy.fft", "ifftn", "grid.fft"),
    ("bqbox.grid", "forward_coeffs", "grid.coeffs"),
    ("bqbox.grid", "inverse_values", "grid.coeffs"),
    ("bqbox.grid", "spectral_divergence_residual", "grid.divergence_residual"),
    ("bqbox.operators", "leray_coeffs", "operators.leray"),
    ("bqbox.operators", "leray_project", "operators.leray"),
    ("bqbox.operators", "dealias_coeffs", "operators.dealias"),
    ("bqbox.operators", "div_coeffs", "operators.div"),
    ("bqbox.operators", "tensor_div_coeffs", "operators.div"),
    ("bqbox.operators", "semigroup_factor", "operators.semigroup"),
    ("bqbox.forcing", "TimeFourierField.value", "forcing.value"),
    ("bqbox.forcing", "SampledScalarSeries.value", "forcing.value"),
    ("bqbox.duhamel", "evolve", "duhamel.evolve"),
    ("bqbox.duhamel", "_StateRHS.__call__", "duhamel.rhs"),
    ("bqbox.duhamel", "_CompiledForcing.rows_at", "duhamel.forcing_quad"),
    ("bqbox.periodic", "cesaro_periodic_datum", "periodic.cesaro"),
    ("bqbox.periodic", "resolvent_periodic_datum", "periodic.resolvent"),
    ("bqbox.periodic", "nonlinear_periodic", "periodic.nonlinear"),
    ("bqbox.periodic", "_linear_periodic_solve", "periodic.linear_solve"),
    ("bqbox.periodic", "_frozen_extra", "periodic.frozen_extra"),
    ("bqbox.periodic", "poincare_map", "periodic.poincare"),
    ("bqbox.periodic", "check_periodicity", "periodic.check"),
    ("numpy", "sort", "norms.sort"),
    ("bqbox.norms", "morrey_lorentz_table", "norms.table"),
    ("bqbox.norms", "_gather_ball_values", "norms.gather"),
    ("bqbox.norms", "_lorentz_from_values", "norms.reduce"),
    ("bqbox.norms", "_weak_norm_rows", "norms.reduce"),
    ("bqbox.norms", "_lorentz_q_finite", "norms.reduce"),
    ("bqbox.norms", "morrey_lorentz_norm", "norms.morrey"),
    ("bqbox.norms", "state_norm", "norms.state_norm"),
    ("bqbox.norms", "trajectory_sup_norm", "norms.trajectory_sup"),
    ("bqbox.report", "write_csv", "report.csv"),
    ("bqbox.report", "write_manifest", "report.manifest"),
    ("bqbox.fileio", "read_field", "fileio.read"),
    ("bqbox.fileio", "write_field", "fileio.write"),
    ("bqbox.config", "load_config", "config.load"),
    ("bqbox.config", "build_initial", "config.initial"),
)

# The calls that end set-up: the first solver or norm call of any subcommand.
SOLVER_SPANS = frozenset({
    "duhamel.evolve", "periodic.resolvent", "periodic.cesaro", "periodic.nonlinear",
    "norms.table", "norms.state_norm",
})
# The same entry points under the names ``bqbox.cli`` imported them as.
CLI_SOLVER_NAMES = ("evolve", "resolvent_periodic_datum", "cesaro_periodic_datum",
                    "nonlinear_periodic", "morrey_lorentz_table", "state_norm")


def monotonic():
    """System-wide monotonic clock, comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _bound(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs):
        b = sig.bind(*args, **kwargs)
        b.apply_defaults()
        return b.arguments
    return bind


def _file_bytes(path):
    return {"bytes": os.path.getsize(path)}


def _measures(originals):
    """Per-span counts, taken after the call returns (outside its span)."""
    evolve_args = _bound(originals["bqbox.duhamel.evolve"])
    cesaro_args = _bound(originals["bqbox.periodic.cesaro_periodic_datum"])

    def evolve(args, kwargs, traj):
        a = evolve_args(args, kwargs)
        return {
            "steps": int(round(a["t_end"] / a["cfg"].dt)),
            "nonlinear": a["mode"] in ("full", "navier-stokes"),
            "states": len(traj.states),
            "state_bytes": sum(s.u.values.nbytes + s.theta.values.nbytes for s in traj.states),
        }

    return {
        "numpy.fft.fftn": lambda args, kwargs, out: {"points": int(np.size(args[0]))},
        "numpy.fft.ifftn": lambda args, kwargs, out: {"points": int(np.size(args[0]))},
        "bqbox.duhamel.evolve": evolve,
        "bqbox.periodic.cesaro_periodic_datum": lambda args, kwargs, sol: {
            "periods_run": int(cesaro_args(args, kwargs)["n_max"]),
            "periods_needed": int(sol.meta["iterations"]),
        },
        "bqbox.periodic.nonlinear_periodic": lambda args, kwargs, sol: {
            "outer_iterations": int(sol.meta["outer_iterations"]),
        },
        # the (C, m, n) int64 index tensor behind the (C, m) gathered values
        "bqbox.norms._gather_ball_values": lambda args, kwargs, out: {
            "index_bytes": int(out.size) * args[0].n * 8,
        },
        "bqbox.report.write_csv": lambda args, kwargs, path: _file_bytes(path),
        "bqbox.fileio.read_field": lambda args, kwargs, out: _file_bytes(args[0]),
        "bqbox.fileio.write_field": lambda args, kwargs, out: _file_bytes(args[0]),
    }


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.attrs = {}
        self._stack = []

    def wrap(self, name, fn, measure=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        attrs = self.attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(monotonic())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = monotonic()
                stack.pop()
            if measure is not None:
                attrs[idx] = measure(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Wrap every target wherever bqbox can reach it by name."""
        originals = {}
        owners = []
        for module_name, attr, _ in TARGETS:
            key = f"{module_name}.{attr}"
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            originals[key] = getattr(owner, attr)
            owners.append((owner, attr, key))
        measures = _measures(originals)
        bq_modules = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "bqbox" or n.startswith("bqbox."))]
        for (owner, attr, key), (_, _, span) in zip(owners, TARGETS):
            orig = originals[key]
            wrapped = self.wrap(span, orig, measures.get(key))
            setattr(owner, attr, wrapped)
            if inspect.isclass(owner):
                continue
            for mod in bq_modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapped)
        cli = sys.modules["bqbox.cli"]
        # main() dispatches through this table, not through module names
        for sub, fn in list(cli._COMMANDS.items()):
            cli._COMMANDS[sub] = self.wrap("cli.command", fn)

    def dump(self):
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {
            "run_id": self.run_id,
            "names": table,
            "spans": [[index[n], s, e, p] for n, s, e, p in
                      zip(self.names, self.starts, self.ends, self.parents)],
            "attrs": {str(k): v for k, v in self.attrs.items()},
        }


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------


def setup_end(trace):
    """Start of the first solver or norm span, or None."""
    names = trace["names"]
    starts = [s for (ni, s, _e, _p) in trace["spans"] if names[ni] in SOLVER_SPANS]
    return min(starts) if starts else None


def share_under(trace, name, ancestor):
    """Self time of ``name`` spans inside ``ancestor`` spans over their total time."""
    names = trace["names"]
    spans = trace["spans"]
    n = len(spans)
    child = [0.0] * n
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    inside = [False] * n  # parents precede children, so one forward pass suffices
    own, total = 0.0, 0.0
    for i, (ni, start, end, parent) in enumerate(spans):
        under = parent >= 0 and (inside[parent] or names[spans[parent][0]] == ancestor)
        inside[i] = under
        if names[ni] == ancestor and not under:
            total += end - start
        if under and names[ni] == name:
            own += end - start - child[i]
    return own / total if total else 0.0


def layer_metrics(trace, import_s):
    """Per-layer counts and self times of one traced run."""
    names = trace["names"]
    spans = trace["spans"]
    attrs = {int(k): v for k, v in trace["attrs"].items()}
    n = len(spans)
    name_of = [names[s[0]] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    calls, self_s = {}, {}
    for i in range(n):
        nm = name_of[i]
        calls[nm] = calls.get(nm, 0) + 1
        self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]

    def total(name, key):
        return sum(a.get(key, 0) for i, a in attrs.items() if name_of[i] == name)

    def parent_name(i):
        p = spans[i][3]
        return name_of[p] if p >= 0 else None

    evolves = [attrs[i] for i in range(n) if name_of[i] == "duhamel.evolve" and i in attrs]
    steps = sum(a["steps"] for a in evolves)
    nl_steps = sum(a["steps"] for a in evolves if a["nonlinear"])
    rhs = calls.get("duhamel.rhs", 0)
    quad = calls.get("duhamel.forcing_quad", 0)
    run = total("periodic.cesaro", "periods_run")
    needed = total("periodic.cesaro", "periods_needed")
    outer = total("periodic.nonlinear", "outer_iterations")
    solve_evolves = sum(1 for i in range(n) if name_of[i] == "duhamel.evolve"
                        and parent_name(i) == "periodic.linear_solve")
    # the certifying run: the last evolve called directly by cesaro or the outer
    # loop, plus check_periodicity; it has no function of its own to wrap
    certify = 0.0
    for i in range(n):
        if name_of[i] in ("periodic.cesaro", "periodic.nonlinear"):
            kids = [j for j in range(i + 1, n) if spans[j][3] == i]
            last_evolve = [j for j in kids if name_of[j] == "duhamel.evolve"][-1:]
            certify += sum(dur[j] for j in kids
                           if j in last_evolve or name_of[j] == "periodic.check")

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(num, base):
        return num / base if base else 0.0

    return {
        "grid.fft.calls": calls.get("grid.fft", 0),
        "grid.fft.points": total("grid.fft", "points"),
        "grid.fft.self_s": s("grid.fft"),
        "grid.coeffs.self_s": s("grid.coeffs"),
        "operators.leray.calls": calls.get("operators.leray", 0),
        "operators.leray.self_s": s("operators.leray"),
        "operators.dealias.self_s": s("operators.dealias"),
        "operators.div.self_s": s("operators.div"),
        "operators.semigroup.calls": calls.get("operators.semigroup", 0),
        "duhamel.evolve.calls": calls.get("duhamel.evolve", 0),
        "duhamel.evolve.self_s": s("duhamel.evolve"),
        "duhamel.steps": steps,
        "duhamel.rhs.calls": rhs,
        "duhamel.rhs.self_s": s("duhamel.rhs"),
        # base: steps of full / navier-stokes evolves (linearized ones make no RHS call)
        "duhamel.rhs.per_step": ratio(rhs, nl_steps),
        # each nonlinear step makes two RHS calls (start point, predictor) before Picard
        "duhamel.picard.iters_per_step": ratio(rhs - 2 * nl_steps, nl_steps),
        "duhamel.forcing_quad.calls": quad,
        "duhamel.forcing_quad.self_s": s("duhamel.forcing_quad"),
        "duhamel.forcing_quad.per_step": ratio(quad, steps),
        "duhamel.states_stored": sum(a["states"] for a in evolves),
        "duhamel.states_stored_bytes": sum(a["state_bytes"] for a in evolves),
        "forcing.value.calls": calls.get("forcing.value", 0),
        "forcing.value.self_s": s("forcing.value"),
        "periodic.cesaro.periods_run": run,
        "periodic.cesaro.periods_needed": needed,
        "periodic.cesaro.useful_ratio": ratio(needed, run),
        "periodic.resolvent.self_s": s("periodic.resolvent"),
        "periodic.outer.iterations": outer,
        "periodic.evolves_per_outer": ratio(solve_evolves, outer),
        "periodic.frozen_extra.self_s": s("periodic.frozen_extra"),
        "periodic.linear_solve.self_s": s("periodic.linear_solve"),
        "periodic.certify.self_s": certify,
        "norms.table.calls": calls.get("norms.table", 0),
        "norms.gather.calls": calls.get("norms.gather", 0),
        "norms.gather.self_s": s("norms.gather"),
        "norms.gather.index_bytes": total("norms.gather", "index_bytes"),
        "norms.sort.self_s": s("norms.sort"),
        "norms.reduce.self_s": s("norms.reduce"),
        "norms.state_norm.calls": calls.get("norms.state_norm", 0),
        "norms.state_norm.self_s": s("norms.state_norm"),
        "report.csv.bytes": total("report.csv", "bytes"),
        "report.csv.self_s": s("report.csv"),
        "fileio.read.bytes": total("fileio.read", "bytes"),
        "fileio.write.bytes": total("fileio.write", "bytes"),
        "fileio.self_s": s("fileio.read") + s("fileio.write"),
        "config.import_s": import_s,
        "config.load.self_s": s("config.load"),
        "config.initial.self_s": s("config.initial"),
        "cli.self_s": s("cli.main") + s("cli.command"),
    }


def write_record(path, record):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
