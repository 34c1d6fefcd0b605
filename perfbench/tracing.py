"""Per-layer tracing from outside the program.

Each public function is wrapped under the module attribute its caller
looks it up by, so a call is attributed to the site that made it (the
simulate_path of verify's blow-up replays apart from the one behind
Monte Carlo face measures).  A wrapper records the call's duration and
charges it to the enclosing wrapped call as child time; a layer's self
time is its duration minus that child time.  Spans stay in memory and
are written out when the run ends.  The per-step model evaluations
(drift_at, noise_amp_at) are counted and timed but keep no span each.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

import stokolmo
import stokolmo.cli
import stokolmo.model

_LEAVES = {"model.drift", "model.noise"}


def _mod(name: str):
    return sys.modules[name]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # [site, child_time, span_id] per open call
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.lp_us: list[float] = []
        self.lp_rows_max = 0
        self.spans: list[tuple] = []         # (id, parent, site, start, end)
        self._undo: list[tuple] = []
        self._t0 = time.perf_counter()

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr: str, site: str, after=None):
        orig = getattr(owner, attr)
        stack, spans = self.stack, self.spans
        keep_span = site not in _LEAVES

        def traced(*args, **kwargs):
            span_id = len(spans) + 1 if keep_span else 0
            frame = [site, 0.0, span_id]
            if keep_span:
                spans.append(None)          # reserve the id; filled in on return
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                self.calls[site] += 1
                self.total[site] += dur
                self.self_time[site] += dur - frame[1]
                if keep_span:
                    spans[span_id - 1] = (span_id, parent[2] if parent else 0, site,
                                          t0 - self._t0, t1 - self._t0)
            if after is not None:
                after(args, result, dur)
            return result

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    @contextlib.contextmanager
    def op_span(self, name: str):
        """One benchmark operation, the root of its spans."""
        span_id = len(self.spans) + 1
        self.spans.append(None)
        self.stack.append(["op", 0.0, span_id])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[span_id - 1] = (span_id, 0, "op:" + name,
                                       t0 - self._t0, t1 - self._t0)

    def install(self):
        cli, cls = stokolmo.cli, _mod("stokolmo.classify")
        measures, verify = _mod("stokolmo.measures"), _mod("stokolmo.verify")
        self.wrap(cli, "main", "cli")
        self.wrap(cli, "load_model", "model.load")
        self.wrap(stokolmo, "load_model", "model.load")
        self.wrap(measures, "restrict_to_face", "model.restrict")
        self.wrap(stokolmo.model.KolmogorovModel, "drift_at", "model.drift")
        self.wrap(stokolmo.model.KolmogorovModel, "noise_amp_at", "model.noise")
        self.wrap(stokolmo.model, "compile_expression", "expressions.compile")
        self.wrap(cls, "run_assumption_checks", "assumptions")
        self.wrap(cls, "discover_boundary", "measures.discover", self._after_discover)
        self.wrap(measures, "stationary_density_1d", "measures.density")
        self.wrap(measures, "simulate_path", "engine.path.face", self._after_path)
        self.wrap(verify, "simulate_path", "engine.path.replay", self._after_path)
        self.wrap(verify, "simulate_ensemble", "engine.ensemble", self._after_ensemble)
        self.wrap(measures, "solve_maximin", "simplex", self._after_lp)
        self.wrap(cls, "solve_maximin", "simplex", self._after_lp)
        self.wrap(cli, "classify", "classify")
        self.wrap(stokolmo, "classify", "classify")
        self.wrap(cli, "verify_verdict", "verify")
        self.wrap(cli, "canonical_json", "report", self._after_canonical)
        self.wrap(cli, "write_report", "report", self._after_write)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def reset(self):
        for table in (self.calls, self.total, self.self_time, self.counts):
            table.clear()
        self.lp_us.clear()
        self.lp_rows_max = 0
        self.spans.clear()

    # -- counts taken from results -------------------------------------------

    def _after_discover(self, args, disc, dur):
        c = self.counts
        c["faces"] += 2 ** args[0].n - 2
        for mu in disc.measures:
            c["measures." + mu.kind] += 1
        c["unresolved"] += len(disc.unresolved)

    def _after_path(self, args, traj, dur):
        self.counts["path_steps"] += traj.times.shape[0] - 1
        self.counts["halted"] += traj.blowup_time is not None

    def _after_ensemble(self, args, stats, dur):
        cfg = args[2]
        self.counts["ensemble_steps"] += int(np.rint(stats.t_end / cfg.dt).sum())
        self.counts["halted"] += int(np.isfinite(stats.blowup_time).sum())
        self.counts["aborted"] += len(stats.path_errors)

    def _after_lp(self, args, result, dur):
        self.lp_us.append(dur * 1e6)
        self.lp_rows_max = max(self.lp_rows_max, int(np.shape(args[0])[0]))

    def _after_canonical(self, args, text, dur):
        self.counts["report_bytes"] += len(text.encode("utf-8"))

    def _after_write(self, args, result, dur):
        self.counts["report_bytes"] += os.path.getsize(args[1])

    # -- metrics ------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass over the workload's operations."""
        calls, total, own, c = self.calls, self.total, self.self_time, self.counts
        per = 1.0 / passes
        path_calls = calls["engine.path.face"] + calls["engine.path.replay"]
        path_s = total["engine.path.face"] + total["engine.path.replay"]

        def rate(steps, secs):
            return steps / secs / 1e6 if secs > 0 else 0.0

        lp = np.array(self.lp_us) if self.lp_us else np.zeros(1)
        m = {
            "cli.calls": (calls["cli"] * per, "count"),
            "cli.self_s": (own["cli"] * per, "s"),
            "model.load_s": (total["model.load"] * per, "s"),
            "model.restrict_calls": (calls["model.restrict"] * per, "count"),
            "model.drift_calls": (calls["model.drift"] * per, "count"),
            "model.drift_s": (total["model.drift"] * per, "s"),
            "model.noise_calls": (calls["model.noise"] * per, "count"),
            "model.noise_s": (total["model.noise"] * per, "s"),
            "expressions.compile_calls": (calls["expressions.compile"] * per, "count"),
            "expressions.compile_s": (total["expressions.compile"] * per, "s"),
            "assumptions.calls": (calls["assumptions"] * per, "count"),
            "assumptions.s": (total["assumptions"] * per, "s"),
            "measures.discover_calls": (calls["measures.discover"] * per, "count"),
            "measures.discover_self_s": (own["measures.discover"] * per, "s"),
            "measures.faces": (c["faces"] * per, "count"),
            "measures.lv_measures": (c["measures.lv-moments"] * per, "count"),
            "measures.density_measures": (c["measures.density-1d"] * per, "count"),
            "measures.empirical_measures": (c["measures.empirical"] * per, "count"),
            "measures.unresolved_faces": (c["unresolved"] * per, "count"),
            "measures.density_calls": (calls["measures.density"] * per, "count"),
            "measures.density_s": (total["measures.density"] * per, "s"),
            "measures.face_sim_s": (total["engine.path.face"] * per, "s"),
            "simplex.lp_calls": (calls["simplex"] * per, "count"),
            "simplex.lp_s": (total["simplex"] * per, "s"),
            "simplex.lp_us_p50": (float(np.percentile(lp, 50)), "us"),
            "simplex.lp_us_p99": (float(np.percentile(lp, 99)), "us"),
            "simplex.lp_rows_max": (self.lp_rows_max, "rows"),
            "classify.calls": (calls["classify"] * per, "count"),
            "classify.self_s": (own["classify"] * per, "s"),
            "engine.ensemble_calls": (calls["engine.ensemble"] * per, "count"),
            "engine.ensemble_s": (total["engine.ensemble"] * per, "s"),
            "engine.ensemble_path_steps": (c["ensemble_steps"] * per, "count"),
            "engine.ensemble_msteps_per_s": (rate(c["ensemble_steps"], total["engine.ensemble"]),
                                             "Msteps/s"),
            "engine.path_calls": (path_calls * per, "count"),
            "engine.path_s": (path_s * per, "s"),
            "engine.path_path_steps": (c["path_steps"] * per, "count"),
            "engine.path_msteps_per_s": (rate(c["path_steps"], path_s), "Msteps/s"),
            "engine.halted_paths": (c["halted"] * per, "count"),
            "engine.aborted_paths": (c["aborted"] * per, "count"),
            "verify.calls": (calls["verify"] * per, "count"),
            "verify.self_s": (own["verify"] * per, "s"),
            "verify.replay_calls": (calls["engine.path.replay"] * per, "count"),
            "report.calls": (calls["report"] * per, "count"),
            "report.s": (total["report"] * per, "s"),
            "report.bytes": (c["report_bytes"] * per, "B"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    sid, parent, site, start, end = span
                    fh.write(json.dumps({"id": sid, "parent": parent, "site": site,
                                         "start_s": round(start, 7),
                                         "end_s": round(end, 7)}) + "\n")
