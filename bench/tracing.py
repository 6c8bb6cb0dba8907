"""In-memory spans around the package's public functions.

Functions are wrapped from outside, under the name their caller looks them up
by: `hybrid.py` imports `sesd_solve` by name, so the span sits on
`hybrid.sesd_solve`, not on `detect.sesd_solve`. Each span records name,
start, end, parent and the counts read from the function's return value.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


@contextmanager
def patched(replacements):
    """Temporarily set `module.attr = value` for (module, attr, value) triples."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in replacements]
    try:
        for module, attr, value in replacements:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    """Span recorder; spans are [name, start, end, parent index, counts]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                span[4] = count(result)
            return result
        return traced

    def replacements(self, modules):
        """Wrappers for every traced function, keyed by the caller's module."""
        baselines, channel, harness, hybrid, wmmse = (
            modules[name] for name in ("baselines", "channel", "harness", "hybrid", "wmmse"))
        table = [
            (hybrid, "sesd_solve", "detect.sesd", lambda r: {"nodes": r.nodes_visited}),
            (hybrid, "ep_solve", "detect.ep",
             lambda r: {"iters": r.iterations, "truncated": int(r.truncated)}),
            (hybrid, "alternate", "hybrid.design", lambda r: {"outer_iters": r[1].n_outer}),
            (hybrid, "optimize_digital", "hybrid.digital",
             lambda r: {"bisection_evals": int(sum(max(int(n) - 1, 0) for n in r[3]))}),
            (hybrid, "optimize_analog", "hybrid.analog", None),
            (hybrid, "optimize_switch", "hybrid.switch", None),
            (hybrid, "optimize_phase_diag", "hybrid.switch", None),
            (channel, "draw_channel", "channel.draw", None),
            (harness, "draw_channel", "channel.draw", None),
            (wmmse, "wmmse_fully_digital", "wmmse.target", None),
            (harness, "wmmse_fully_digital", "wmmse.target", None),
            (wmmse, "sum_rate", "wmmse.rate", None),
            (harness, "sum_rate", "wmmse.rate", None),
            (baselines, "altmin1", "baselines.altmin", None),
            (baselines, "altmin2", "baselines.altmin", None),
            (baselines, "quantize_baseline", "baselines.quantize", None),
            (harness, "run_experiment", "harness", None),
            (harness, "emit_csv", "harness", None),
        ]
        for module, attrs in ((hybrid, ("make_analog_alphabet", "make_digital_alphabet",
                                        "make_switch_alphabet", "choose_delta",
                                        "nearest_labels")),
                              (baselines, ("make_digital_alphabet", "choose_delta",
                                           "nearest_labels")),
                              (harness, ("make_analog_alphabet",))):
            table += [(module, attr, "alphabets", None) for attr in attrs]
        return [(module, attr, self.wrap(span, getattr(module, attr), count))
                for module, attr, span, count in table]

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds and summed counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, counts) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child[i]
            for key, value in (counts or {}).items():
                agg[key] += value
        return out

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "counts": c}
                for n, s, e, p, c in self.spans]


def per_layer_metrics(tracer: Tracer, n_trials: int, trials_per_s: float,
                      ep_analog_gap: float) -> dict:
    """Per-layer metrics per trial of the traced run."""
    t = tracer.totals()

    def get(name, key):
        return t[name][key] if name in t else 0.0

    def per_trial(value):
        return value / n_trials

    sesd_s, nodes = get("detect.sesd", "s"), get("detect.sesd", "nodes")
    ep_s, iters = get("detect.ep", "s"), get("detect.ep", "iters")
    values = {
        "detect.sesd_calls": (per_trial(get("detect.sesd", "calls")), "count/trial"),
        "detect.sesd_s": (per_trial(sesd_s), "s/trial"),
        "detect.sesd_nodes": (per_trial(nodes), "count/trial"),
        "detect.sesd_us_per_node": (1e6 * sesd_s / nodes if nodes else 0.0, "us/node"),
        "detect.ep_calls": (per_trial(get("detect.ep", "calls")), "count/trial"),
        "detect.ep_s": (per_trial(ep_s), "s/trial"),
        "detect.ep_iters": (per_trial(iters), "count/trial"),
        "detect.ep_truncated": (per_trial(get("detect.ep", "truncated")), "count/trial"),
        "detect.ep_us_per_iter": (1e6 * ep_s / iters if iters else 0.0, "us/iter"),
        "detect.ep_analog_gap": (ep_analog_gap, "ratio"),
        "hybrid.design_s": (per_trial(get("hybrid.design", "s")), "s/trial"),
        "hybrid.self_s": (per_trial(get("hybrid.design", "self_s")), "s/trial"),
        "hybrid.digital_s": (per_trial(get("hybrid.digital", "s")), "s/trial"),
        "hybrid.analog_s": (per_trial(get("hybrid.analog", "s")), "s/trial"),
        "hybrid.switch_s": (per_trial(get("hybrid.switch", "s")), "s/trial"),
        "hybrid.outer_iters": (per_trial(get("hybrid.design", "outer_iters")), "count/trial"),
        "hybrid.bisection_evals": (per_trial(get("hybrid.digital", "bisection_evals")),
                                   "count/trial"),
        "wmmse.target_s": (per_trial(get("wmmse.target", "s")), "s/trial"),
        "wmmse.rate_s": (per_trial(get("wmmse.rate", "s")), "s/trial"),
        "channel.draw_s": (per_trial(get("channel.draw", "s")), "s/trial"),
        "alphabets.s": (per_trial(get("alphabets", "s")), "s/trial"),
        "baselines.altmin_s": (per_trial(get("baselines.altmin", "s")), "s/trial"),
        "baselines.quantize_s": (per_trial(get("baselines.quantize", "s")), "s/trial"),
        "harness.self_s": (per_trial(get("harness", "self_s")), "s/trial"),
        "trace.trials_per_s": (trials_per_s, "1/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
