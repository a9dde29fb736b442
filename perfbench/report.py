"""Per-layer metrics and the per-scope table of the traced run.

Per-step times divide a scope's time, summed over the traced steps of one
variant, by the number of those steps. Achieved rates set the forward
pass's scope times against `count_flops`' analytic terms (per sample, times
the batch). Flop and byte counts of single calls (FFT lines, einsum
contractions, gelu elements) are computed from the arguments' shapes, not
measured, and are labelled so.
"""

from __future__ import annotations

import statistics

import workloads as W

_MS = 1e3
TABLE_ROWS = 14                  # busiest scopes listed per variant


def _rate(flops: float, seconds: float) -> float:
    return flops / seconds / 1e9 if seconds > 0 and flops > 0 else 0.0


def per_variant(tracer, state, v: str, traced, untraced) -> dict:
    """Per-layer metrics of one variant from its traced steps."""
    n = len(traced.step_s)
    steps = W.STEP_ROOTS
    sel = tracer.select
    fft = sel(v, steps, names=W.FFT_SCOPES)
    fwd_fft = sel(v, W.FORWARD_ROOT, names=W.FFT_SCOPES)
    fwd_mix = sel(v, W.FORWARD_ROOT, names=("tensor.einsum2[mixing]",))
    fwd_pw = sel(v, W.FORWARD_ROOT, names=("tensor.einsum2[pointwise]",))
    fwd_density = sel(v, W.FORWARD_ROOT, names=W.DENSITY_SCOPES)
    layer = sel(v, steps, names=("operator.AbleLayer.forward",))
    evaluate = sel(v, ("training.evaluate",), names=("training.evaluate",))
    top = sel(v, steps, names=steps, top_level=True)
    terms = state.flop_terms[v]
    forwards = state.workload.batch * n          # samples through the traced forward passes
    untraced_total = sum(untraced.step_s) + untraced.eval_s
    values = {
        "fft.calls": fft[0] / n,
        "fft.ms": fft[2] * _MS / n,
        "fft.gflops": _rate(fft[3], fft[2]),
        "tensor.nodes_per_step": tracer.nodes[v] / n,
        "tensor.backward_ms": sel(v, steps, names=("tensor.tape_backward",))[2] * _MS / n,
        "tensor.gelu_ms": sel(v, steps, names=("tensor.gelu",))[1] * _MS / n,
        "tensor.einsum_ms": sel(v, steps, prefix="tensor.einsum2")[1] * _MS / n,
        "frame.density_ms": sel(v, steps, names=W.DENSITY_SCOPES)[1] * _MS / n,
        "operator.layer_ms": layer[1] * _MS / n,
        "operator.layer_self_ms": layer[2] * _MS / n,
        "operator.network_fwd_ms": sel(v, steps, names=W.FORWARD_ROOT)[1] * _MS / n,
        "operator.flops": terms["total"],
        "operator.gflops.fft": _rate(terms["fft"] * forwards, fwd_fft[2]),
        "operator.gflops.mixing": _rate(terms["mixing"] * forwards, fwd_mix[2]),
        "operator.gflops.pointwise": _rate(terms["pointwise"] * forwards, fwd_pw[2]),
        "operator.gflops.density": _rate(terms["density"] * forwards, fwd_density[1]),
        "training.loss_ms": sel(v, steps, names=("training.relative_l2",))[1] * _MS / n,
        "training.optimizer_ms": sel(v, steps, names=("training.Adam.step",))[1] * _MS / n,
        "training.eval_ms": evaluate[1] * _MS / max(evaluate[0], 1),
        "training.eval_share": untraced.eval_s / untraced_total,
        "trace.overhead_ms": (statistics.median(traced.step_s)
                              - statistics.median(untraced.step_s)) * _MS,
        "trace.coverage": top[1] / sum(traced.step_s),
    }
    return {f"{k}.{v}": x for k, x in values.items()}


def generation(tracer, gen, w) -> dict:
    """Per-layer metrics of the generation phase and the checkpoint round trips."""
    sel = tracer.select
    samples = w.gen_calls * w.gen_samples
    burgers = sel("gen", names=("pde.solve_burgers",))
    darcy = sel("gen", names=("pde.solve_darcy",))
    steps = sum(m.get("solver", {}).get("steps", 0) for m in gen.metas)
    ckpt_save = sel("ckpt", names=("dataio.save_checkpoint",))
    ckpt_load = sel("ckpt", names=("dataio.load_checkpoint",))
    write = sel("gen", names=("dataio.dataset_write",))
    read = sel("gen", names=("dataio.dataset_read",))
    return {
        "fft.calls.gen": sel("gen", names=W.FFT_SCOPES)[0],
        "pde.grf_ms": sel("gen", names=("pde.sample_grf",))[1] * _MS / samples,
        "pde.burgers_steps": steps / len(gen.metas) if burgers[0] else 0,
        "pde.burgers_ms_per_step": burgers[1] * _MS / steps if steps else 0.0,
        "pde.darcy_solve_ms": darcy[1] * _MS / darcy[0] if darcy[0] else 0.0,
        "pde.darcy_residual_max": max(m.get("solver", {}).get("max_residual", 0.0)
                                      for m in gen.metas),
        "dataio.bytes": statistics.fmean(gen.file_bytes),
        "dataio.write_ms": write[1] * _MS / write[0],
        "dataio.read_ms": read[1] * _MS / read[0],
        "dataio.checkpoint_save_ms": ckpt_save[1] * _MS / ckpt_save[0],
        "dataio.checkpoint_load_ms": ckpt_load[1] * _MS / ckpt_load[0],
    }


def scope_table(tracer, state, v: str, traced, caches: dict) -> list:
    """Text lines: the busiest scopes of a step by self time, then each
    count_flops term against the forward-pass time of its scope."""
    n = len(traced.step_s)
    step_s = sum(traced.step_s)
    scopes = tracer.scopes(v, W.STEP_ROOTS)
    lines = [f"  scopes of a {v} step ({n} traced steps, {step_s * _MS / n:.2f} ms/step; "
             "flops and bytes computed from shapes):",
             f"    {'scope':<36} {'calls':>6} {'self ms':>8} {'share':>6} "
             f"{'MFLOP':>9} {'GFLOP/s':>8} {'MiB':>8}"]
    ranked = sorted(scopes.items(), key=lambda kv: -kv[1][2])[:TABLE_ROWS]
    for name, (calls, _, self_s, flops, nbytes) in ranked:
        lines.append(f"    {name:<36} {calls / n:6.1f} {self_s * _MS / n:8.3f} "
                     f"{self_s / step_s:6.1%} {flops / n / 1e6:9.2f} "
                     f"{_rate(flops, self_s):8.2f} {nbytes / n / 2**20:8.2f}")

    terms = state.flop_terms[v]
    forwards = state.workload.batch
    fwd = tracer.scopes(v, W.FORWARD_ROOT)
    fwd_s = tracer.select(v, W.FORWARD_ROOT, names=W.FORWARD_ROOT, top_level=True)[1]

    def fwd_time(names, inclusive=False):
        return sum(fwd[nm][1 if inclusive else 2] for nm in names if nm in fwd)

    gelu_flops = fwd.get("tensor.gelu", [0, 0, 0, 0, 0])[3] / n
    term_rows = [("fft", terms["fft"] * forwards, fwd_time(W.FFT_SCOPES)),
              ("mixing", terms["mixing"] * forwards, fwd_time(("tensor.einsum2[mixing]",))),
              ("pointwise", terms["pointwise"] * forwards,
               fwd_time(("tensor.einsum2[pointwise]",))),
              ("density", terms["density"] * forwards, fwd_time(W.DENSITY_SCOPES, True)),
              ("gelu (not a count_flops term)", gelu_flops, fwd_time(("tensor.gelu",)))]
    all_flops = sum(f for _, f, _ in term_rows)
    lines.append(f"  forward pass vs count_flops terms ({fwd_s * _MS / n:.2f} ms/forward):")
    lines.append(f"    {'term':<30} {'MFLOP':>9} {'ms':>8} {'GFLOP/s':>8} "
                 f"{'time share':>10} {'flop share':>10}")
    for term, flops, secs in term_rows:
        secs /= n
        lines.append(f"    {term:<30} {flops / 1e6:9.3f} {secs * _MS:8.3f} "
                     f"{_rate(flops, secs):8.2f} {secs / (fwd_s / n):10.1%} "
                     f"{flops / all_flops if all_flops else 0:10.1%}")

    params = sum(p.data.nbytes for p in state.models[v].net.named_parameters().values())
    tape = tracer.node_bytes[v] / n
    l2, llc = caches.get("L2", 0), caches.get("L3", 0)
    lines.append(f"  working set (computed): tape {tape / 2**20:.2f} MiB/step + parameters "
                 f"{params / 2**20:.3f} MiB; L2 {l2 / 2**20:.0f} MiB per core, "
                 f"LLC {llc / 2**20:.0f} MiB shared")
    return lines
