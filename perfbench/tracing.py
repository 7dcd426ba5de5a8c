"""Span tracing of the gmclone layers, installed from outside the package.

``install`` wraps every public function of each gmclone module and rebinds
every reference to it: the module attribute, each ``from ... import``
binding in another module (``cli.build_gm``, ``pipeline.build_gm_basis``,
...) and each module-level dispatch table (``cli._HANDLERS``).  A wrapper
records one span ``[name, layer, start, end, parent]`` per call in memory.
A layer's self time is the duration of its spans minus the time covered by
their direct child spans, so the self times of all layers add up to the
time spent inside ``cli.main``.

Counts marked "computed" are derived from call arguments and return
values (array shapes, cut ranks, file sizes), not measured by hardware.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = {
    "gmclone.cli": "cli",
    "gmclone.builder": "builder",
    "gmclone.qubit": "builder",
    "gmclone.pipeline": "pipeline",
    "gmclone.mps": "mps",
    "gmclone.analysis": "analysis",
    "gmclone.kernels": "kernels",
    "gmclone._format": "format",
}

# Called once per record or per number; a wrapper would cost more than the
# call.  Their time stays in the self time of the caller's span.
UNTRACED = {
    "gmclone._format.float17",
    "gmclone.pipeline.parity_classify",
    "gmclone.qubit.bit_index",
    "gmclone.qubit.index_bits",
}

COMPLEX_BYTES = 16


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_amplitudes(counts, args, kwargs, result):
    counts["amplitudes_built"] += result.amplitudes.size


def _count_length(key):
    def hook(counts, args, kwargs, result):
        counts[key] += len(result)

    return hook


def _count_file_size(key):
    def hook(counts, args, kwargs, result):
        counts[key] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    return hook


def svd_flops(rows: int, cols: int) -> int:
    """Real flops of a thin complex SVD with both factors (computed).

    Golub & Van Loan's R-SVD count 6 l k^2 + 20 k^3 for an l x k real
    matrix (l >= k), times 4 for complex arithmetic.
    """
    k, l = min(rows, cols), max(rows, cols)
    return 4 * (6 * l * k * k + 20 * k**3)


def _count_compile(counts, args, kwargs, result):
    # mps_from_state reshapes the remainder to (2 * D_k, rest) at each cut.
    mps, spectrum = result
    rows, cols = 1, 2**mps.num_sites
    for cut in spectrum.cuts:
        rows, cols = 2 * rows, cols // 2
        counts["svd_flops"] += svd_flops(rows, cols)
        counts["singular_values"] += len(cut.singular_values)
        counts["singular_values_kept"] += cut.retained
        rows = cut.retained


def _count_contract(counts, args, kwargs, result):
    # One read of each operand and one write of each result, per site step
    # of the prefix-table sweep, then the product with the right boundary.
    sites = _arg(args, kwargs, 0, "sites")
    rows, moved = 1, 0
    for site in sites:
        _, d_in, d_out = site.shape
        moved += rows * d_in + 2 * d_in * d_out + 2 * rows * d_out
        rows *= 2
    moved += rows * sites[-1].shape[2] + sites[-1].shape[2] + rows
    counts["contract_bytes"] += COMPLEX_BYTES * moved


def _count_perms(counts, args, kwargs, result):
    counts["permutation_average_perms"] += _arg(args, kwargs, 1, "perms").shape[0]


HOOKS = {
    "gmclone.builder.build_gm": _count_amplitudes,
    "gmclone.pipeline.gen_full_bitstrings": _count_length("strings_enumerated"),
    "gmclone.pipeline.gen_gm_bitstrings": _count_length("support_strings"),
    "gmclone.pipeline.write_bitstring_stage": _count_file_size("bytes_written"),
    "gmclone.pipeline.write_gm_matrix": _count_file_size("bytes_written"),
    "gmclone.pipeline.read_bitstring_stage": _count_file_size("bytes_read"),
    "gmclone.pipeline.read_gm_matrix": _count_file_size("bytes_read"),
    "gmclone.mps.mps_from_state": _count_compile,
    "gmclone.mps.save_mps": _count_file_size("export_bytes"),
    "gmclone.kernels.contract_sweep": _count_contract,
    "gmclone.kernels.permutation_average": _count_perms,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name: str, layer: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every imported gmclone module.

    Returns the number of bindings replaced.
    """
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "gmclone"]
    wrappers = {}
    for module in modules:
        layer = LAYERS.get(module.__name__)
        if layer is None:
            continue
        short = module.__name__.rpartition(".")[2]
        for attr, obj in vars(module).items():
            qualname = f"{module.__name__}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and qualname not in UNTRACED
            ):
                wrappers[obj] = tracer.wrap(f"{short}.{attr}", layer, obj, HOOKS.get(qualname))
    replaced = 0
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                replaced += 1
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrappers:
                        obj[key] = wrappers[value]
                        replaced += 1
    return replaced


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced workload run (``wall_s`` traced)."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    perm_kets = 0
    for i, (name, layer, start, end, parent) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - covered[i]
        layer_self[layer] += end - start - covered[i]
        calls[name] += 1
        if name == "builder.symmetrize" and parent >= 0 and spans[parent][0] == "builder.symmetric_ket":
            perm_kets += 1
    c = tracer.counts
    return {
        "cli.self_s": layer_self["cli"],
        "cli.calls": calls["cli.main"],
        "builder.self_s": layer_self["builder"],
        "builder.build_gm_s": total["builder.build_gm"],
        "builder.build_gm_calls": calls["builder.build_gm"],
        "builder.symmetric_ket_s": total["builder.symmetric_ket"],
        "builder.symmetric_ket_perm_calls": perm_kets,
        "builder.amplitudes_built": c["amplitudes_built"],
        "pipeline.self_s": layer_self["pipeline"],
        "pipeline.gen_full_bitstrings_s": total["pipeline.gen_full_bitstrings"],
        "pipeline.gen_gm_bitstrings_s": total["pipeline.gen_gm_bitstrings"],
        "pipeline.assign_coefficients_self_s": own["pipeline.assign_coefficients"],
        "pipeline.write_s": total["pipeline.write_bitstring_stage"]
        + total["pipeline.write_gm_matrix"],
        "pipeline.read_gm_matrix_s": total["pipeline.read_gm_matrix"],
        "pipeline.reconstruct_state_s": total["pipeline.reconstruct_state"],
        "pipeline.strings_enumerated": c["strings_enumerated"],
        "pipeline.support_ratio": c["support_strings"] / c["strings_enumerated"]
        if c["strings_enumerated"]
        else 0.0,
        "pipeline.bytes_written": c["bytes_written"],
        "pipeline.bytes_read": c["bytes_read"],
        "mps.self_s": layer_self["mps"],
        "mps.mps_from_state_s": total["mps.mps_from_state"],
        "mps.svd_flops": c["svd_flops"],
        "mps.rank_kept_ratio": c["singular_values_kept"] / c["singular_values"]
        if c["singular_values"]
        else 0.0,
        "mps.mps_to_state_s": total["mps.mps_to_state"],
        "mps.save_mps_s": total["mps.save_mps"],
        "mps.export_bytes": c["export_bytes"],
        "analysis.self_s": layer_self["analysis"],
        "analysis.fidelity_s": total["analysis.clone_fidelity"]
        + total["analysis.anticlone_fidelity"],
        "analysis.nonlinearity_gap_self_s": own["analysis.nonlinearity_gap"],
        "analysis.scaling_sweep_self_s": own["analysis.scaling_sweep"],
        "analysis.write_scaling_csv_s": total["analysis.write_scaling_csv"],
        "kernels.self_s": layer_self["kernels"],
        "kernels.popcounts_s": total["kernels.popcounts"],
        "kernels.contract_sweep_s": total["kernels.contract_sweep"],
        "kernels.contract_bytes": c["contract_bytes"],
        "kernels.permutation_average_s": total["kernels.permutation_average"],
        "kernels.permutation_average_perms": c["permutation_average_perms"],
        "format.self_s": layer_self["format"],
        "format.dumps_17g_s": total["_format.dumps_17g"],
        "trace.wall_s": wall_s,
        "trace.unaccounted_s": wall_s - sum(layer_self.values()),
        "trace.spans": len(spans),
    }
