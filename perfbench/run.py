"""meshtomo benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload learned --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
wraps the package's layers and prints the per-layer metrics instead. A table
of every figure goes to standard output first; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


def _load_spec():
    """Workload names and metric units as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (tuple(w["name"] for w in spec["workloads"]),
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


WORKLOADS, END_TO_END, PER_LAYER = _load_spec()
# A per-layer metric "<span>.s" is the median wall time per call of that span;
# "layer.<module>.self_share" is a layer's self time as a share of the run.
SPANS = tuple(name[:-2] for name in PER_LAYER if name.endswith(".s"))
LAYERS = tuple(name.split(".")[1] for name in PER_LAYER
               if name.startswith("layer.") and name.endswith(".self_share"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be in [0, 2**64)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _single_blas_thread():
    """Run BLAS and OpenMP on one thread; return the CPUs this process may use.

    The package's dense work is small (300x50 SVDs, 50x1024 products). On a
    2-CPU machine a second OpenBLAS thread made set-up slower and spun the
    other CPU for nothing, and stolen time on either CPU stalled it.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _import_package():
    """Import meshtomo from this checkout's ``src``, and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "meshtomo")):
        raise SystemExit(f"no meshtomo sources under {SRC}: run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import meshtomo
    if os.path.dirname(os.path.dirname(os.path.abspath(meshtomo.__file__))) != SRC:
        raise SystemExit(f"meshtomo was imported from {meshtomo.__file__}, not {SRC}")
    return meshtomo


def install_tracer():
    """Wrap the package's public layer functions in a new tracer."""
    from meshtomo import data, estimate, kernel, mesh, solve, tomo
    from spans import Tracer

    tracer = Tracer()

    def nnls_call(args, kwargs):
        wants_info = kwargs.get("return_info", False)
        kwargs = dict(kwargs, return_info=True)
        return args, kwargs, (lambda res: res if wants_info else res[0])

    def solve_counts(args, kwargs, res):
        info = res[1] if isinstance(res, tuple) else res
        return {"iterations": info.iterations, "converged": int(info.converged)}

    def sweep_name(args, kwargs):
        k_values = kwargs.get("k_values", args[1] if len(args) > 1 else ())
        return "kernel.mc_kernel_sweep.k" + "-".join(str(int(k)) for k in k_values)

    for module, names in ((tomo, ("build_ray_matrix", "forward")),
                          (data, ("gen_shapes",)),
                          (mesh, ("mesh_with_k_triangles", "rasterize")),
                          (estimate, ("build_oblique", "train_estimator", "train_ensemble",
                                      "estimate_coeffs", "oracle_coeffs")),
                          (solve, ("minnorm_solve",))):
        for name in names:
            tracer.wrap(module, name, f"{module.__name__.split('.')[-1]}.{name}")
    tracer.wrap(solve, "nnls", "solve.nnls", on_call=nnls_call, on_result=solve_counts)
    tracer.wrap(solve, "solve_reformulated", "solve.solve_reformulated", on_result=solve_counts)
    tracer.wrap(solve, "tv_direct", "solve.tv_direct", on_result=solve_counts)
    tracer.wrap(kernel, "mc_kernel_sweep", sweep_name)
    return tracer


def layer_metrics(tracer, details, wall_s):
    counts = tracer.counts

    def per_call(name, key):
        calls = counts.get(f"{name}.calls", 0)
        return counts.get(f"{name}.{key}", 0) / calls if calls else 0.0

    drawn = counts.get("mesh.mesh_with_k_triangles.calls", 0)
    kept = counts.get("estimate.ident_kept", 0)
    self_s = tracer.layer_self_s()
    out = {f"{name}.s": tracer.median_s(name) for name in SPANS}
    out.update({
        "mesh.meshes_drawn": drawn,
        "estimate.ident_accept_ratio": kept / drawn if drawn else 0.0,
        "solve.nnls.iters": per_call("solve.nnls", "iterations"),
        "solve.solve_reformulated.iters": per_call("solve.solve_reformulated", "iterations"),
        "solve.solve_reformulated.converged": counts.get("solve.solve_reformulated.converged", 0),
        "solve.tv_direct.iters": per_call("solve.tv_direct", "iterations"),
        "solve.tv_direct.converged": counts.get("solve.tv_direct.converged", 0),
        "trace.overhead_share": tracer.overhead_s / wall_s,
    })
    out.update({f"layer.{name}.self_share": self_s.get(name, 0.0) / wall_s for name in LAYERS})
    # The workload figures, reported where the workload exercises them and 0
    # elsewhere.
    out.update({name: details.get(name, 0) for name in PER_LAYER if name not in out})
    return out


def _print_table(args, e2e, details, tracer, state, env):
    print(f"# meshtomo benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"# operations attempted {state.attempted}, failed {state.failed}")
    for note in state.unexpected:
        print(f"# UNEXPECTED FAILURE {note}")
    for name, value in {**e2e, **details}.items():
        unit = END_TO_END.get(name) or PER_LAYER.get(name, "")
        print(f"{name:40s} {value:16.6g} {unit}")
    if tracer is not None:
        print(f"# spans: {len(tracer.spans)}; name, calls, median s, tail")
        for name, n, med, label, tail in tracer.table():
            extra = f"  {label} {tail:.6g}" if label else ""
            print(f"  {name:40s} {n:7d} {med:12.6g}{extra}")


def main(argv=None):
    args = _parse(argv)
    ncpu = _single_blas_thread()
    _import_package()
    import numpy
    import scipy

    from harness import Run

    env = {"numpy": numpy.__version__, "scipy": scipy.__version__, "cpus": ncpu,
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
           "python": sys.version.split()[0]}
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = install_tracer() if args.trace else None
    state = Run(tracer)
    t0 = time.perf_counter()
    if args.workload == "learned":
        import learned
        e2e, details = learned.run(state, tracer, args.seed, args.seconds)
    elif args.workload == "solvers":
        import solvers
        e2e, details = solvers.run(state, tracer, args.seed, args.seconds)
    elif args.workload == "kernel":
        import kmc
        e2e, details = kmc.run(state, tracer, args.seed, args.seconds)
    else:
        import cliwalk
        e2e, details = cliwalk.run(state, tracer, args.seed, args.seconds, OUT_DIR, SRC)
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.restore()
        metrics = layer_metrics(tracer, details, wall_s)
        units = PER_LAYER
        tracer.dump(os.path.join(OUT_DIR, f"trace_{args.workload}_seed{args.seed}.json"))
    else:
        metrics, units = e2e, END_TO_END
    _print_table(args, e2e, details, tracer, state, env)
    result = {"correct": state.correct, "attempted": state.attempted,
              "failed": min(state.failed, state.attempted),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
