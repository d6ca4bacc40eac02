"""Command-line interface: regenerate any table/figure of the paper.

Examples
--------
::

    python -m repro table2 --preset smoke --workloads fcnn lenet5
    python -m repro fig8 --preset bench
    python -m repro area                  # exact MZI accounting only (no training)
    python -m repro ablations --preset smoke
    python -m repro deploy-cnn --method reck
    python -m repro deploy-resnet --preset smoke   # graph compiler end to end
    python -m repro serve --workload lenet5 --max-batch 1 8 64
    python -m repro serve --workload fcnn --workers 1 2 4   # sharded service
    python -m repro precompile --store ./store --workloads fcnn lenet5
    python -m repro serve --workload fcnn --store ./store   # warm cold-start
    python -m repro backends                # native kernel build state
    python -m repro store prune ./store --max-entries 64 --max-age-days 30
    python -m repro scenarios               # hardware-degradation registry
    python -m repro scenarios --demo        # degradation-vs-time curves
    python -m repro serve --workload fcnn --recalibrate   # drift-and-heal demo
    python -m repro precompile --store ./store --prune-max-entries 64

Each subcommand prints the same rows/series the paper reports and optionally
saves them as JSON with ``--output``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.experiments.reporting import format_table, percent, save_json


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--preset", default="bench", choices=("smoke", "bench", "paper"),
                        help="training scale (area numbers are always paper-scale)")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--output", default=None,
                        help="optional path of a JSON file to store the raw rows")


def _maybe_save(rows, path: Optional[str]) -> None:
    if path:
        save_json(rows, path)
        print(f"\nsaved raw rows to {path}")


def _run_table2(args: argparse.Namespace) -> None:
    from repro.experiments.table2 import format_table2, run_table2

    rows = run_table2(preset=args.preset, workloads=args.workloads or None, seed=args.seed)
    print(format_table2(rows))
    _maybe_save(rows, args.output)


def _run_table3(args: argparse.Namespace) -> None:
    from repro.experiments.table3 import format_table3, run_table3

    rows = run_table3(preset=args.preset, workloads=args.workloads or None, seed=args.seed)
    print(format_table3(rows))
    _maybe_save(rows, args.output)


def _run_fig7(args: argparse.Namespace) -> None:
    from repro.experiments.fig7 import format_fig7, run_fig7

    rows = run_fig7(preset=args.preset, models=args.models or None, seed=args.seed)
    print(format_fig7(rows))
    _maybe_save(rows, args.output)


def _run_fig8(args: argparse.Namespace) -> None:
    from repro.experiments.fig8 import format_fig8, run_fig8

    rows = run_fig8(preset=args.preset, workloads=args.workloads or None, seed=args.seed)
    print(format_fig8(rows))
    _maybe_save(rows, args.output)


def _run_fig9(args: argparse.Namespace) -> None:
    from repro.experiments.fig9 import format_fig9, run_fig9

    rows = run_fig9(preset=args.preset, workloads=args.workloads or None, seed=args.seed)
    print(format_fig9(rows))
    _maybe_save(rows, args.output)


def _run_ablations(args: argparse.Namespace) -> None:
    from repro.experiments import ablations

    print(ablations.format_mesh_comparison(ablations.run_mesh_comparison()))
    print()
    print(ablations.format_alpha_sweep(
        ablations.run_alpha_sweep(preset=args.preset, seed=args.seed)))
    print()
    print(ablations.format_noise_robustness(
        ablations.run_noise_robustness(preset=args.preset, seed=args.seed)))
    print()
    print(ablations.format_pruning(
        ablations.run_pruning_comparison(preset=args.preset, seed=args.seed)))


def _run_deploy_cnn(args: argparse.Namespace) -> None:
    from repro.experiments.deployed import format_deployed_cnn, run_deployed_cnn

    rows = run_deployed_cnn(preset=args.preset, decoder=args.decoder, seed=args.seed,
                            trials=args.trials, method=args.method)
    print(format_deployed_cnn(rows))
    _maybe_save(rows, args.output)


def _run_deploy_resnet(args: argparse.Namespace) -> None:
    from repro.experiments.deployed import format_deployed_resnet, run_deployed_resnet

    rows = run_deployed_resnet(preset=args.preset, decoder=args.decoder, seed=args.seed,
                               trials=args.trials, method=args.method)
    print(format_deployed_resnet(rows))
    _maybe_save(rows, args.output)


def _run_serve(args: argparse.Namespace) -> None:
    """Serving throughput demo: plan runtime + dynamic micro-batching."""
    import numpy as np

    from repro.core.compile import HardwareTarget
    from repro.core.compile import compile as compile_model
    from repro.core.pipeline import OplixNet
    from repro.experiments.common import get_workload, workload_config
    from repro.experiments.presets import get_preset
    from repro.experiments.serving import measure_plan_speedup, run_serving_benchmark

    preset = get_preset(args.preset)
    workload = get_workload(args.workload)
    config = workload_config(workload, preset, seed=args.seed, decoder=args.decoder)
    pipeline = OplixNet(config)
    if args.train:
        student, _ = pipeline.train_student(mutual_learning=False)
    else:
        student = pipeline.build_student()
    scheme = pipeline.student_scheme()

    if args.recalibrate:
        _run_serve_recalibrate(args, student, scheme,
                               (config.channels, *config.image_size))
        return
    if args.workers is not None:
        _run_serve_sharded(args, student, scheme,
                           (config.channels, *config.image_size))
        return

    store = None
    if args.store:
        from repro.store import ArtifactStore

        store = ArtifactStore(args.store)
    program = compile_model(student, target=HardwareTarget(method=args.method),
                            store=store)
    if store is not None:
        status = "warm hit" if program.store_hit else "miss (populated)"
        print(f"artifact store {store.root}: {status} "
              f"[key {(program.store_key or '')[:12]}]")

    image_shape = (config.channels, *config.image_size)
    rng = np.random.default_rng(args.seed)
    plan_row = measure_plan_speedup(
        program, rng.normal(size=(args.max_batch[-1],) + image_shape), scheme)
    print(f"{workload.display_name}: {program.plan().describe()}")
    print(f"plan vs node-walk at batch {plan_row['batch']}: "
          f"{plan_row['speedup']:.2f}x "
          f"(walk {plan_row['walk_seconds'] * 1e3:.2f} ms, "
          f"plan {plan_row['plan_seconds'] * 1e3:.2f} ms, "
          f"parity {plan_row['max_deviation']:.1e})\n")

    rows = []
    for max_batch in args.max_batch:
        rows.append(run_serving_benchmark(
            program, scheme, image_shape=image_shape, requests=args.requests,
            clients=args.clients, max_batch=max_batch,
            max_latency_s=args.max_latency_ms / 1e3, seed=args.seed))
    table = [[row.max_batch, row.clients, row.requests,
              f"{row.sequential_requests_per_s:.0f}",
              f"{row.batched_requests_per_s:.0f}",
              f"{row.throughput_gain:.2f}x",
              f"{row.batcher['mean_batch_samples']:.1f}"]
             for row in rows]
    print(format_table(
        ["max batch", "clients", "requests", "seq req/s", "batched req/s",
         "gain", "mean flush size"],
        table, title="Dynamic micro-batching throughput (synthetic traffic)"))
    _maybe_save({"plan": plan_row, "serving": rows}, args.output)


def _run_serve_sharded(args: argparse.Namespace, student, scheme,
                       image_shape) -> None:
    """Sharded serving demo: worker pools behind shared-memory transport."""
    import dataclasses
    import os

    from repro.experiments.serving import run_shard_benchmark

    worker_counts = sorted(set(args.workers))
    if args.replicas is not None:
        worker_counts = sorted(set(worker_counts + [args.replicas]))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    print(f"sharded serving demo: worker counts {worker_counts} on {cpus} CPU(s)")
    if args.store:
        print(f"workers cold-start from the artifact store at {args.store}")
    rows = run_shard_benchmark(
        student, scheme, image_shape, worker_counts=worker_counts,
        requests=args.requests, clients=args.clients,
        max_batch=max(args.max_batch), max_latency_s=args.max_latency_ms / 1e3,
        seed=args.seed, store_path=args.store)
    table = []
    for row in rows:
        alive = sum(1 for replica in row.replicas.values() if replica.get("alive"))
        restarts = sum(replica.get("restarts", 0)
                       for replica in row.replicas.values())
        drift = row.lane.get("drift") if row.lane else None
        threads = sorted({replica.get("blas_threads")
                          for replica in row.replicas.values()}, key=str)
        startups = [replica["startup_s"] for replica in row.replicas.values()
                    if replica.get("startup_s") is not None]
        table.append([row.workers, row.clients, row.requests,
                      f"{row.requests_per_s:.0f}", f"{row.gain_vs_single:.2f}x",
                      f"{row.max_parity:.1e}", row.overload_retries,
                      f"{alive}/{len(row.replicas)}",
                      f"{restarts} ({row.lane.get('restarts_used', 0)}"
                      f"/{row.lane.get('max_restarts', 0)} budget)"
                      if row.lane else str(restarts),
                      "-" if drift is None else
                      f"score {drift.get('score')} "
                      f"({drift.get('recalibrations', 0)} recals)",
                      "/".join("?" if count is None else str(count)
                               for count in threads) or "-",
                      f"{max(startups):.2f} s" if startups else "-"])
    print(format_table(
        ["workers", "clients", "requests", "req/s", "gain vs 1 worker",
         "parity vs oracle", "overload retries", "alive", "restarts",
         "drift", "BLAS threads", "start-up"],
        table, title="Sharded serving throughput (shared-memory worker pools)"))
    _maybe_save({"cpus": cpus,
                 "rows": [dataclasses.asdict(row) for row in rows]}, args.output)


def _run_serve_recalibrate(args: argparse.Namespace, student, scheme,
                           image_shape) -> None:
    """Drift-and-heal demo: chaos-mode drift injection + online recalibration."""
    import numpy as np

    from repro.experiments.scenarios import run_drift_recalibration

    rng = np.random.default_rng(args.seed)
    images = rng.normal(size=(32, *image_shape))
    workers = max(args.workers) if args.workers else 2
    print(f"drift-and-heal demo: {workers} worker(s), "
          f"{args.drift_s:.0f}s of injected thermal drift "
          f"(sigma {args.drift_sigma}, tau {args.drift_tau_s}s)")
    summary = run_drift_recalibration(
        student, scheme, image_shape, images, sigma=args.drift_sigma,
        tau_s=args.drift_tau_s, drift_s=args.drift_s, workers=workers,
        seed=args.seed)
    table = [
        ["clean", percent(summary["clean_accuracy"])],
        [f"degraded (t={summary['drift_s']:.0f}s)",
         percent(summary["degraded_accuracy"])],
        ["recalibrated", percent(summary["recalibrated_accuracy"])],
    ]
    print(format_table(["deployment state", "agreement vs clean program"],
                       table, title="Online recalibration"))
    print(f"detected drift at score {summary['detection_score']:.3f}; "
          f"healed in {summary['recalibration_latency_s']:.2f}s; "
          f"traffic during the run: {summary['traffic']['completed']} requests, "
          f"{summary['traffic']['failed']} failed")
    _maybe_save(summary, args.output)


def _run_scenarios(args: argparse.Namespace) -> None:
    """List the hardware-degradation scenario registry; --demo sweeps them."""
    from repro.scenarios import scenario_descriptions

    rows = [[name, description]
            for name, description in scenario_descriptions().items()]
    print(format_table(["scenario", "model"], rows,
                       title="Hardware-degradation scenario registry "
                             "(repro.scenarios)"))
    if not args.demo:
        return

    import numpy as np

    from repro.experiments.scenarios import format_time_sweep, \
        scenario_time_sweep
    from repro.models import ComplexFCNN

    rng = np.random.default_rng(args.seed)
    model = ComplexFCNN(8, (6,), 3, decoder="merge",
                        rng=np.random.default_rng(args.seed))
    images = rng.normal(size=(64, 1, 4, 4))
    all_rows = []
    for config in (
        {"name": "thermal_drift", "params": {"sigma": args.sigma,
                                             "tau_s": 30.0, "seed": args.seed}},
        {"name": "crosstalk", "params": {"sigma": args.sigma / 4,
                                         "coupling": 0.4, "seed": args.seed}},
        {"name": "fabrication", "params": {"sigma": args.sigma / 8,
                                           "seed": args.seed}},
    ):
        all_rows.extend(scenario_time_sweep(
            model, "SI", images, config, times=args.times,
            trials=args.trials))
    print()
    print(format_time_sweep(all_rows))
    _maybe_save(all_rows, args.output)


def _run_precompile(args: argparse.Namespace) -> None:
    """Build the ahead-of-time compilation artifact store offline.

    For every requested workload the student model is built (deterministic
    from the seed, exactly as ``repro serve`` builds it), compiled, and its
    decomposition published into the store -- after which serving processes
    pointed at the same store (``repro serve --store``, ``WorkerSpec``'s
    ``store_path``) cold-start from a memory-mapped disk read instead of
    re-decomposing every mesh.
    """
    import time

    from repro.core.compile import HardwareTarget
    from repro.core.compile import compile as compile_model
    from repro.core.pipeline import OplixNet
    from repro.experiments.common import get_workload, workload_config
    from repro.experiments.presets import get_preset
    from repro.store import ArtifactStore

    store = ArtifactStore(args.store)
    target = HardwareTarget(method=args.method)
    preset = get_preset(args.preset)
    table = []
    for name in args.workloads:
        workload = get_workload(name)
        config = workload_config(workload, preset, seed=args.seed,
                                 decoder=args.decoder)
        pipeline = OplixNet(config)
        if args.train:
            student, _ = pipeline.train_student(mutual_learning=False)
        else:
            student = pipeline.build_student()
        start = time.perf_counter()
        program = compile_model(student, target=target,
                                store=store, store_refresh=args.refresh)
        program.plan()
        seconds = time.perf_counter() - start
        status = "warm hit" if program.store_hit else (
            "rewritten" if args.refresh else "compiled + stored")
        table.append([workload.display_name, (program.store_key or "")[:12],
                      status, f"{seconds * 1e3:.0f} ms"])
    print(format_table(["Model", "key", "status", "build time"], table,
                       title=f"Ahead-of-time compilation into {store.root}"))
    print(f"store stats: {store.stats.as_dict()}")
    prune_report = None
    if args.prune_max_entries is not None or args.prune_max_age_days is not None:
        prune_report = store.prune(
            max_entries=args.prune_max_entries,
            max_age=args.prune_max_age_days * 86400.0
            if args.prune_max_age_days is not None else None)
        print(f"pruned: removed {prune_report['removed_entries']} "
              f"entr{'y' if prune_report['removed_entries'] == 1 else 'ies'}, "
              f"{prune_report['removed_quarantined']} quarantined tree(s), "
              f"{prune_report['kept_entries']} kept")
    _maybe_save({"store": str(store.root), "stats": store.stats.as_dict(),
                 "rows": table, "prune": prune_report}, args.output)


def _run_backends(args: argparse.Namespace) -> None:
    """Report the native-kernel build state and any load error.

    Mesh execution has no backend to pick: unbatched meshes run their dense
    matrix and noise ensembles the numpy column program.  The native kernel
    builds those dense matrices and runs the Clements nulling chains, with
    the numpy paths as the fallback.
    """
    from repro.photonics import _native

    kernel = _native.kernel()
    info = _native.build_info()
    print(f"native kernel: "
          f"{'loaded' if kernel is not None else 'unavailable'} "
          "(dense-matrix build and Clements nulling chains; numpy otherwise)")
    for key in ("source", "compiler", "cache_dir", "forced_reference"):
        if key in info:
            print(f"  {key}: {info[key]}")
    error = _native.load_error()
    if error:
        print(f"  load error: {error}")

    payload = {"native": info, "load_error": error}
    _maybe_save(payload, args.output)


def _run_store_prune(args: argparse.Namespace) -> None:
    """Prune the ahead-of-time artifact store by age and entry count."""
    from repro.store import ArtifactStore

    store = ArtifactStore(args.store)
    report = store.prune(max_entries=args.max_entries,
                         max_age=args.max_age_days * 86400.0
                         if args.max_age_days is not None else None)
    print(f"store {store.root}: removed {report['removed_entries']} "
          f"entr{'y' if report['removed_entries'] == 1 else 'ies'}, "
          f"{report['removed_quarantined']} quarantined tree(s), "
          f"{report['kept_entries']} kept")
    _maybe_save(report, args.output)


def _run_area(args: argparse.Namespace) -> None:
    """Exact paper-scale MZI accounting for every workload (no training)."""
    from repro.experiments.common import WORKLOADS
    from repro.experiments.table2 import paper_area_numbers

    rows = []
    for workload in WORKLOADS:
        numbers = paper_area_numbers(workload)
        rows.append([workload.display_name,
                     f"{numbers['original_mzis'] / 1e4:.1f}",
                     f"{numbers['proposed_mzis'] / 1e4:.1f}",
                     percent(numbers["mzi_reduction"])])
    print(format_table(["Model", "#MZI Orig. (x1e4)", "#MZI Prop. (x1e4)", "Reduction"], rows,
                       title="Exact MZI accounting at paper scale (Table II area columns)"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OplixNet (DATE 2024) reproduction -- regenerate the paper's tables and figures",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, runner, helptext in (
        ("table2", _run_table2, "Table II: accuracy and #MZI vs the original ONN"),
        ("table3", _run_table3, "Table III: SCVNN-CVNN mutual learning"),
        ("fig8", _run_fig8, "Figure 8: data-assignment comparison"),
        ("fig9", _run_fig9, "Figure 9: decoder comparison"),
    ):
        sub = subparsers.add_parser(name, help=helptext)
        _add_common_arguments(sub)
        sub.add_argument("--workloads", nargs="*", default=None,
                         help="subset of workloads (fcnn lenet5 resnet20 resnet32)")
        sub.set_defaults(runner=runner)

    fig7 = subparsers.add_parser("fig7", help="Figure 7: comparison with the OFFT architecture")
    _add_common_arguments(fig7)
    fig7.add_argument("--models", nargs="*", default=None,
                      help="subset of Fig. 7 models (Model1 Model2 Model3 Model4)")
    fig7.set_defaults(runner=_run_fig7)

    ablations = subparsers.add_parser("ablations", help="ablation studies (alpha, mesh, noise, pruning)")
    _add_common_arguments(ablations)
    ablations.set_defaults(runner=_run_ablations)

    for name, runner, default_trials, helptext in (
        ("deploy-cnn", _run_deploy_cnn, 8,
         "compile the complex LeNet-5 onto meshes (im2col lowering)"),
        ("deploy-resnet", _run_deploy_resnet, 4,
         "compile the complex ResNet onto meshes (graph lowering with "
         "electronic skip adds)"),
    ):
        deploy = subparsers.add_parser(name, help=helptext)
        _add_common_arguments(deploy)
        deploy.add_argument("--decoder", default="merge",
                            choices=("merge", "linear", "unitary", "coherent", "photodiode"))
        deploy.add_argument("--trials", type=int, default=default_trials,
                            help="Monte-Carlo noise realizations per sigma")
        deploy.add_argument("--method", default="clements", choices=("clements", "reck"),
                            help="mesh decomposition scheme (HardwareTarget.method)")
        deploy.set_defaults(runner=runner)

    serve = subparsers.add_parser(
        "serve", help="serving demo: plan runtime + dynamic micro-batching throughput")
    _add_common_arguments(serve)
    serve.add_argument("--workload", default="fcnn",
                       choices=("fcnn", "lenet5", "resnet20", "resnet32"))
    serve.add_argument("--decoder", default="merge",
                       choices=("merge", "linear", "unitary", "coherent", "photodiode"))
    serve.add_argument("--method", default="clements", choices=("clements", "reck"))
    serve.add_argument("--train", action="store_true",
                       help="train the student first (default: serve random weights, "
                            "which measures the same throughput)")
    serve.add_argument("--requests", type=int, default=256,
                       help="synthetic single-image requests to serve")
    serve.add_argument("--clients", type=int, default=8,
                       help="concurrent client threads")
    serve.add_argument("--max-batch", type=int, nargs="+", default=[1, 8, 64],
                       help="flush sample budgets to sweep")
    serve.add_argument("--max-latency-ms", type=float, default=2.0,
                       help="longest a queued request waits for co-batching")
    serve.add_argument("--workers", type=int, nargs="+", default=None,
                       help="run the multi-process sharded service instead, "
                            "sweeping these worker-pool sizes")
    serve.add_argument("--replicas", type=int, default=None,
                       help="additional replica count to include in the "
                            "sharded sweep (e.g. a hot-model pool size)")
    serve.add_argument("--store", default=None,
                       help="path of an ahead-of-time compilation artifact "
                            "store (see 'repro precompile'); deploys hit warm "
                            "precompiled entries instead of decomposing")
    serve.add_argument("--recalibrate", action="store_true",
                       help="run the drift-and-heal demo instead: deploy the "
                            "sharded service in chaos mode, inject thermal "
                            "drift, detect it from logit statistics and "
                            "recalibrate with traffic flowing")
    serve.add_argument("--drift-s", type=float, default=120.0,
                       help="seconds of thermal drift to inject (--recalibrate)")
    serve.add_argument("--drift-sigma", type=float, default=0.5,
                       help="stationary drift std in radians (--recalibrate)")
    serve.add_argument("--drift-tau-s", type=float, default=30.0,
                       help="drift correlation time in seconds (--recalibrate)")
    serve.set_defaults(runner=_run_serve)

    precompile = subparsers.add_parser(
        "precompile",
        help="build the ahead-of-time compilation artifact store offline")
    _add_common_arguments(precompile)
    precompile.add_argument("--store", required=True,
                            help="store directory (created if missing)")
    precompile.add_argument("--workloads", nargs="+",
                            default=["fcnn", "lenet5", "resnet20"],
                            choices=("fcnn", "lenet5", "resnet20", "resnet32"),
                            help="models to precompile")
    precompile.add_argument("--decoder", default="merge",
                            choices=("merge", "linear", "unitary", "coherent",
                                     "photodiode"))
    precompile.add_argument("--method", default="clements",
                            choices=("clements", "reck"))
    precompile.add_argument("--train", action="store_true",
                            help="train the student first so the stored "
                                 "program serves trained weights")
    precompile.add_argument("--refresh", action="store_true",
                            help="bypass existing entries and rewrite them "
                                 "from a live compile")
    precompile.add_argument("--prune-max-entries", type=int, default=None,
                            help="after building, keep at most this many "
                                 "store entries (least recently used evicted)")
    precompile.add_argument("--prune-max-age-days", type=float, default=None,
                            help="after building, evict entries unused for "
                                 "this many days")
    precompile.set_defaults(runner=_run_precompile)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="hardware-degradation scenario registry; --demo sweeps "
             "degradation vs time")
    scenarios.add_argument("--demo", action="store_true",
                           help="run degradation-trajectory sweeps of every "
                                "scenario on a tiny FCNN")
    scenarios.add_argument("--sigma", type=float, default=0.4,
                           help="thermal-drift stationary std in radians for "
                                "the demo (other scenarios scale off it)")
    scenarios.add_argument("--times", type=float, nargs="+",
                           default=[0.0, 10.0, 30.0, 60.0, 120.0],
                           help="scenario times (seconds) of the trajectory")
    scenarios.add_argument("--trials", type=int, default=8,
                           help="Monte-Carlo realizations per time step")
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument("--output", default=None,
                           help="optional path of a JSON file to store the rows")
    scenarios.set_defaults(runner=_run_scenarios)

    backends = subparsers.add_parser(
        "backends",
        help="report the native kernel build state")
    backends.add_argument("--output", default=None,
                          help="optional path of a JSON file to store the report")
    backends.set_defaults(runner=_run_backends)

    store = subparsers.add_parser(
        "store", help="manage the ahead-of-time compilation artifact store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    prune = store_sub.add_parser(
        "prune", help="evict old/excess store entries and quarantined trees")
    prune.add_argument("store", help="store directory to prune")
    prune.add_argument("--max-entries", type=int, default=None,
                       help="keep at most this many entries (least recently "
                            "used evicted first)")
    prune.add_argument("--max-age-days", type=float, default=None,
                       help="evict entries not read or written for this many days")
    prune.add_argument("--output", default=None,
                       help="optional path of a JSON file to store the report")
    prune.set_defaults(runner=_run_store_prune)

    area = subparsers.add_parser("area", help="exact paper-scale MZI accounting (no training)")
    area.set_defaults(runner=_run_area)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.runner(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
