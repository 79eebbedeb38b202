"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``     — structural statistics of a matrix (suite name or .mtx)
``bench``    — simulate every format's SpMV on one matrix
``codegen``  — print the generated OpenCL kernel for a matrix
``analyze``  — statically analyze the generated kernels (no execution)
``convert``  — build CRSD from a .mtx file and save it (.npz)
``tune``     — autotune CRSD build parameters for a matrix
``profile``  — record spans + derived metrics, export profile artifacts
``faultsim`` — chaos-sweep the suite under seeded fault injection
``serve``    — serve a request stream against one matrix (micro-batched)
``loadgen``  — seeded open-loop load generation over the suite
``cluster``  — multi-device cluster utilities (``cluster status``)

``serve`` and ``loadgen`` accept ``--devices N`` to route the stream
through a simulated N-device cluster (consistent-hash placement,
certified cross-device splits).  Convention: ``--shards`` counts
row-block shards of one matrix (static analysis), ``--devices`` counts
cluster devices (serving); ``repro analyze`` accepts either spelling.

Matrices are referenced either by Table V suite name/number
(``kim1``, ``3``) or by a MatrixMarket file path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np


def _load_matrix(ref: str, scale: float, seed: int = 0):
    """Resolve a matrix reference to a COOMatrix."""
    from repro.matrices.mmio import read_matrix_market
    from repro.matrices.suite23 import get_spec

    if ref.endswith(".mtx") or ref.endswith(".mtx.gz"):
        return read_matrix_market(ref), Path(ref).stem
    try:
        key = int(ref)
    except ValueError:
        key = ref
    spec = get_spec(key)
    return spec.generate(scale=scale), spec.name


def cmd_info(args) -> int:
    """``repro info``: structure statistics + CRSD view (+ spy plot)."""
    from repro.core.analysis import analyze_structure
    from repro.matrices.stats import compute_stats

    coo, name = _load_matrix(args.matrix, args.scale)
    print(f"{name}: {compute_stats(coo)}")
    a = analyze_structure(coo, mrows=args.mrows)
    print(
        f"CRSD view (mrows={args.mrows}): {a.num_regions} regions, "
        f"{a.num_scatter_points} scatter points, "
        f"{a.idle_broken_gaps} broken idle sections"
    )
    if args.spy:
        from repro.matrices.spyplot import spy

        scatter = a.scatter_rows if a.num_scatter_points else None
        print(spy(coo, width=args.spy, scatter_rows=scatter))
    return 0


def cmd_bench(args) -> int:
    """``repro bench``: simulate every format on one matrix."""
    from repro.bench.runner import GPU_FORMATS, _build_runners, scaled_device
    from repro.ocl.executor import executor_mode
    from repro.perf.costmodel import predict_gpu_time
    from repro.perf.metrics import gflops

    executor_mode()  # surface a bad REPRO_EXECUTOR before the per-format
    # try/except below turns it into "unavailable" for every format
    coo, name = _load_matrix(args.matrix, args.scale)
    dev = scaled_device(args.scale)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(coo.ncols)
    ref = coo.matvec(x)
    print(f"{name} ({coo.nrows}x{coo.ncols}, nnz={coo.nnz:,}), "
          f"precision={args.precision}")
    rows = []
    for fmt in GPU_FORMATS:
        try:
            runner = _build_runners(coo, dev, args.precision, [fmt],
                                    args.mrows)[fmt]
            run = runner.run(x)
        except Exception as exc:  # OOM etc.
            print(f"  {fmt:<6} unavailable ({type(exc).__name__})")
            continue
        tol = 1e-6 if args.precision == "double" else 1e-2
        ok = np.allclose(run.y, ref, atol=tol * max(1, np.abs(ref).max()))
        perf = predict_gpu_time(run.trace, dev, args.precision,
                                size_scale=args.scale)
        rows.append((fmt, gflops(coo.nnz, perf.total), ok))
    for fmt, gf, ok in sorted(rows, key=lambda r: -r[1]):
        print(f"  {fmt:<6} {gf:8.2f} GFLOPS  {'ok' if ok else 'WRONG'}")
    return 0 if all(ok for _, _, ok in rows) else 1


def cmd_codegen(args) -> int:
    """``repro codegen``: print the generated OpenCL kernel."""
    from repro.codegen import build_plan, generate_opencl_source
    from repro.core.crsd import CRSDMatrix, compatible_wavefront

    coo, _ = _load_matrix(args.matrix, args.scale)
    crsd = CRSDMatrix.from_coo(
        coo, mrows=args.mrows,
        wavefront_size=compatible_wavefront(args.mrows),
    )
    print(generate_opencl_source(build_plan(crsd), precision=args.precision))
    return 0


def _fused_certification(plan, crsd, precision: str) -> dict:
    """Structured fused ``certify_plan`` outcome for ``repro analyze``.

    Declines carry the prover reasons; a *crashed* prover (which at
    run time demotes the runner and files an IncidentReport) is
    surfaced as a ``crash`` entry instead of propagating.
    """
    from repro.gpu_kernels.fused import certify_plan
    from repro.ocl.device import TESLA_C2050

    try:
        cert = certify_plan(plan, TESLA_C2050, precision,
                            scatter_colval=crsd.scatter_colval,
                            scatter_rowno=crsd.scatter_rowno)
    except Exception as exc:
        return {"certified": False, "reasons": [],
                "crash": {"type": type(exc).__name__,
                          "message": str(exc)}}
    return {"certified": cert.ok, "reasons": list(cert.reasons),
            "crash": None}


def cmd_analyze(args) -> int:
    """``repro analyze``: static analysis of the generated kernels.

    Runs the full checker battery (bounds, coalescing, divergence,
    local memory, batched-execution safety, render cross-checks) over
    the kernels that would be generated for the matrix — without
    executing anything — plus the fused-engine certification verdict.
    ``--shards N`` additionally certifies the wavefront-aligned N-way
    row-block shard plan (halo coverage, write disjointness, trace
    conservation, reduction order).  ``--json`` prints the
    machine-readable report; the exit code is non-zero iff any analyzer
    violation was found or a requested shard plan was declined (a fused
    decline alone does not fail the run — the engine falls back).
    """
    import json

    from repro.analyze import analyze_matrix, certify_shard_plan
    from repro.codegen.plan import build_plan
    from repro.core.crsd import CRSDMatrix, compatible_wavefront
    from repro.shard import ShardPlanError, ShardPlanner

    coo, name = _load_matrix(args.matrix, args.scale)
    crsd = CRSDMatrix.from_coo(
        coo, mrows=args.mrows,
        wavefront_size=compatible_wavefront(args.mrows),
    )
    if getattr(args, "sym", False):
        return _analyze_sym(args, coo, crsd, name)
    report = analyze_matrix(
        crsd,
        precision=args.precision,
        use_local_memory=not args.no_local_memory,
        nvec=args.nvec,
    )
    plan = build_plan(crsd, use_local_memory=not args.no_local_memory,
                      nvec=args.nvec)
    fused = _fused_certification(plan, crsd, args.precision)
    shard_cert = None
    if args.shards is not None:
        try:
            shard_plan = ShardPlanner(crsd, coo=coo).plan(args.shards)
        except ShardPlanError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        shard_cert = certify_shard_plan(
            crsd, shard_plan,
            precision=args.precision,
            use_local_memory=not args.no_local_memory,
            nvec=args.nvec,
        )
    if args.json:
        payload = report.to_dict()
        payload["matrix"] = name
        payload["fused_certification"] = fused
        if shard_cert is not None:
            payload["shard_certification"] = shard_cert.to_dict()
        print(json.dumps(payload, indent=2))
    else:
        print(f"{name}: {report.summary()}")
        state = ("certified" if fused["certified"]
                 else "crashed" if fused["crash"] else "declined")
        line = f"  fused: {state}"
        if fused["reasons"]:
            line += " (" + "; ".join(fused["reasons"]) + ")"
        if fused["crash"]:
            line += (f" ({fused['crash']['type']}: "
                     f"{fused['crash']['message']})")
        print(line)
        if shard_cert is not None:
            if shard_cert.ok:
                print(f"  shards: {args.shards}-way row-block plan "
                      f"certified (halo re-read "
                      f"{shard_cert.halo_reread_transactions} "
                      f"transactions)")
            else:
                print(f"  shards: {args.shards}-way row-block plan "
                      "DECLINED")
                for reason in shard_cert.reasons:
                    print(f"    {reason}")
    code = report.exit_code
    if shard_cert is not None and not shard_cert.ok:
        code = max(code, 1)
    return code


def _analyze_sym(args, coo, crsd, name: str) -> int:
    """``repro analyze --sym``: analyze the symmetric half-storage
    codelets (requires an exactly symmetric, scatter-free matrix)."""
    import json

    from repro.analyze import analyze_matrix
    from repro.core.symcrsd import SymCRSDError, SymCRSDMatrix

    if args.shards is not None or args.nvec != 1:
        print("error: --sym does not combine with --shards/--nvec",
              file=sys.stderr)
        return 2
    try:
        sym = SymCRSDMatrix.from_crsd(crsd, coo=coo)
    except SymCRSDError as exc:
        print(f"error: {name}: {exc}", file=sys.stderr)
        return 2
    report = analyze_matrix(sym, precision=args.precision)
    if args.json:
        payload = report.to_dict()
        payload["matrix"] = name
        payload["symmetric"] = {
            "stored_elements": sym.stored_elements,
            "full_slab_elements": crsd.dia_val.size,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{name} (symmetric half storage): {report.summary()}")
        print(f"  stored slots: {sym.stored_elements} of "
              f"{crsd.dia_val.size} "
              f"({sym.stored_elements / max(1, crsd.dia_val.size):.0%})")
    return report.exit_code


def cmd_convert(args) -> int:
    """``repro convert``: build CRSD and persist it as .npz."""
    from repro.core.crsd import CRSDMatrix, compatible_wavefront
    from repro.core.serialize import save_crsd

    coo, name = _load_matrix(args.matrix, args.scale)
    crsd = CRSDMatrix.from_coo(
        coo, mrows=args.mrows,
        wavefront_size=compatible_wavefront(args.mrows),
    )
    out = Path(args.output or f"{name}.crsd.npz")
    save_crsd(crsd, out)
    print(f"wrote {out} ({crsd.num_dia_patterns} patterns, "
          f"{crsd.num_scatter_rows} scatter rows, "
          f"fill {crsd.fill_zeros:,})")
    return 0


def cmd_tune(args) -> int:
    """``repro tune``: autotune CRSD build parameters.

    Tuning goes through the process-wide plan cache
    (:func:`repro.serve.cache.default_cache`), so a repeated request for
    the same matrix in one process is served from the cache instead of
    re-running the grid search.
    """
    import dataclasses
    import json

    from repro.serve.cache import default_cache

    coo, name = _load_matrix(args.matrix, args.scale)
    res = default_cache().tune(coo, fast=args.fast)
    b = res.best
    if args.json:
        payload = {
            "matrix": name,
            "best": dataclasses.asdict(b),
            "candidates": [dataclasses.asdict(c) for c in res.candidates],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"{name}: best mrows={b.mrows} "
          f"idle_fill_max_rows={b.idle_fill_max_rows} "
          f"local_memory={b.use_local_memory} "
          f"(modelled {b.seconds * 1e6:.1f} us, "
          f"{len(res.candidates)} candidates)")
    return 0


def cmd_profile(args) -> int:
    """``repro profile``: spans + derived metrics + exporters.

    Sweeps the requested formats/executors/precisions over one matrix
    under a profile session, verifies every run against the COO
    reference, and prints a summary.  ``--json`` prints the full
    machine-readable report; ``-o DIR`` writes the JSON/CSV/Chrome-trace
    artifacts (open the ``.trace.json`` in chrome://tracing or
    Perfetto).  Exit code is non-zero iff any run failed verification.
    """
    import json

    from repro.obs.profiler import profile_matrix

    coo, name = _load_matrix(args.matrix, args.scale)
    report = profile_matrix(
        coo, name,
        formats=tuple(args.formats.split(",")),
        executors=tuple(args.executors.split(",")),
        precisions=tuple(args.precisions.split(",")),
        mrows=args.mrows,
        size_scale=args.scale,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.summary())
    if args.output:
        paths = report.export(args.output)
        for kind, path in sorted(paths.items()):
            print(f"wrote {kind}: {path}", file=sys.stderr)
    bad = [e for e in report.registry.entries if not e.get("verified", True)]
    return 1 if bad else 0


def cmd_faultsim(args) -> int:
    """``repro faultsim``: chaos-sweep matrices under fault injection.

    Runs every (matrix, executor, precision) case of the sweep under a
    seeded fault plan through the resilient execution layer, then
    differentially verifies each served ``y`` bit-for-bit against a
    fault-free replay of the serving rung.  Fully deterministic: the
    same ``--seed`` produces byte-identical JSON.  Exit code is
    non-zero iff any case silently diverged — exhaustion is a legal
    outcome, divergence never is.
    """
    import json

    from repro.matrices.suite23 import get_spec
    from repro.resilience.chaos import chaos_sweep

    matrices = None
    if args.matrices:
        matrices = []
        for ref in args.matrices.split(","):
            try:
                matrices.append(get_spec(int(ref)).number)
            except ValueError:
                matrices.append(get_spec(ref).number)
    report = chaos_sweep(
        seed=args.seed,
        scale=args.scale,
        matrices=matrices,
        format=args.format,
        executors=tuple(args.executors.split(",")),
        precisions=tuple(args.precisions.split(",")),
        mrows=args.mrows,
    )
    if args.json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        print(text)
    else:
        print(report.summary())
    if args.output:
        Path(args.output).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    return report.exit_code


def cmd_serve(args) -> int:
    """``repro serve``: serve a request stream against one matrix.

    Generates ``--requests`` random right-hand sides, submits them with
    seeded Poisson arrivals at ``--rate`` requests per simulated second
    (``--rate 0`` = all at once), and serves them through the
    micro-batching engine — or, with ``--devices N``, through a
    simulated N-device cluster.  Prints per-stream latency percentiles
    and the batching/cache counters; ``--json`` prints the
    machine-readable stats.
    """
    import json

    import repro
    from repro.ocl.executor import executor_mode

    executor_mode()  # surface a bad REPRO_EXECUTOR before the event loop
    if args.split_rows is not None and not args.devices:
        print("error: --split-rows requires --devices N", file=sys.stderr)
        return 2
    if args.replicas != 1 and not args.devices:
        print("error: --replicas requires --devices N", file=sys.stderr)
        return 2
    coo, name = _load_matrix(args.matrix, args.scale)
    session = repro.serve_session(
        cluster=args.devices, precision=args.precision, mrows=args.mrows,
        max_batch=args.max_batch, max_delay_s=args.max_delay_us * 1e-6,
        max_queue_depth=args.queue_depth, overflow=args.overflow,
        size_scale=args.scale, keep_y=False,
        split_threshold_rows=args.split_rows, replicas=args.replicas)
    rng = np.random.default_rng(args.seed)
    at = 0.0
    for _ in range(args.requests):
        if args.rate > 0:
            at += float(rng.exponential(1.0 / args.rate))
        session.submit(coo, rng.standard_normal(coo.ncols), at=at,
                       deadline_s=args.deadline_us * 1e-6
                       if args.deadline_us else None)
    results = session.run()
    stats = session.stats()
    served = sorted(r.latency_s for r in results if r.served)
    if args.json:
        payload = {"matrix": name, "requests": len(results),
                   "served": len(served), **stats}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    batching = stats["batching"]
    print(f"{name}: served {len(served)}/{len(results)} requests, "
          f"{batching['spmm_launches']} SpMM + "
          f"{batching['spmv_launches']} SpMV launches")
    if served:
        p50 = served[max(0, int(0.50 * len(served)) - 1)]
        p95 = served[max(0, int(-(-0.95 * len(served) // 1)) - 1)]
        print(f"  latency p50 {p50 * 1e6:8.1f} us   "
              f"p95 {p95 * 1e6:8.1f} us   "
              f"max {served[-1] * 1e6:8.1f} us")
    print(f"  batch histogram {batching['histogram']}")
    print(f"  plan cache {stats['cache']}")
    cluster = stats.get("cluster")
    if cluster:
        print(f"  cluster {cluster['num_devices']} devices "
              f"({len(cluster['alive'])} alive), "
              f"{cluster['split_dispatches']} split dispatches, "
              f"halo {cluster['halo']['total_bytes']} bytes")
    return 0


def cmd_loadgen(args) -> int:
    """``repro loadgen``: seeded load generation over the suite.

    Runs a fully deterministic open-loop arrival trace through the
    serving engine and prints (or writes, ``-o``) the byte-reproducible
    JSON report — same seed, same bytes.  ``--devices N`` routes the
    trace through a simulated N-device cluster instead (with
    ``--tenants`` value-variants per matrix and optional mid-run
    device loss via ``--fail-device``/``--fail-at-us``).  When
    ``REPRO_SERVE_TRAJECTORY`` (or ``--trajectory``) names a file, the
    report is also appended to that ``BENCH_serve.json`` history;
    cluster runs use ``REPRO_CLUSTER_TRAJECTORY`` /
    ``BENCH_cluster.json`` with the cluster trajectory schema.
    """
    import repro
    from repro.ocl.executor import executor_mode
    from repro.serve import AdmissionPolicy, BatchConfig
    from repro.serve.loadgen import (
        CLUSTER_TRAJECTORY_SCHEMA, TRAJECTORY_SCHEMA, LoadConfig,
        append_serve_trajectory, cluster_trajectory_path, report_json,
        run_loadgen, trajectory_path,
    )

    executor_mode()  # surface a bad REPRO_EXECUTOR before the event loop
    if args.split_rows is not None and not args.devices:
        print("error: --split-rows requires --devices N", file=sys.stderr)
        return 2
    if args.fail_device is not None and not args.devices:
        print("error: --fail-device requires --devices N", file=sys.stderr)
        return 2
    if args.replicas != 1 and not args.devices:
        print("error: --replicas requires --devices N", file=sys.stderr)
        return 2
    kwargs = {}
    if args.matrices:
        kwargs["matrices"] = tuple(args.matrices.split(","))
    config = LoadConfig(
        seed=args.seed, scale=args.scale, num_requests=args.requests,
        rate_rps=args.rate, pattern=args.pattern,
        burst_size=args.burst_size,
        deadline_s=args.deadline_us * 1e-6 if args.deadline_us else None,
        precision=args.precision, mrows=args.mrows,
        tenants=args.tenants, **kwargs)
    if args.devices:
        engine = repro.serve_session(
            cluster=args.devices, precision=args.precision,
            mrows=args.mrows, max_batch=args.max_batch,
            max_delay_s=args.max_delay_us * 1e-6,
            max_queue_depth=args.queue_depth, overflow=args.overflow,
            size_scale=args.scale, keep_y="digest",
            split_threshold_rows=args.split_rows, replicas=args.replicas)
        if args.fail_device is not None:
            engine.fail_device(args.fail_device,
                               at_s=args.fail_at_us * 1e-6)
        report = run_loadgen(config, engine=engine)
    else:
        report = run_loadgen(
            config,
            batch=BatchConfig(max_batch=args.max_batch,
                              max_delay_s=args.max_delay_us * 1e-6),
            admission=AdmissionPolicy(max_queue_depth=args.queue_depth,
                                      overflow=args.overflow))
    text = report_json(report)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    if args.devices:
        trajectory = args.trajectory or cluster_trajectory_path()
        schema = CLUSTER_TRAJECTORY_SCHEMA
    else:
        trajectory = args.trajectory or trajectory_path()
        schema = TRAJECTORY_SCHEMA
    if trajectory:
        append_serve_trajectory(report, trajectory, schema=schema)
        print(f"appended trajectory entry: {trajectory}", file=sys.stderr)
    return 0


def cmd_cluster(args) -> int:
    """``repro cluster status``: placement and load tables.

    Replays a seeded multi-tenant warmup trace through an N-device
    cluster (deterministic — same options, same tables) and prints
    where each pattern landed (home device, split fan-out) and what
    each device did (launches, served requests, cache residency).
    ``--json`` emits the tables plus the full cluster stats section.
    """
    import json

    import repro
    from repro.ocl.executor import executor_mode
    from repro.serve.loadgen import LoadConfig, run_loadgen

    executor_mode()  # surface a bad REPRO_EXECUTOR before the event loop
    engine = repro.serve_session(
        cluster=args.devices, precision=args.precision, mrows=args.mrows,
        size_scale=args.scale, keep_y="digest",
        split_threshold_rows=args.split_rows, replicas=args.replicas)
    if args.fail_device is not None:
        engine.fail_device(args.fail_device, at_s=args.fail_at_us * 1e-6)
    if args.rejoin_at_us is not None:
        if args.fail_device is None:
            print("error: --rejoin-at-us requires --fail-device D",
                  file=sys.stderr)
            return 2
        engine.rejoin_device(args.fail_device,
                             at_s=args.rejoin_at_us * 1e-6)
    kwargs = {}
    if args.matrices:
        kwargs["matrices"] = tuple(args.matrices.split(","))
    config = LoadConfig(
        seed=args.seed, scale=args.scale, num_requests=args.requests,
        precision=args.precision, mrows=args.mrows, tenants=args.tenants,
        **kwargs)
    run_loadgen(config, engine=engine)
    placement = engine.placement_table()
    load = engine.load_table()
    if args.json:
        print(json.dumps(
            {"placement": placement, "load": load,
             "cluster": engine.stats()["cluster"]},
            indent=2, sort_keys=True))
        return 0
    print(f"cluster: {args.devices} devices, seed {args.seed}, "
          f"{config.num_requests} warmup requests, "
          f"{config.tenants} tenant(s)/matrix")
    print("placement:")
    print(f"  {'pattern':<18} {'home':>4}  {'split':<5} devices")
    for row in placement:
        devs = ",".join(str(d) for d in row["devices"])
        print(f"  {row['pattern'][:16]:<18} {row['home']:>4}  "
              f"{str(row['split']):<5} {devs}")
    print("load:")
    print(f"  {'device':>6} {'state':<8} {'launches':>8} "
          f"{'shard':>6} {'served':>6} {'cached':>6}")
    for row in load:
        print(f"  {row['device']:>6} {row['state']:<8} "
              f"{row['launches']:>8} {row['shard_launches']:>6} "
              f"{row['served']:>6} {row['cache_entries']:>6}")
    return 0


def cmd_cluster_chaos(args) -> int:
    """``repro cluster chaos``: multi-fault chaos gate.

    Replays one seeded load trace twice — through a single healthy
    engine (the reference) and through an N-device replicated cluster
    while a :class:`~repro.resilience.chaos.ChaosSchedule` injects
    correlated kills, stragglers and flaps mid-run.  The gate passes
    only when the chaos run's folded ``y`` checksum is bit-identical
    to the reference and no hedge copy ever diverged — zero wrong
    answers under faults.  The JSON report is byte-reproducible per
    seed (same options, same bytes) and is appended to
    ``BENCH_chaos.json`` when ``REPRO_CHAOS_TRAJECTORY`` (or
    ``--trajectory``) names a file.  Exit code 1 on gate failure.
    """
    import json

    import repro
    from repro.cluster import HedgePolicy
    from repro.ocl.executor import executor_mode
    from repro.resilience.chaos import (
        ChaosSchedule, default_cluster_schedule,
    )
    from repro.serve import AdmissionPolicy
    from repro.serve.loadgen import (
        CHAOS_TRAJECTORY_SCHEMA, LoadConfig, append_serve_trajectory,
        chaos_trajectory_path, report_json, run_loadgen,
    )

    executor_mode()  # surface a bad REPRO_EXECUTOR before the event loop
    if args.devices < 2:
        print("error: chaos needs --devices >= 2 (somewhere to fail "
              "over to)", file=sys.stderr)
        return 2
    kwargs = {}
    if args.matrices:
        kwargs["matrices"] = tuple(args.matrices.split(","))
    config = LoadConfig(
        seed=args.seed, scale=args.scale, num_requests=args.requests,
        precision=args.precision, mrows=args.mrows, tenants=args.tenants,
        **kwargs)
    # queue bound sized to the trace so admission never drops requests:
    # the gate certifies answers, not backpressure.
    queue_depth = max(64, args.requests)
    reference = run_loadgen(
        config, admission=AdmissionPolicy(max_queue_depth=queue_depth))
    if args.schedule:
        schedule = ChaosSchedule.from_dict(
            json.loads(Path(args.schedule).read_text()))
    else:
        schedule = default_cluster_schedule(
            args.devices, seed=args.seed, at_s=args.chaos_at_us * 1e-6)
    engine = repro.serve_session(
        cluster=args.devices, precision=args.precision, mrows=args.mrows,
        max_queue_depth=queue_depth, size_scale=args.scale,
        keep_y="digest", replicas=args.replicas, hedge=HedgePolicy())
    report = run_loadgen(config, engine=engine, chaos=schedule)
    resilience = report.stats.get("cluster", {}).get("resilience", {})
    divergences = int(resilience.get("hedge_divergences", 0))
    match = report.y_checksum == reference.y_checksum
    passed = match and divergences == 0
    report.extra["chaos_gate"] = {
        "reference_checksum": reference.y_checksum,
        "reference_served": len(reference.served),
        "chaos_served": len(report.served),
        "checksums_match": match,
        "hedge_divergences": divergences,
        "passed": passed,
    }
    text = report_json(report)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text, end="")
    trajectory = args.trajectory or chaos_trajectory_path()
    if trajectory:
        append_serve_trajectory(report, trajectory,
                                schema=CHAOS_TRAJECTORY_SCHEMA)
        print(f"appended trajectory entry: {trajectory}", file=sys.stderr)
    if not passed:
        print(f"chaos gate FAILED: checksums_match={match} "
              f"hedge_divergences={divergences}", file=sys.stderr)
        return 1
    print(f"chaos gate passed: {len(report.served)} served, "
          f"checksum matches the no-fault run "
          f"({len(schedule.actions)} faults injected)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (one subcommand per command)."""
    from repro.ocl.executor import DEFAULT_SWEEP_EXECUTORS

    sweep_executors = ",".join(DEFAULT_SWEEP_EXECUTORS)
    p = argparse.ArgumentParser(
        prog="repro",
        description="CRSD SpMV reproduction toolkit (Sun et al., ICPP 2011)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("matrix", help="suite name/number or .mtx path")
        sp.add_argument("--scale", type=float, default=0.02,
                        help="suite generation scale (default 0.02)")
        sp.add_argument("--mrows", type=int, default=128,
                        help="CRSD row-segment size (default 128)")

    sp = sub.add_parser("info", help="structural statistics")
    common(sp)
    sp.add_argument("--spy", type=int, nargs="?", const=64, default=None,
                    metavar="WIDTH",
                    help="render a text spy plot (optional width)")
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("bench", help="simulate all formats")
    common(sp)
    sp.add_argument("--precision", choices=["double", "single"],
                    default="double")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("codegen", help="print the generated OpenCL kernel")
    common(sp)
    sp.add_argument("--precision", choices=["double", "single"],
                    default="double")
    sp.set_defaults(fn=cmd_codegen)

    sp = sub.add_parser(
        "analyze", help="statically analyze the generated kernels"
    )
    common(sp)
    sp.add_argument("--precision", choices=["double", "single"],
                    default="double")
    sp.add_argument("--nvec", type=int, default=1,
                    help="analyze the multi-vector SpMM variant")
    sp.add_argument("--no-local-memory", action="store_true",
                    help="analyze the A1 ablation (no AD tile staging)")
    sp.add_argument("--sym", action="store_true",
                    help="analyze the symmetric half-storage codelets "
                         "(matrix must be exactly symmetric and "
                         "scatter-free)")
    sp.add_argument("--shards", "--devices", type=int, default=None,
                    metavar="N", dest="shards",
                    help="additionally certify the N-way row-block "
                         "shard plan (non-zero exit on a violated "
                         "prover); --devices is an alias — the same "
                         "plan a --devices N cluster serves")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable findings report")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("convert", help="build CRSD and save to .npz")
    common(sp)
    sp.add_argument("-o", "--output", help="output path")
    sp.set_defaults(fn=cmd_convert)

    sp = sub.add_parser("tune", help="autotune CRSD build parameters")
    common(sp)
    sp.add_argument("--fast", action="store_true",
                    help="use the closed-form model (no simulation)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable result (best + all candidates)")
    sp.set_defaults(fn=cmd_tune)

    sp = sub.add_parser(
        "profile", help="record spans + metrics, export profile artifacts"
    )
    common(sp)
    sp.add_argument("--formats", default="crsd",
                    help="comma-separated formats (default: crsd)")
    sp.add_argument("--executors", default=sweep_executors,
                    help="comma-separated executor modes "
                         f"(default: {sweep_executors})")
    sp.add_argument("--precisions", default="double",
                    help="comma-separated precisions (default: double)")
    sp.add_argument("--json", action="store_true",
                    help="print the full machine-readable report")
    sp.add_argument("-o", "--output", metavar="DIR",
                    help="write profile_<name>.{json,csv,trace.json} here")
    sp.set_defaults(fn=cmd_profile)

    sp = sub.add_parser(
        "faultsim",
        help="chaos-sweep matrices under seeded fault injection",
    )
    sp.add_argument("--seed", type=int, default=0,
                    help="sweep seed (default 0); same seed, same report")
    sp.add_argument("--scale", type=float, default=0.01,
                    help="suite generation scale (default 0.01)")
    sp.add_argument("--mrows", type=int, default=128,
                    help="CRSD row-segment size (default 128)")
    sp.add_argument("--matrices", default=None,
                    help="comma-separated suite names/numbers "
                         "(default: all 23)")
    sp.add_argument("--format", default="crsd",
                    help="requested (top-rung) format (default: crsd)")
    sp.add_argument("--executors", default=sweep_executors,
                    help="comma-separated executor modes "
                         f"(default: {sweep_executors})")
    sp.add_argument("--precisions", default="double,single",
                    help="comma-separated precisions "
                         "(default: double,single)")
    sp.add_argument("--json", action="store_true",
                    help="print the full machine-readable report")
    sp.add_argument("-o", "--output", metavar="FILE",
                    help="also write the JSON report here")
    sp.set_defaults(fn=cmd_faultsim)

    def serve_common(sp):
        sp.add_argument("--precision", choices=["double", "single"],
                        default="double")
        sp.add_argument("--seed", type=int, default=0,
                        help="arrival/vector seed (default 0)")
        sp.add_argument("--requests", type=int, default=32,
                        help="requests to generate (default 32)")
        sp.add_argument("--max-batch", type=int, default=16,
                        help="widest SpMM coalescing (default 16)")
        sp.add_argument("--max-delay-us", type=float, default=200.0,
                        help="longest simulated batching delay for the "
                             "oldest request, microseconds (default 200)")
        sp.add_argument("--queue-depth", type=int, default=64,
                        help="admission queue bound (default 64)")
        sp.add_argument("--overflow", choices=["reject-new", "drop-oldest"],
                        default="reject-new",
                        help="queue overflow policy (default reject-new)")
        sp.add_argument("--deadline-us", type=float, default=None,
                        help="per-request deadline, microseconds "
                             "(default: none)")
        sp.add_argument("--devices", type=int, default=None, metavar="N",
                        help="serve through a simulated N-device "
                             "cluster (default: one engine)")
        sp.add_argument("--split-rows", type=int, default=None,
                        metavar="ROWS",
                        help="with --devices: split matrices of at "
                             "least ROWS rows across devices on a "
                             "certified shard plan")
        sp.add_argument("--replicas", type=int, default=1, metavar="R",
                        help="with --devices: place each pattern on R "
                             "ring-successor devices (default 1)")

    sp = sub.add_parser(
        "serve", help="serve a request stream against one matrix"
    )
    common(sp)
    serve_common(sp)
    sp.add_argument("--rate", type=float, default=4e5,
                    help="mean arrival rate, requests per simulated "
                         "second; 0 = all at once (default 4e5)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable serving stats")
    sp.set_defaults(fn=cmd_serve)

    sp = sub.add_parser(
        "loadgen", help="seeded open-loop load generation over the suite"
    )
    serve_common(sp)
    sp.add_argument("--matrices", default=None,
                    help="comma-separated suite names (default: the "
                         "8-matrix representative subset)")
    sp.add_argument("--scale", type=float, default=0.05,
                    help="suite generation scale (default 0.05)")
    sp.add_argument("--mrows", type=int, default=128,
                    help="CRSD row-segment size (default 128)")
    sp.add_argument("--rate", type=float, default=4e5,
                    help="mean arrival rate, requests per simulated "
                         "second (default 4e5)")
    sp.add_argument("--pattern", choices=["poisson", "burst"],
                    default="poisson",
                    help="arrival process (default poisson)")
    sp.add_argument("--burst-size", type=int, default=8,
                    help="arrivals per burst under --pattern burst "
                         "(default 8)")
    sp.add_argument("--tenants", type=int, default=1,
                    help="value-variant tenants per suite matrix "
                         "(default 1)")
    sp.add_argument("--fail-device", type=int, default=None, metavar="D",
                    help="with --devices: lose device D mid-run "
                         "(rebalance + re-serve, zero wrong answers)")
    sp.add_argument("--fail-at-us", type=float, default=500.0,
                    help="simulated loss instant for --fail-device, "
                         "microseconds (default 500)")
    sp.add_argument("-o", "--output", metavar="FILE",
                    help="write the JSON report here instead of stdout")
    sp.add_argument("--trajectory", metavar="FILE", default=None,
                    help="append the report to this BENCH_serve.json "
                         "(default: $REPRO_SERVE_TRAJECTORY; with "
                         "--devices: BENCH_cluster.json / "
                         "$REPRO_CLUSTER_TRAJECTORY)")
    sp.set_defaults(fn=cmd_loadgen)

    sp = sub.add_parser(
        "cluster", help="multi-device cluster utilities"
    )
    cluster_sub = sp.add_subparsers(dest="cluster_command", required=True)
    sp = cluster_sub.add_parser(
        "status", help="placement/load tables after a seeded warmup"
    )
    sp.add_argument("--devices", type=int, default=4, metavar="N",
                    help="cluster size (default 4)")
    sp.add_argument("--seed", type=int, default=0,
                    help="warmup trace seed (default 0)")
    sp.add_argument("--requests", type=int, default=64,
                    help="warmup requests (default 64)")
    sp.add_argument("--matrices", default=None,
                    help="comma-separated suite names (default: the "
                         "8-matrix representative subset)")
    sp.add_argument("--tenants", type=int, default=1,
                    help="value-variant tenants per matrix (default 1)")
    sp.add_argument("--scale", type=float, default=0.02,
                    help="suite generation scale (default 0.02)")
    sp.add_argument("--mrows", type=int, default=128,
                    help="CRSD row-segment size (default 128)")
    sp.add_argument("--precision", choices=["double", "single"],
                    default="double")
    sp.add_argument("--split-rows", type=int, default=None, metavar="ROWS",
                    help="split matrices of at least ROWS rows across "
                         "devices on a certified shard plan")
    sp.add_argument("--replicas", type=int, default=1, metavar="R",
                    help="replicated placement factor (default 1)")
    sp.add_argument("--fail-device", type=int, default=None, metavar="D",
                    help="lose device D during the warmup trace")
    sp.add_argument("--fail-at-us", type=float, default=500.0,
                    help="simulated loss instant for --fail-device, "
                         "microseconds (default 500)")
    sp.add_argument("--rejoin-at-us", type=float, default=None,
                    help="with --fail-device: rejoin it at this instant, "
                         "microseconds (default: stays dead)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable tables + cluster stats")
    sp.set_defaults(fn=cmd_cluster)

    sp = cluster_sub.add_parser(
        "chaos", help="multi-fault chaos run, gated on zero wrong answers"
    )
    sp.add_argument("--devices", type=int, default=4, metavar="N",
                    help="cluster size (default 4)")
    sp.add_argument("--replicas", type=int, default=2, metavar="R",
                    help="replicated placement factor (default 2)")
    sp.add_argument("--seed", type=int, default=0,
                    help="trace + schedule seed (default 0)")
    sp.add_argument("--requests", type=int, default=64,
                    help="requests to generate (default 64)")
    sp.add_argument("--matrices", default=None,
                    help="comma-separated suite names (default: the "
                         "8-matrix representative subset)")
    sp.add_argument("--tenants", type=int, default=1,
                    help="value-variant tenants per matrix (default 1)")
    sp.add_argument("--scale", type=float, default=0.02,
                    help="suite generation scale (default 0.02)")
    sp.add_argument("--mrows", type=int, default=128,
                    help="CRSD row-segment size (default 128)")
    sp.add_argument("--precision", choices=["double", "single"],
                    default="double")
    sp.add_argument("--schedule", metavar="FILE", default=None,
                    help="JSON ChaosSchedule to inject (default: the "
                         "seeded kill+straggler+flap schedule)")
    sp.add_argument("--chaos-at-us", type=float, default=300.0,
                    help="anchor instant for the default schedule, "
                         "microseconds (default 300)")
    sp.add_argument("-o", "--output", metavar="FILE",
                    help="write the JSON report here instead of stdout")
    sp.add_argument("--trajectory", metavar="FILE", default=None,
                    help="append the report to this BENCH_chaos.json "
                         "(default: $REPRO_CHAOS_TRAJECTORY)")
    sp.set_defaults(fn=cmd_cluster_chaos)
    return p


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
