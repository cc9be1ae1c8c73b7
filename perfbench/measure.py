"""One measured run of one workload (the child process ``run.py`` starts).

Usage: ``python perfbench/measure.py --workload NAME --seed N --seconds S
--trace 0|1``, from the root of a checkout whose ``src/`` holds the
``repro`` package.  Human-readable report lines go to standard output;
the last line is one JSON object that ``run.py`` turns into the
benchmark's result.

Every layer is measured from outside, through public entry points:
timed calls to ``make_distribution`` / ``make_algorithm`` / ``fit``,
``traced_fit(..., profile=True)`` and its ``MergedTrace`` summaries,
``backend_stats()``, ``ledger_digest`` and ``simulate.predict_epoch``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread in this process, as the process backend gives each of
# its workers.  Multithreaded BLAS rounds some products differently, so
# with the default pool the virtual oracle would disagree with the
# workers in the last bit of a loss; it also keeps the virtual workload's
# baseline to one core.  Set before numpy is first imported.
for _var in THREAD_ENV:
    os.environ[_var] = "1"

from workloads import WORKLOADS, make_inputs  # noqa: E402

#: Epochs per timed fit; each timed fit gives one ``epoch_s`` sample.
FIT_EPOCHS = 2
#: Epochs per traced fit (the trace summaries drop epoch 0 as warm-up).
TRACE_EPOCHS = 3
#: Cold constructions per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: ``predict_epoch`` calls per run; ``simulate.predict_s`` is their median.
PREDICT_REPS = 5
#: ``verify_against_serial`` tolerance on the virtual workload.
SERIAL_TOL = 1e-10
SERIAL_EPOCHS = 2
#: Modeled-seconds tolerance of the simulator cross-check; the same
#: relative tolerance the repository's simulator tests hold it to.
SIM_REL_TOL = 1e-9
#: At least this many samples lie above the reported tail percentile.
TAIL_BEYOND = 10

COMM_CATEGORIES = ("dcomm", "scomm", "trpose")


def load_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def host_record(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host_cores": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "steal_s_start": cpu_steal_s(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "workload": workload,
        "seed": seed,
    }


def cpu_steal_s():
    """CPU seconds the hypervisor ran elsewhere while this host's CPUs
    wanted to run (all CPUs, since boot); ``None`` where not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def peak_rss_mb() -> tuple:
    """``(this process, largest reaped child)`` peak RSS in MB (Linux
    reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


def shm_entries() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def tail(samples):
    """The highest percentile with at least ``TAIL_BEYOND`` samples above
    it: ``(value, percentile)``; the maximum when there are too few."""
    s = sorted(samples)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


class Run:
    """One workload's inputs, algorithm construction and fit record."""

    def __init__(self, w, seed: int):
        import numpy as np

        from repro.graph.datasets import Dataset
        from repro.sparse.csr import CSRMatrix

        self.w = w
        self.seed = seed
        indptr, indices, data, n, x, y = make_inputs(w, seed)
        adjacency = CSRMatrix(indptr, indices, data, (n, n))
        self.ds = Dataset(w.name, adjacency, x, y, w.classes,
                          train_mask=np.ones(n, dtype=bool))
        self.x, self.y = x, y
        self.dist = None
        #: epochs of every fit on the measured algorithm, in order, with
        #: the losses and ledger digest it produced (``None``: raised)
        self.fits = []

    def close(self, algo) -> None:
        if self.w.is_process:
            algo.rt.close()

    def cold_start(self):
        """make_distribution -> make_algorithm -> 1-epoch warm-up fit."""
        from repro.dist import make_algorithm, make_distribution

        w = self.w
        t0 = time.perf_counter()
        dist = None
        if w.partition is not None:
            dist = make_distribution(w.partition, self.ds.adjacency, w.p,
                                     seed=self.seed)
        t1 = time.perf_counter()
        algo = make_algorithm(w.algorithm, w.p, self.ds, seed=self.seed,
                              partition=dist, **w.algorithm_kwargs())
        t2 = time.perf_counter()
        try:
            algo.fit(self.x, self.y, 1)
        except BaseException:
            self.close(algo)
            raise
        t3 = time.perf_counter()
        return algo, dist, {"setup_s": t3 - t0, "partition.build_s": t1 - t0,
                            "dist.make_algorithm_s": t2 - t1,
                            "dist.warmup_fit_s": t3 - t2}

    def setup(self):
        """``SETUP_REPS`` cold constructions; keeps the last one.

        Returns the kept algorithm and the breakdown of the construction
        with the median ``setup_s``, so its parts sum to it exactly.
        """
        reps = []
        algo = None
        for _ in range(SETUP_REPS):
            if algo is not None:
                self.close(algo)
                del algo
                gc.collect()
            algo, self.dist, times = self.cold_start()
            reps.append(times)
        self.record_fit(algo, 1, None)
        reps.sort(key=lambda r: r["setup_s"])
        return algo, reps[len(reps) // 2]

    def record_fit(self, algo, epochs: int, hist) -> None:
        """Remember one fit's losses and ledger digest for the oracle.

        ``hist=None`` records the warm-up fit, whose history the
        construction already consumed; only its epochs are replayed.
        """
        from repro.parallel.runtime import ledger_digest

        if hist is None:
            self.fits.append((epochs, None, None))
        else:
            self.fits.append((epochs, list(hist.losses),
                              ledger_digest(algo.rt.tracker)))

    def fit_failed(self, epochs: int, exc: BaseException) -> None:
        print(f"fit {len(self.fits)} failed: {type(exc).__name__}: {exc}")
        self.fits.append((epochs, "failed", None))

    def oracle(self) -> tuple:
        """Replay every recorded fit on an untraced virtual instance of
        the same configuration; ``(checked, mismatched)`` fit counts.

        Replay stops at a fit that raised (already counted as failed),
        because the measured algorithm's state after it is unknown.
        """
        from repro.dist import make_algorithm
        from repro.parallel.runtime import ledger_digest

        w = self.w
        ref = make_algorithm(w.algorithm, w.p, self.ds, seed=self.seed,
                             partition=self.dist, **w.oracle_kwargs())
        checked = bad = 0
        for epochs, losses, digest in self.fits:
            if losses == "failed":
                break
            hist = ref.fit(self.x, self.y, epochs)
            if losses is None:
                continue
            checked += 1
            same_ledger = ledger_digest(ref.rt.tracker) == digest
            if list(hist.losses) != losses or not same_ledger:
                bad += 1
                print(f"oracle mismatch on fit {checked}: losses {losses} "
                      f"vs virtual {list(hist.losses)}, ledger digest "
                      f"{'equal' if same_ledger else 'DIFFERENT'}")
        return checked, bad


def timed_fits(run: Run, algo, seconds: float, epochs: int,
               traced: bool = False):
    """Closed loop of fits for ``seconds``; one sample per fit.

    Returns ``(samples, attempted, failed, extras)``: ``samples`` are
    wall seconds per epoch; ``extras`` holds, per traced fit, the
    ``(history, trace, backend counter delta)`` triple, and for an
    untraced loop the first fit's history.
    """
    from repro.obs.tracing import traced_fit

    samples, extras = [], []
    attempted = failed = 0
    stop = time.perf_counter() + seconds
    while time.perf_counter() < stop:
        attempted += 1
        before = _channel_counters(run, algo) if traced else None
        d0 = _dispatches(run, algo)
        try:
            t0 = time.perf_counter()
            if traced:
                hist, trace = traced_fit(algo, run.x, run.y, epochs,
                                         profile=True)
            else:
                hist = algo.fit(run.x, run.y, epochs)
            dt = time.perf_counter() - t0
        except Exception as exc:  # counted, reported, and ends the loop
            failed += 1
            run.fit_failed(epochs, exc)
            break
        run.record_fit(algo, epochs, hist)
        samples.append(dt / epochs)
        if traced:
            delta = None
            if before is not None:
                delta = {"dispatches": _dispatches(run, algo) - d0}
                after = _channel_counters(run, algo)
                delta.update({k: after[k] - before[k] for k in before})
            extras.append((hist, trace, delta))
        elif not extras:
            extras.append((hist, None, None))
    return samples, attempted, failed, extras


def _dispatches(run: Run, algo) -> int:
    """Dispatches so far (process backend; 0 on the virtual runtime)."""
    if not run.w.is_process:
        return 0
    return algo.rt.backend_stats(workers=False)["dispatches"]


def _channel_counters(run: Run, algo):
    """Worker channel totals; reading them costs one extra dispatch, so
    it happens outside the ``_dispatches`` pair around a fit."""
    if not run.w.is_process:
        return None
    full = algo.rt.backend_stats(workers=True)
    return {"exchanges": full["exchanges"],
            "channel_bytes": full["channel_bytes"]}


# ---------------------------------------------------------------------- #
# per-layer metrics from one traced fit
# ---------------------------------------------------------------------- #
def layer_metrics(w, hist, trace, delta, epochs: int) -> dict:
    """Per-epoch layer metrics of one ``traced_fit(..., profile=True)``.

    Wall times are self times over the counted epochs (epoch 0 dropped,
    as ``MergedTrace`` does) and take the slowest worker; profile
    counters cover all ``epochs`` of the fit.
    """
    from repro.obs.tracing import MergedTrace

    per_worker = []
    for pid, info in sorted(trace.workers.items()):
        spans = [s for s in trace.spans if s.pid == pid]
        sub = MergedTrace(spans, {pid: info})
        counted = sorted({int(s.meta[0]) for s in spans
                          if s.cat == "epoch" and s.meta})[1:]
        n = max(1, len(counted))
        cats = sub.per_worker_breakdown().get(pid, {})
        phases = sub.phase_breakdown()
        windows = [(s.t0, s.t1) for s in spans if s.cat == "epoch"
                   and s.meta and int(s.meta[0]) in counted]
        xchg = MergedTrace(
            [s for s in spans if s.cat == "xchg"
             and any(a <= s.t0 <= b for a, b in windows)]
        ).exchange_summary()
        kernels = (info.get("profile") or {}).get("kernels", {})
        gemm = [kernels.get(k, {}) for k in
                ("gemm.forward", "gemm.hgrad", "gemm.wgrad")]
        spmm = kernels.get("spmm", {})
        per_worker.append({
            "phase": {k: v["seconds"] / n for k, v in phases.items()},
            "cat": {k: v / n for k, v in cats.items()},
            "busy": sum(v for k, v in cats.items()
                        if k not in COMM_CATEGORIES) / n,
            "wait": xchg["wait_s"] / n,
            "serialize": xchg["serialize_s"] / n,
            "copy": xchg["copy_s"] / n,
            "spmm_calls": spmm.get("calls", 0) / epochs,
            "spmm_flops": spmm.get("flops", 0.0),
            "spmm_kernel_s": spmm.get("seconds", 0.0),
            "gemm_s": sum(g.get("seconds", 0.0) for g in gemm) / epochs,
            "gemm_flops": sum(g.get("flops", 0.0) for g in gemm),
            "gemm_total_s": sum(g.get("seconds", 0.0) for g in gemm),
            "fold_s": kernels.get("reduce.fold", {}).get("seconds", 0.0)
            / epochs,
            "rss_mb": (info.get("profile") or {}).get("peak_rss_bytes", 0)
            / 2 ** 20,
        })

    def slowest(fn):
        return max(fn(d) for d in per_worker)

    def rate(flops, seconds):
        f = sum(d[flops] for d in per_worker)
        s = sum(d[seconds] for d in per_worker)
        return f / s / 1e9 if s else 0.0

    busy = [d["busy"] for d in per_worker]
    modeled = hist.epochs[-1].seconds_by_category
    out = {
        "sparse.spmm_s": slowest(lambda d: d["cat"].get("spmm", 0.0)),
        "sparse.spmm_calls": slowest(lambda d: d["spmm_calls"]),
        "sparse.spmm_gflops": rate("spmm_flops", "spmm_kernel_s"),
        "sparse.modeled_spmm_s": modeled.get("spmm", 0.0),
        "nn.gemm_s": slowest(lambda d: d["gemm_s"]),
        "nn.gemm_gflops": rate("gemm_flops", "gemm_total_s"),
        "comm.gather_rows_s": slowest(
            lambda d: d["phase"].get("gather_rows", 0.0)),
        "comm.bcast_s": slowest(lambda d: d["phase"].get("bcast", 0.0)),
        "comm.allreduce_s": slowest(
            lambda d: d["phase"].get("allreduce", 0.0)),
        "comm.fold_s": slowest(lambda d: d["fold_s"]),
        "comm.dcomm_s": slowest(lambda d: d["cat"].get("dcomm", 0.0)),
        "comm.modeled_dcomm_s": modeled.get("dcomm", 0.0),
        "parallel.exchange_wait_s": slowest(lambda d: d["wait"]),
        "parallel.exchange_serialize_s": slowest(lambda d: d["serialize"]),
        "parallel.exchange_copy_s": slowest(lambda d: d["copy"]),
        "parallel.exchanges": 0.0,
        "parallel.channel_bytes": 0.0,
        "parallel.dispatches_per_fit": 0.0,
        "parallel.worker_peak_rss_mb": 0.0,
        "dist.misc_s": slowest(lambda d: d["cat"].get("misc", 0.0)),
        "dist.modeled_misc_s": modeled.get("misc", 0.0),
        "dist.imbalance": max(busy) / statistics.fmean(busy)
        if statistics.fmean(busy) > 0 else 1.0,
    }
    if w.is_process:
        out["parallel.exchanges"] = delta["exchanges"] / epochs
        out["parallel.channel_bytes"] = delta["channel_bytes"] / epochs
        out["parallel.dispatches_per_fit"] = float(delta["dispatches"])
        out["parallel.worker_peak_rss_mb"] = slowest(lambda d: d["rss_mb"])
    return out


def predict(run: Run):
    """``simulate.predict_epoch`` for the workload's configuration:
    ``(point, median wall seconds)`` over ``PREDICT_REPS`` calls."""
    from repro.simulate import predict_epoch

    w = run.w
    widths = run.ds.layer_widths(hidden=w.hidden, layers=w.layers)
    kw = {} if w.variant is None else {"variant": w.variant}
    walls = []
    for _ in range(PREDICT_REPS):
        t0 = time.perf_counter()
        point = predict_epoch(w.algorithm, run.ds.adjacency, w.p,
                              widths=widths, **kw)
        walls.append(time.perf_counter() - t0)
    return point, statistics.median(walls)


def simulator_check(run: Run, epoch) -> bool:
    """``predict_epoch`` must price the executed epoch: bytes exactly,
    seconds to ``SIM_REL_TOL`` (the simulator sums the same charges in
    another order).  Without a partition argument it cannot model a
    partitioned distribution, so the check is reported as skipped on
    such workloads."""
    if run.w.partition is not None:
        print("simulator cross-check: SKIPPED (predict_epoch takes no "
              f"partition; {run.w.name} uses {run.w.partition})")
        return True
    point, _ = predict(run)
    rel = abs(point.seconds - epoch.modeled_seconds) / epoch.modeled_seconds
    ok = point.comm_bytes == epoch.comm_bytes and rel <= SIM_REL_TOL
    print(f"simulator cross-check: {'PASS' if ok else 'FAIL'} "
          f"(predicted {point.comm_bytes} B {point.seconds!r} s, "
          f"executed {epoch.comm_bytes} B {epoch.modeled_seconds!r} s, "
          f"seconds differ by {rel:.2e} relative)")
    return ok


def print_layer_table(metrics: dict) -> None:
    paired = {"sparse.spmm_s": "sparse.modeled_spmm_s",
              "comm.dcomm_s": "comm.modeled_dcomm_s",
              "dist.misc_s": "dist.modeled_misc_s"}
    modeled = set(paired.values())
    print(f"{'layer':<10} {'metric':<22} {'measured':>14} {'modeled':>14}")
    for name in sorted(metrics):
        if name in modeled:
            continue
        layer, metric = name.split(".", 1)
        other = paired.get(name)
        mod = f"{metrics[other]:>14.6g}" if other else f"{'-':>14}"
        print(f"{layer:<10} {metric:<22} {metrics[name]:>14.6g} {mod}")


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_repro()
    w = WORKLOADS[args.workload]
    host = host_record(w.name, args.seed)
    shm_before = shm_entries()

    run = Run(w, args.seed)
    print(f"workload {w.name}: n={run.ds.num_vertices} "
          f"nnz={run.ds.num_edges} f={w.features} hidden={w.hidden} "
          f"classes={w.classes} P={w.p} backend={w.backend} "
          f"transport={w.transport} partition={w.partition}")
    algo, setup = run.setup()
    correct = True
    try:
        if args.trace:
            half = args.seconds / 2
            plain, attempted, failed, _ = timed_fits(run, algo, half,
                                                     TRACE_EPOCHS)
            traced, t_att, t_fail, extras = timed_fits(
                run, algo, half, TRACE_EPOCHS, traced=True)
            attempted += t_att
            failed += t_fail
        else:
            samples, attempted, failed, extras = timed_fits(
                run, algo, args.seconds, FIT_EPOCHS)
    finally:
        run.close(algo)
    own_mb, child_mb = peak_rss_mb()
    del algo
    gc.collect()

    checked, bad = run.oracle() if (w.is_process or args.trace) else (0, 0)
    failed += bad
    print(f"oracle: {checked} fits replayed on the virtual runtime, "
          f"{bad} mismatched (losses + ledger digest, bit-equal)")
    if not w.is_process:
        from repro.dist import make_algorithm

        ref = make_algorithm(w.algorithm, w.p, run.ds, seed=args.seed,
                             partition=run.dist, **w.algorithm_kwargs())
        diff = ref.verify_against_serial(run.x, run.y, SERIAL_EPOCHS)
        ok = diff <= SERIAL_TOL
        correct &= ok
        print(f"verify_against_serial: {diff:.3e} "
              f"({'PASS' if ok else 'FAIL'}, tolerance {SERIAL_TOL:g})")
    if not extras or (args.trace and not plain):
        raise SystemExit("no fit completed")
    epoch = extras[0][0].epochs[-1]
    correct &= simulator_check(run, epoch)

    leaked_shm = len(shm_entries() - shm_before)
    if args.trace:
        per_fit = [layer_metrics(w, h, t, d, TRACE_EPOCHS)
                   for h, t, d in extras]
        metrics = {k: statistics.median(m[k] for m in per_fit)
                   for k in per_fit[0]}
        ghosts = 0
        if run.dist is not None:
            from repro.partition.edgecut import ghost_rows_per_part

            ghosts = int(ghost_rows_per_part(run.ds.adjacency,
                                             run.dist.assignment,
                                             w.p).max())
        _, predict_s = predict(run)
        metrics.update({
            "dist.make_algorithm_s": setup["dist.make_algorithm_s"],
            "dist.warmup_fit_s": setup["dist.warmup_fit_s"],
            "partition.build_s": setup["partition.build_s"],
            "partition.max_ghost_rows": float(ghosts),
            "simulate.predict_s": predict_s,
            "obs.trace_overhead": statistics.median(traced)
            / statistics.median(plain),
        })
        print(f"traced fits: {len(traced)} of {TRACE_EPOCHS} epochs; "
              f"untraced fits: {len(plain)}; medians over traced fits")
        print_layer_table(metrics)
    else:
        med = statistics.median(samples)
        tail_s, pct = tail(samples)
        metrics = {
            "epoch_s": med,
            "epoch_s_tail": tail_s,
            "setup_s": setup["setup_s"],
            "peak_rss_mb": max(own_mb, child_mb),
            "comm_bytes_per_epoch": float(epoch.comm_bytes),
            "max_rank_comm_bytes": float(epoch.max_rank_comm_bytes),
            "modeled_epoch_s": epoch.modeled_seconds,
        }
        q = statistics.quantiles(samples, n=4) if len(samples) > 1 \
            else [med] * 3
        print(f"epoch_s: median {med:.6f} s, quartiles {q[0]:.6f} / "
              f"{q[2]:.6f} s, tail p{pct:.1f} = {tail_s:.6f} s, "
              f"{len(samples)} samples of {FIT_EPOCHS} epochs")
        print(f"setup_s breakdown (median construction of {SETUP_REPS}): "
              + ", ".join(f"{k} {v:.4f}" for k, v in setup.items()))
        print(f"peak RSS: main process {own_mb:.1f} MB, largest worker "
              f"{child_mb:.1f} MB")
    host["loadavg_end"] = os.getloadavg()
    steal0, steal1 = host.pop("steal_s_start"), cpu_steal_s()
    host["steal_s"] = None if None in (steal0, steal1) else steal1 - steal0
    print("host " + json.dumps(host, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "leaked_shm": leaked_shm,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
