"""The process backend's data plane: coalesced exchanges, staged inputs,
and release of every operating-system resource the pool creates.

Contracts under test:

* **one exchange per collective call** -- every data-plane collective
  sends at most one message to each peer worker, so a 3-layer epoch
  makes a fixed number of exchanges per worker (10 for the 1D ghost
  variant at P=4/W=2, 16 for 2D SUMMA on a 2x2 grid at W=2), on both
  transports;
* **deadlock freedom past two workers** -- W=4 pools, whose workers have
  different peer sets, stay bit-equal to the virtual runtime;
* **staged inputs** -- command arrays travel through the driver's
  staging segment, so the queued ``fit`` message stays small, and the
  workers use private copies (in-place edits between fits behave as on
  the virtual runtime);
* **release** -- no segment outlives ``close()``, ``terminate()``, a
  failed spawn or a recovered fit, and the resource tracker reports no
  leaked semaphore at driver exit.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.dist import make_algorithm
from repro.graph import make_synthetic
from repro.parallel import ParallelRuntime, ledger_digest
from repro.parallel import backend as backend_mod

HIDDEN = 8
GHOST = {"variant": "ghost", "partition": "multilevel"}
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def ds():
    return make_synthetic(n=60, avg_degree=4, f=8, n_classes=3, seed=11)


def shm_entries() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def per_worker_exchanges(algo) -> list:
    return [d["exchanges"] for d in algo.rt.backend_stats()["per_worker"]]


def virtual_run(ds, name, p, kw, epochs=3):
    algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0, **kw)
    hist = algo.fit(ds.features, ds.labels, epochs=epochs)
    return hist.losses, ledger_digest(algo.rt.tracker)


# --------------------------------------------------------------------- #
# exchange-count contract
# --------------------------------------------------------------------- #
class TestExchangeCount:
    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    @pytest.mark.parametrize("name,kw,per_epoch", [
        # 6 gather_rows (3 layers x forward/backward) + 4 contribution
        # exchanges (loss terms, weight gradients)
        ("1d", GHOST, 10),
        ("2d", {}, 16),
    ], ids=["1d-ghost", "2d"])
    def test_exchanges_per_worker_per_epoch(self, ds, transport, name, kw,
                                            per_epoch):
        algo = make_algorithm(name, 4, ds, hidden=HIDDEN, layers=3, seed=0,
                              backend="process", workers=2,
                              transport=transport, **kw)
        try:
            before = per_worker_exchanges(algo)
            algo.fit(ds.features, ds.labels, epochs=1)
            one = per_worker_exchanges(algo)
            algo.fit(ds.features, ds.labels, epochs=2)
            three = per_worker_exchanges(algo)
        finally:
            algo.rt.close()
        assert [b - a for a, b in zip(before, one)] == [per_epoch] * 2
        assert [c - b for b, c in zip(one, three)] == [2 * per_epoch] * 2

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    @pytest.mark.parametrize("name,p,kw", [
        ("1d", 8, GHOST),
        ("2d", 4, {}),
        ("3d", 8, {}),
    ], ids=["1d-ghost-p8", "2d-p4", "3d-p8"])
    def test_four_workers_bit_equal_to_virtual(self, ds, transport, name, p,
                                               kw):
        ref_losses, ref_digest = virtual_run(ds, name, p, kw)
        algo = make_algorithm(name, p, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=4,
                              transport=transport, **kw)
        try:
            hist = algo.fit(ds.features, ds.labels, epochs=3)
            digest = ledger_digest(algo.rt.tracker)
        finally:
            algo.rt.close()
        assert hist.losses == ref_losses
        assert digest == ref_digest


# --------------------------------------------------------------------- #
# staged command inputs
# --------------------------------------------------------------------- #
class TestInputStaging:
    def test_fit_message_is_small_for_large_features(self):
        big = make_synthetic(n=8192, avg_degree=2, f=128, n_classes=3,
                             seed=3)
        assert big.features.nbytes == 8 * 1024 * 1024
        algo = make_algorithm("1d", 2, big, hidden=4, seed=0,
                              backend="process", workers=2)
        staging = algo.rt._backend.staging
        sizes = {}
        stage = staging.stage

        def spy(command):
            staged = stage(command)
            sizes[command[0]] = len(pickle.dumps(staged))
            return staged

        staging.stage = spy
        try:
            algo.fit(big.features, big.labels, epochs=1)
        finally:
            algo.rt.close()
        assert sizes["fit"] < 64 * 1024

    def test_in_place_edits_between_fits_match_virtual(self, ds):
        def run(backend_kw):
            features = ds.features.copy()
            algo = make_algorithm("2d", 4, ds, hidden=HIDDEN, seed=0,
                                  **backend_kw)
            try:
                first = algo.fit(features, ds.labels, epochs=2).losses
                features *= 1.5
                features[:3] = 0.0
                second = algo.fit(features, ds.labels, epochs=2).losses
                labels = (ds.labels + 1) % 3
                mask = np.arange(len(ds.labels)) % 2 == 0
                lp = algo.predict(features[::-1].copy())
                ev = algo.evaluate(labels, mask)
            finally:
                if backend_kw:
                    algo.rt.close()
            return first, second, lp, ev

        v = run({})
        p = run({"backend": "process", "workers": 2})
        assert p[0] == v[0]
        assert p[1] == v[1]
        assert p[1] != p[0]
        np.testing.assert_array_equal(p[2], v[2])
        assert p[3] == v[3]


# --------------------------------------------------------------------- #
# resource release
# --------------------------------------------------------------------- #
class TestRelease:
    @pytest.mark.parametrize("how", ["close", "terminate"])
    def test_staging_released_with_pool(self, ds, how):
        before = shm_entries()
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2)
        backend = algo.rt._backend
        algo.fit(ds.features, ds.labels, epochs=1)
        name = backend.staging.shm.name
        assert name in shm_entries()
        if how == "close":
            algo.rt.close()
        else:
            backend.terminate()
            algo.rt.close()
        assert name not in shm_entries()
        assert shm_entries() - before == set()

    def test_recovered_fit_leaves_no_segment(self, ds, tmp_path):
        before = shm_entries()
        algo = make_algorithm("1d", 4, ds, hidden=HIDDEN, seed=0,
                              backend="process", workers=2,
                              faults="kill:worker=1,epoch=1,attempt=1",
                              max_restarts=2, **GHOST)
        try:
            hist = algo.fit(ds.features, ds.labels, epochs=3,
                            checkpoint_path=str(tmp_path / "ck.npz"),
                            checkpoint_every=1)
            assert algo.rt.backend_stats(workers=False)["restarts"] == 1
        finally:
            algo.rt.close()
        ref_losses, _ = virtual_run(ds, "1d", 4, GHOST)
        assert hist.losses == ref_losses
        assert shm_entries() - before == set()

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_failed_spawn_reaps_workers_and_segments(self, monkeypatch,
                                                     transport):
        real = mp.get_context("spawn")

        def refusing_process(**kw):
            if kw["name"].endswith("-1"):
                raise OSError("spawn refused for worker 1")
            return real.Process(**kw)

        class RefusingContext:
            Process = staticmethod(refusing_process)

            def __getattr__(self, attr):
                return getattr(real, attr)

        monkeypatch.setattr(backend_mod.mp, "get_context",
                            lambda method: RefusingContext())
        before = shm_entries()
        rt = ParallelRuntime.make_1d(4, workers=2, transport=transport)
        with pytest.raises(OSError, match="spawn refused"):
            rt._ensure_started()
        backend = rt._backend
        assert len(backend.procs) == 1
        assert not backend.procs[0].is_alive()
        assert not backend._started
        assert [p for p in mp.active_children()
                if p.name.startswith("repro-rank-worker")] == []
        assert shm_entries() - before == set()

    @pytest.mark.parametrize("transport", ["shm", "tcp"])
    def test_no_tracker_warnings_at_driver_exit(self, tmp_path, transport):
        """Start/close pools repeatedly in a fresh interpreter; the
        resource tracker must report nothing at exit.

        The script widens the one window where the old release order
        lost a semaphore: a semaphore finalizer that runs on a thread
        other than the main thread (a queue feeder thread) sleeps
        between unlinking the semaphore and unregistering it, so
        interpreter shutdown overtakes it every time instead of rarely.
        """
        script = tmp_path / "start_close.py"
        script.write_text(textwrap.dedent(f"""
            import sys
            import threading
            import time
            from multiprocessing import resource_tracker, synchronize

            def slow_cleanup(name):
                synchronize.sem_unlink(name)
                if threading.current_thread() is not threading.main_thread():
                    time.sleep(0.2)
                resource_tracker.unregister(name, "semaphore")

            synchronize.SemLock._cleanup = staticmethod(slow_cleanup)

            from repro.comm.mesh import Mesh1D
            from repro.config import get_profile
            from repro.parallel.backend import ProcessBackend

            if __name__ == "__main__":
                for _ in range(3):
                    b = ProcessBackend(Mesh1D(size=2), get_profile(None), 2,
                                       transport={transport!r})
                    b.start()
                    b.command("stats", None)
                    b.close()
                del b
        """))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
