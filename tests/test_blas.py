"""The one-BLAS-thread scope around coverkit's linear algebra."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from coverkit import _blas
from coverkit._blas import pinned_libraries, single_threaded

ROOT = Path(__file__).resolve().parent.parent
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class _FakeLibrary:
    """Stands in for one OpenBLAS: records every thread-count change."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get_threads(self):
        return self.threads

    def set_threads(self, threads):
        self.calls.append(threads)
        self.threads = threads


@pytest.fixture
def fake(monkeypatch):
    library = _FakeLibrary(threads=3)
    monkeypatch.setattr(_blas, "_libraries", [library])
    return library


def _real_libraries():
    libraries = _blas._controlled()
    if not libraries:
        pytest.skip("no OpenBLAS library found in this process")
    return libraries


@single_threaded
def _inner(libraries):
    return [library.get_threads() for library in libraries]


@single_threaded
def _outer(libraries):
    return _inner(libraries)


@single_threaded
def _raises():
    raise RuntimeError("inside the scope")


class TestRealLibraries:
    def test_one_thread_inside_and_callers_count_after_return(self):
        libraries = _real_libraries()
        before = [library.get_threads() for library in libraries]
        for library in libraries:
            library.set_threads(2)
        caller = [library.get_threads() for library in libraries]
        try:
            assert _inner(libraries) == [1] * len(libraries)
            assert [library.get_threads() for library in libraries] == caller
        finally:
            for library, threads in zip(libraries, before):
                library.set_threads(threads)

    def test_callers_count_after_raise(self):
        libraries = _real_libraries()
        caller = [library.get_threads() for library in libraries]
        with pytest.raises(RuntimeError, match="inside the scope"):
            _raises()
        assert [library.get_threads() for library in libraries] == caller
        assert _blas._depth == 0

    def test_pinned_names_are_openblas_libraries(self):
        names = pinned_libraries()
        if not names:
            pytest.skip("no OpenBLAS library found in this process")
        assert all("openblas" in name.lower() for name in names)
        assert len(set(names)) == len(names)


class TestScopeLogic:
    def test_nested_call_sets_the_count_once(self, fake):
        assert _outer([fake]) == [1]
        assert fake.calls == [1, 3]
        assert fake.threads == 3 and _blas._depth == 0

    def test_restored_after_raise(self, fake):
        with pytest.raises(RuntimeError):
            _raises()
        assert fake.calls == [1, 3] and _blas._depth == 0

    def test_empty_discovery_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(_blas, "_libraries", [])
        assert _outer([]) == []
        assert pinned_libraries() == []

    def test_concurrent_callers_share_one_switch(self, fake):
        # a lost update of the depth counter would leave the fake at one
        # thread after the last exit, or give a caller three threads inside
        seen = []

        def caller():
            for _ in range(200):
                seen.extend(_outer([fake]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1] * 1600
        assert fake.threads == 3 and _blas._depth == 0
        assert fake.calls[::2] == [1] * (len(fake.calls) // 2)
        assert fake.calls[1::2] == [3] * (len(fake.calls) // 2)


class TestDiscovery:
    def test_other_platforms_find_nothing(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert _blas._discover() == []

    def test_no_openblas_mapped(self, monkeypatch, tmp_path):
        maps = tmp_path / "maps"
        maps.write_text(
            "7f0000000000-7f0000001000 r-xp 00000000 08:01 1 /usr/lib/libm.so.6\n"
            "7f0000002000-7f0000003000 rw-p 00000000 00:00 0\n"
        )
        monkeypatch.setattr(_blas, "_MAPS", str(maps))
        assert _blas._discover() == []

    def test_unreadable_maps_find_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(_blas, "_MAPS", str(tmp_path / "missing"))
        assert _blas._discover() == []


def _simulate(out_dir, threads):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARIABLES}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from coverkit.cli import main; sys.exit(main())",
         "simulate", "--preset", "smoke", "--n", "200", "--n-test", "100",
         "--dims", "200", "--trials", "1", "--out-dir", str(out_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return (out_dir / "trials.csv").read_bytes()


def test_data_bytes_do_not_depend_on_the_thread_setting(tmp_path):
    # at d = n the jackknife+ and cv+ widths of a two-thread OpenBLAS run
    # differ from the one-thread run's in the last digits, unless pinned
    runs = {}
    for threads in (None, "1", "2"):
        out_dir = tmp_path / f"threads-{threads or 'unset'}"
        out_dir.mkdir()
        runs[threads] = _simulate(out_dir, threads)
    assert runs[None] == runs["1"] == runs["2"]
