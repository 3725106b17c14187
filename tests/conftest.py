import gc
import time

import pytest


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def free_cpus(ray_session):
    """→ ``wait(pred)``: polls the cluster's free CPUs until ``pred(n)``
    holds or 15 s pass, and returns the last count. ``wait.idle`` is the
    count at the test's start, once the actors of earlier tests' freed
    snapshots have ended."""
    import ray

    def count() -> float:
        return ray.available_resources().get("CPU", 0.0)

    def wait(pred, timeout: float = 15.0) -> float:
        deadline = time.monotonic() + timeout
        while not pred(n := count()) and time.monotonic() < deadline:
            time.sleep(0.05)
        return n

    gc.collect()
    deadline = time.monotonic() + 15
    wait.idle = count()
    while time.monotonic() < deadline:
        time.sleep(0.3)
        n, wait.idle = wait.idle, count()
        if n == wait.idle:
            break
    return wait
