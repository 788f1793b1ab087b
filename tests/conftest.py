import contextlib
from unittest import mock

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="session")
def pages_500(tmp_path_factory):
    """The 500-row deterministic fixture corpus (FIXTURES.md §1)."""
    from valere_ocr_ray.sources.synth import synth_pages

    out = str(tmp_path_factory.mktemp("pages") / "sf0.001")
    synth_pages(out, 500)
    return out


def exchange_width(n: int | None):
    """Context manager: every exchange started inside it derives width
    ``n`` (the exchange still clamps it to >= 2); ``None`` leaves the
    derivation alone.  Not a fixture, so a hypothesis test can enter it
    once per example."""
    if n is None:
        return contextlib.nullcontext()
    return mock.patch("valere_ocr_ray.ops.exchange._auto_partitions", return_value=n)
