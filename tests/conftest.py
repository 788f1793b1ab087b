import contextlib
import random
import time
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


def bit_flip_fuzz(good: bytes, decode, error: type, *, n: int = 200) -> int:
    """Run ``decode`` on ``n`` seeded 1-4 bit-flip mutants of ``good``:
    each decodes or raises ``error`` (the codec's format error, which
    the extractor routes to a skip status), never another exception
    type (which routes to error_parse), and no decode takes more than
    1 s.  Returns how many mutants raised."""
    rng = random.Random(1)
    n_raised = 0
    for _ in range(n):
        bad = bytearray(good)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(bad))
            bad[i] ^= 1 << rng.randrange(8)
        t0 = time.perf_counter()
        try:
            decode(bytes(bad))
        except error:
            n_raised += 1
        assert time.perf_counter() - t0 < 1.0
    return n_raised
