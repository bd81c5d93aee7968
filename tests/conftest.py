import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (see repo instructions)."""
    import ray

    # deterministic block ordering is part of this engine's contract
    # (layout-sensitive goldens: FFD packing, spill round-trips). Ray's
    # default preserve_order=False may emit blocks out of order under
    # load — it usually doesn't, which hid this until a loaded full-suite
    # run flaked test_spill_dataset_reproduces_blocks.
    ray.data.DataContext.get_current().execution_options.preserve_order = True
    from akf_cdparser_ray.logquiet import (
        silence_empty_block_schema_warnings, worker_runtime_env,
    )

    silence_empty_block_schema_warnings()
    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            runtime_env=worker_runtime_env(),
        )
    yield
    ray.shutdown()
