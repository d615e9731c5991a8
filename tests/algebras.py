"""The algebras the differential tests run on: the catalog entries, and the
six algebras of the benchmark's ``bench/fixtures.py`` at seed 1."""

import functools
import importlib.util
from pathlib import Path

from liegraph.catalog import catalog, lookup


def _load_fixtures():
    path = Path(__file__).resolve().parents[1] / "bench" / "fixtures.py"
    spec = importlib.util.spec_from_file_location("bench_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURES = _load_fixtures()
CATALOG_NAMES = [e.name for e in catalog()]
NAMES = CATALOG_NAMES + sorted(FIXTURES.SPECS)


@functools.lru_cache(maxsize=None)
def algebra(name: str):
    return (FIXTURES.build(name, 1) if name in FIXTURES.SPECS
            else lookup(name).algebra)
