"""Fixtures shared across test modules."""

import contextlib
import io
from types import SimpleNamespace

import pytest


@pytest.fixture(scope="session")
def report_run(tmp_path_factory):
    """One ``report --scale 0.01`` to an unwritable path, with ``run_cell``
    spied on. The report runs the 83-cell ``claims`` grid once, so its
    cells are also every paper artifact's input.

    Returns ``dest``, the exit code ``rc``, the captured ``err``, ``keys``
    (the config key of every ``run_cell`` call, in order) and ``results``
    (the :class:`CellResult` of each key).
    """
    import repro.experiments.parallel as parallel
    from repro.cli import main
    from repro.experiments.cache import config_cache_key

    dest = str(tmp_path_factory.mktemp("report") / "no" / "such" / "E.md")
    keys, results = [], {}
    real_run_cell = parallel.run_cell

    def spy(cfg, *args, **kwargs):
        key = config_cache_key(cfg)
        keys.append(key)
        results[key] = real_run_cell(cfg, *args, **kwargs)
        return results[key]

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(parallel, "run_cell", spy)
        rc = main(["report", "--scale", "0.01", "--quiet", "--out", dest])
    return SimpleNamespace(dest=dest, rc=rc, err=err.getvalue(), keys=keys,
                           results=results)
