"""Quality gate: every public item in the library carries a docstring.

Walks every ``repro`` module, collects public classes/functions (plus
public methods of public classes) defined in this package, and fails on
the first one without documentation.  Also pins the trace-metric
glossary: every field a trace record can carry must be documented in
``docs/OBSERVABILITY.md``.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro


def _iter_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        if info.name.endswith("__main__"):
            continue  # importing it would execute the CLI
        yield importlib.import_module(info.name)


def _public_items():
    for module in _iter_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", "") != module.__name__:
                continue  # re-export; documented at its home
            yield f"{module.__name__}.{name}", obj
            if inspect.isclass(obj):
                for method_name, method in vars(obj).items():
                    if method_name.startswith("_"):
                        continue
                    if inspect.isfunction(method):
                        yield (f"{module.__name__}.{name}."
                               f"{method_name}"), method


def test_every_module_has_docstring():
    undocumented = [
        module.__name__ for module in _iter_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not undocumented, f"modules without docstrings: {undocumented}"


def test_every_public_item_has_docstring():
    undocumented = sorted(
        qualified for qualified, obj in _public_items()
        if not (inspect.getdoc(obj) or "").strip()
    )
    assert not undocumented, (
        f"{len(undocumented)} public items lack docstrings: "
        f"{undocumented[:20]}"
    )


def test_public_api_importable_from_top_level():
    """The README's imports must work."""
    from repro import CRHConfig, CRHSolver, crh  # noqa: F401
    from repro.data import DatasetBuilder, DatasetSchema  # noqa: F401
    from repro.metrics import error_rate, mnad  # noqa: F401
    from repro.baselines import resolver_by_name  # noqa: F401
    from repro.streaming import icrh  # noqa: F401
    from repro.parallel import parallel_crh  # noqa: F401
    from repro.analysis import detect_copying  # noqa: F401


def test_all_exports_resolve():
    """Every name in each package's __all__ actually exists."""
    for module in _iter_modules():
        exported = getattr(module, "__all__", None)
        if exported is None:
            continue
        missing = [name for name in exported
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ broken: {missing}"


def test_observability_package_is_walked():
    """The docstring gate must cover the tracing subsystem too — guard
    against the walk silently skipping it (e.g. an import error)."""
    walked = {module.__name__ for module in _iter_modules()}
    assert {"repro.observability", "repro.observability.records",
            "repro.observability.tracer",
            "repro.observability.report"} <= walked


def test_resolvers_doc_covers_registry():
    """``docs/RESOLVERS.md`` is the resolver catalogue of record: every
    name ``resolver_by_name`` accepts must appear there in backticks, so
    the support matrix can never silently fall behind the registry."""
    from repro.baselines import available_resolvers

    text = (Path(__file__).resolve().parent.parent
            / "docs" / "RESOLVERS.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"`([^`\n]+)`", text))
    missing = sorted(set(available_resolvers()) - documented)
    assert not missing, (
        f"resolvers absent from docs/RESOLVERS.md: {missing}"
    )


def test_observability_doc_names_every_metric_field():
    """``docs/OBSERVABILITY.md`` is the trace glossary of record: every
    field a record constructor can emit must appear there (in
    backticks, as markdown code)."""
    from repro.observability import METRIC_FIELDS

    text = (Path(__file__).resolve().parent.parent
            / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"`([^`\n]+)`", text))
    missing = sorted(set(METRIC_FIELDS) - documented)
    assert not missing, (
        f"metric fields absent from docs/OBSERVABILITY.md: {missing}"
    )


def test_serving_metrics_use_glossary_names_only():
    """Live metrics and trace records share one vocabulary: every key
    ``TruthService.metrics()`` returns and every instrument name its
    registry creates must be a :data:`METRIC_FIELDS` glossary entry
    (and therefore, by the test above, documented in
    ``docs/OBSERVABILITY.md``)."""
    from repro.data import DatasetSchema, continuous
    from repro.observability import METRIC_FIELDS
    from repro.streaming import Claim, TruthService

    service = TruthService(DatasetSchema.of(continuous("p0")), window=1)
    service.ingest([Claim(0, "p0", "s0", 1.0, 0.0),
                    Claim(0, "p0", "s1", 2.0, 1.0)])
    service.flush()
    service.get_truth([0])
    undocumented = sorted(set(service.metrics()) - set(METRIC_FIELDS))
    assert not undocumented, (
        f"metrics() keys missing from the glossary: {undocumented}"
    )
    names = {instrument.name
             for instrument in service.registry.instruments()}
    undocumented = sorted(names - set(METRIC_FIELDS))
    assert not undocumented, (
        f"registry instruments missing from the glossary: {undocumented}"
    )

