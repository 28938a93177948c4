"""HealthCheck: SLO rules over live metrics → healthy/degraded/unhealthy.

A :class:`HealthCheck` holds :class:`SLORule` thresholds and evaluates
them against a flat ``{metric_name: value}`` dict — usually
:meth:`repro.streaming.TruthService.metrics` or the flattened view of a
:meth:`~repro.observability.metrics.MetricsRegistry.snapshot`.  Each
rule names one metric and two thresholds (``warn`` and ``fail``); the
worst verdict across all rules is the overall status:

* ``healthy`` — every rule inside its warn threshold;
* ``degraded`` — at least one rule past warn but none past fail;
* ``unhealthy`` — at least one rule past fail.

Rules are direction-aware: ``direction="above"`` trips when the value
exceeds a threshold (staleness, latency), ``direction="below"`` when
it drops under one (weight entropy).  A metric absent from the values
dict is reported as ``healthy`` with ``value=None`` — absence of
telemetry is not an outage signal.

The compact rule syntax (CLI flags, config files) is
``metric{<|>}warn[:fail]``::

    pending_timestamps>64:4096  # degraded past 64 pending, unhealthy past 4096
    weight_entropy<0.5:0.1      # degraded under 0.5 nats, unhealthy under 0.1
    pending_timestamps>8        # warn-only: never worse than degraded

:data:`DEFAULT_SERVING_RULES` covers the serving engine's standing
SLOs: pending-window staleness and convergence stall (weight drift
that stopped shrinking).
"""

from __future__ import annotations

from dataclasses import dataclass

#: verdicts ordered from best to worst; index = severity
STATUSES = ("healthy", "degraded", "unhealthy")


@dataclass(frozen=True)
class SLORule:
    """One service-level objective over one metric.

    ``warn`` breached → ``degraded``; ``fail`` breached → ``unhealthy``
    (``fail=None`` makes the rule warn-only).  ``direction`` is
    ``"above"`` (value must stay at or below the thresholds) or
    ``"below"`` (value must stay at or above them).
    """

    name: str
    metric: str
    warn: float
    fail: float | None = None
    direction: str = "above"

    def __post_init__(self) -> None:
        if self.direction not in ("above", "below"):
            raise ValueError(
                f"direction must be 'above' or 'below', "
                f"got {self.direction!r}"
            )
        if self.fail is not None:
            ordered = (self.warn <= self.fail if self.direction == "above"
                       else self.warn >= self.fail)
            if not ordered:
                raise ValueError(
                    f"rule {self.name!r}: fail threshold {self.fail} "
                    f"must be {'beyond' if self.direction == 'above' else 'below'} "
                    f"warn threshold {self.warn}"
                )

    def verdict(self, value: float | None) -> str:
        """This rule's verdict for one observed ``value``."""
        if value is None:
            return "healthy"
        if self.direction == "above":
            if self.fail is not None and value > self.fail:
                return "unhealthy"
            return "degraded" if value > self.warn else "healthy"
        if self.fail is not None and value < self.fail:
            return "unhealthy"
        return "degraded" if value < self.warn else "healthy"

    def render(self) -> str:
        """The rule in compact ``metric{<|>}warn[:fail]`` syntax."""
        op = ">" if self.direction == "above" else "<"
        tail = "" if self.fail is None else f":{self.fail:g}"
        return f"{self.metric}{op}{self.warn:g}{tail}"


def parse_rule(text: str, name: str | None = None) -> SLORule:
    """Parse the compact ``metric{<|>}warn[:fail]`` rule syntax.

    >>> parse_rule("pending_timestamps>64:4096")
    SLORule(name='pending_timestamps', metric='pending_timestamps',
            warn=64.0, fail=4096.0, direction='above')
    """
    for op, direction in ((">", "above"), ("<", "below")):
        if op in text:
            metric, _, thresholds = text.partition(op)
            metric = metric.strip()
            if not metric:
                break
            warn, _, fail = thresholds.partition(":")
            try:
                return SLORule(
                    name=name or metric,
                    metric=metric,
                    warn=float(warn),
                    fail=float(fail) if fail else None,
                    direction=direction,
                )
            except ValueError as error:
                raise ValueError(
                    f"bad SLO rule {text!r}: {error}"
                ) from error
    raise ValueError(
        f"bad SLO rule {text!r}; expected metric>warn[:fail] or "
        f"metric<warn[:fail]"
    )


#: the serving engine's standing SLOs: staleness, stall
DEFAULT_SERVING_RULES: tuple[SLORule, ...] = (
    SLORule(name="staleness", metric="pending_timestamps",
            warn=64, fail=4_096),
    SLORule(name="convergence_stall", metric="weight_drift",
            warn=0.5, fail=10.0),
)


@dataclass(frozen=True)
class RuleResult:
    """One rule's evaluation: the rule, the observed value, the verdict."""

    rule: SLORule
    value: float | None
    status: str

    def render(self) -> str:
        """One human-readable line
        (``staleness: healthy (pending_timestamps>64:4096, value 12)``)."""
        observed = "absent" if self.value is None else f"{self.value:g}"
        return (f"{self.rule.name}: {self.status} "
                f"({self.rule.render()}, value {observed})")


@dataclass(frozen=True)
class HealthReport:
    """The overall verdict plus every rule's individual result."""

    status: str
    results: tuple[RuleResult, ...]

    @property
    def status_code(self) -> int:
        """The verdict as a number: 0 healthy, 1 degraded, 2 unhealthy
        (the ``health_status`` gauge the exporter emits)."""
        return STATUSES.index(self.status)

    def to_dict(self) -> dict:
        """JSON form: status plus per-rule verdicts (``/healthz`` body)."""
        return {
            "status": self.status,
            "status_code": self.status_code,
            "rules": [
                {"name": r.rule.name, "metric": r.rule.metric,
                 "rule": r.rule.render(), "value": r.value,
                 "status": r.status}
                for r in self.results
            ],
        }

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [f"health: {self.status}"]
        lines += [f"  {result.render()}" for result in self.results]
        return "\n".join(lines)


class HealthCheck:
    """Evaluates SLO rules against a metrics values dict.

    >>> check = HealthCheck()                  # DEFAULT_SERVING_RULES
    >>> report = check.evaluate(service.metrics())
    >>> report.status
    'healthy'

    Custom rules replace the defaults entirely; pass
    ``DEFAULT_SERVING_RULES + (extra,)`` to extend instead.
    """

    def __init__(self, rules: tuple[SLORule, ...] | list | None = None
                 ) -> None:
        self.rules: tuple[SLORule, ...] = tuple(
            rules if rules is not None else DEFAULT_SERVING_RULES
        )

    def evaluate(self, values: dict) -> HealthReport:
        """Evaluate every rule; the worst verdict wins overall."""
        results = []
        worst = 0
        for rule in self.rules:
            raw = values.get(rule.metric)
            value = None if raw is None else float(raw)
            status = rule.verdict(value)
            worst = max(worst, STATUSES.index(status))
            results.append(RuleResult(rule=rule, value=value,
                                      status=status))
        return HealthReport(status=STATUSES[worst],
                            results=tuple(results))
