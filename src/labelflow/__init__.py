"""Labels as directed maps between nested text regions, and the
information flow they carry.

The rule for imports: a process loads only the modules it runs.
Importing the package loads none of its submodules; an exported name
imports its home module, listed in ``_EXPORTS``, the first time it is
read. Likewise each ``labelflow`` command imports only what it runs
(see ``labelflow.cli``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys((
        "AnnotationSet", "Finding", "build_graph", "parse_dataset",
        "serialize_dataset", "validate",
    ), "dataset"),
    **dict.fromkeys((
        "BadNesting", "ContradictoryRules", "DomainGap", "DuplicateDocId",
        "DuplicateLabelName", "EmptyUniverse", "IncompleteRules",
        "InvalidRuleSpec", "LabelFlowError", "MalformedInput",
        "MapNotWellDefined", "SpanOutOfBounds", "UniverseMismatch",
        "UnknownAttribute", "UnknownDocument", "UnknownLabel", "UnknownNode",
    ), "errors"),
    **dict.fromkeys((
        "DependencyReport", "DistanceResult", "InfoReport", "composite_loss",
        "dependency", "dependency_loss", "entropy", "entropy_loss",
        "label_report", "path_distance", "path_report",
        "propagation_probability", "relevancy_score",
    ), "info"),
    **dict.fromkeys((
        "Annotation", "Direction", "Document", "LabelDecl", "LabeledGraph",
        "MapEdge", "Node", "Region", "map_endpoints", "region_contains",
    ), "model"),
    **dict.fromkeys((
        "Partition", "common_domain", "composite_domain",
        "composite_partition", "directed_intersection_count", "fibers",
        "meet",
    ), "partition"),
    **dict.fromkeys((
        "RuleSpec", "generate_universe", "oracle_counts",
        "rulespec_from_json", "universe_layout",
    ), "synth"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        home = _EXPORTS[name]
    except KeyError:
        # also how ``from labelflow import cli`` finds a submodule not
        # yet imported: the import system falls back to importing it
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
