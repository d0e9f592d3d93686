"""Layered hypothesis-lattice pipeline framework.

A coordinator owns a whiteboard: a stack of time-aligned, packed hypothesis
lattices organized in a dependency graph. Heterogeneous components run in
their own processes behind managers and exchange line-oriented wire records
with the coordinator over connections, one socket each and one
length-prefixed frame per batch, made through the socket the manager
listens on, its request box; the coordinator is the only party that ever
touches the board. Batch components can be made to look incremental by
delivering their results piecewise in time order.
"""

from . import wire
from .board import (
    Arc,
    GreyNode,
    Layer,
    PackingKey,
    TimeSpan,
    WhiteNode,
    Whiteboard,
    canonical_form,
    filter_slice,
    from_json,
    to_dot,
    to_json,
)
from .chart import (
    Chart,
    Edge,
    Grammar,
    Rule,
    add_derivation,
    chart_from_cells,
    chart_to_lattice,
    island_parse,
    load_grammar,
)
from .coordinator import ComponentBinding, Coordinator, PumpReport
from .grid import (
    GridNode,
    PhonemeMatrix,
    RankedMatrix,
    Thresholds,
    add_grid_node,
    grid_connected,
    grid_to_lattice,
    parse_matrix_file,
    topk_matrices,
)
from .manager import (
    Connection,
    ConnectionParams,
    partition_by_end,
    request_connection,
    run_manager,
)
from .translate import Dictionary, DictionaryEntry, load_dictionary, translate_layer

__all__ = [
    "Arc", "Chart", "ComponentBinding", "Connection", "ConnectionParams",
    "Coordinator", "Dictionary", "DictionaryEntry", "Edge", "Grammar",
    "GreyNode", "GridNode", "Layer", "PackingKey",
    "PhonemeMatrix", "PumpReport", "RankedMatrix", "Rule",
    "Thresholds", "TimeSpan", "WhiteNode", "Whiteboard",
    "add_derivation", "add_grid_node", "canonical_form",
    "chart_from_cells", "chart_to_lattice", "filter_slice", "from_json",
    "grid_connected", "grid_to_lattice", "island_parse", "load_dictionary",
    "load_grammar", "parse_matrix_file", "partition_by_end",
    "request_connection", "run_manager", "to_dot", "to_json",
    "topk_matrices", "translate_layer", "wire",
]
