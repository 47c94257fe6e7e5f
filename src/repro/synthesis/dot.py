"""Graphviz (DOT) export of system specifications.

Draws the elastic control layer in the style of Fig. 9(b): EB
controllers as boxes, joins/early joins/forks as bars, variable-latency
controllers with their go/done/ack annotation, solid arcs for the
positive sub-channels and (on request) dashed red arcs for the negative
counterflow of channels that carry anti-tokens.
"""

from __future__ import annotations

from repro.synthesis.spec import SystemSpec


def _endpoint_node(spec: SystemSpec, endpoint) -> str:
    kind, name, _port = endpoint
    return name


def spec_to_dot(spec: SystemSpec, show_counterflow: bool = True) -> str:
    """Render the spec's control structure as a DOT digraph."""
    lines = [f'digraph "{spec.name}" {{', "  rankdir=LR;"]
    for s in spec.sources.values():
        lines.append(f'  "{s.name}" [shape=cds, label="{s.name} (src)"];')
    for s in spec.sinks.values():
        lines.append(f'  "{s.name}" [shape=cds, label="{s.name} (sink)"];')
    for r in spec.registers.values():
        tokens = "●" * r.initial_tokens
        lines.append(
            f'  "{r.name}" [shape=box, label="EB {r.name} {tokens}"];'
        )
    for b in spec.blocks.values():
        if b.latency is not None:
            label = f"VL {b.name}\\n(go/done/ack)"
            shape = "component"
        elif b.is_early:
            label = f"EJ {b.name}"
            shape = "invtrapezium"
        elif b.n_inputs > 1:
            label = f"J {b.name}"
            shape = "invtrapezium"
        elif b.n_outputs > 1:
            label = f"F {b.name}"
            shape = "trapezium"
        else:
            label = b.name
            shape = "ellipse"
        lines.append(f'  "{b.name}" [shape={shape}, label="{label}"];')
    for conn in spec.connections:
        src = _endpoint_node(spec, conn.src)
        dst = _endpoint_node(spec, conn.dst)
        style = "bold" if conn.passive else "solid"
        lines.append(
            f'  "{src}" -> "{dst}" [label="{conn.name}", style={style}];'
        )
        if show_counterflow and not conn.passive:
            lines.append(
                f'  "{dst}" -> "{src}" [style=dashed, color=red, '
                f"arrowsize=0.5, constraint=false];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
