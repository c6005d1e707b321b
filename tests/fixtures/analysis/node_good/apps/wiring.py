"""Outside core/ and replication/: wiring code builds per-node state."""


def wire(nodes, channel):
    for node_id in nodes:
        channel.join(node_id, nodes[node_id].handler)
    return {node_id: node.clock for node_id, node in nodes.items()}
