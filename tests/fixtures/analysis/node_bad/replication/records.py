"""Update records read off every node at once."""


def gather(manager):
    return [record for node_id, node in manager.nodes.items() for record in node.records]
