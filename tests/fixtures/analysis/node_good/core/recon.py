"""A coordinator that touches its own state and messages the others."""


class Reconciler:
    def __init__(self, nodes, threat_stores, channel):
        self.nodes = nodes
        self.threat_stores = threat_stores
        self.channel = channel
        self._reconciled_view = {node: 0 for node in nodes}

    def prune(self, merged, surviving):
        coordinator = min(merged)
        history = self.nodes[coordinator].state_history
        for ref in history.objects():
            if ref not in surviving:
                history.prune(ref)
        replies = self.channel.multicast(coordinator, "replica-reconciled", surviving)
        for node in merged:
            self._reconciled_view[node] = replies.get(node)

    def due(self, groups):
        due = []
        for group in groups:
            coordinator = min(group)
            if self.threat_stores[coordinator].count_identities():
                due.append(group)
        return due

    def handler_for(self, node_id):
        node = self.nodes[node_id]

        def handle(message):
            return node.state_history.versions_of(message.payload)

        return handle
