"""A coordinator that reaches into the other members' state."""


class Reconciler:
    def __init__(self, nodes, threat_stores, ccmgrs):
        self.nodes = nodes
        self.threat_stores = threat_stores
        self.ccmgrs = ccmgrs

    def prune(self, merged, surviving):
        for node in merged:
            history = self.nodes[node].state_history
            for ref in history.objects():
                if ref not in surviving:
                    history.prune(ref)

    def surviving(self):
        return {ref for store in self.threat_stores.values() for ref in store.refs()}

    def validators(self, merged):
        return [self.ccmgrs[member] for member in sorted(merged)]
