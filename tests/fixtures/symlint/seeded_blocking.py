"""Fixture: blocking calls inside message handlers.

Never imported — parsed only by the symlint tests.
"""

import time


class SlowAgent:
    def __init__(self, endpoint, peer):
        self.endpoint = endpoint
        self.peer = peer
        endpoint.register("THROTTLE", self._h_throttle)

    def _h_throttle(self, msg):
        time.sleep(0.5)  # <<SLEEP>>
        return "done"

    def _h_relay(self, msg):
        return self.endpoint.rpc(self.peer, "RELAY", msg.payload)  # <<RPC>>

    def _h_forward(self, msg):
        return self.forward(*msg.payload)

    def forward(self, peer, value):
        # one hop from the registered handler: still its request process
        return self.endpoint.rpc(peer, "FORWARD", value)  # <<RPC_VIA_SELF>>
