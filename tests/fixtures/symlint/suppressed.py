"""Fixture: a seeded blocking sleep silenced by a justified pragma.

Never imported — parsed only by the symlint tests.
"""

import time


class QuietAgent:
    def _h_pause(self, msg):
        # justification: a benchmark-only handler, never on a live kernel
        time.sleep(0.01)  # symlint: disable=blocking-sleep-in-handler
