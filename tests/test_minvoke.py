"""Tests for the bulk-RMI extension: ``minvoke``/``MultiHandle``,
per-destination ``INVOKE_BATCH`` grouping, partial-failure semantics,
and per-call ``Moved`` redirects after concurrent migration."""

import pytest

from repro.agents import messages as M
from repro.core import JSCodebase, JSObj, JSRegistration, JSStatic, minvoke
from repro.errors import RemoteInvocationError
from tests.conftest import Counter, Echo, Spinner  # noqa: F401


def load_classes(hosts):
    cb = JSCodebase()
    cb.add(Counter)
    cb.add(Echo)
    cb.add(Spinner)
    cb.load(list(hosts))
    return cb


class TestMultiHandleBasics:
    def test_positional_results_single_message(self, dedicated_testbed):
        """N calls to one remote object travel as one INVOKE_BATCH
        request (plus one reply), and results come back positionally."""
        rt = dedicated_testbed
        stats = rt.transport.stats

        def app():
            reg = JSRegistration()
            load_classes(["rachel"])
            obj = JSObj("Counter", "rachel")
            # Warm the location cache synchronously on purpose.
            # symlint: disable-next-line=sync-invoke-async-opportunity
            obj.sinvoke("incr")
            batches = stats.by_kind.get(M.INVOKE_BATCH, 0)
            m0 = stats.messages
            mh = obj.minvoke("incr", [[1], [2], [3]])
            assert len(mh) == 3
            assert mh.get_results() == [2, 4, 7]
            assert stats.by_kind.get(M.INVOKE_BATCH, 0) == batches + 1
            # One request, one reply: not 3 + 3.
            assert stats.messages - m0 == 2
            assert mh.is_ready()
            reg.unregister()

        rt.run_app(app, node="milena")

    def test_empty_batch(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            load_classes(["rachel"])
            obj = JSObj("Counter", "rachel")
            mh = obj.minvoke("incr", [])
            assert len(mh) == 0
            assert mh.is_ready()
            assert mh.get_results() == []
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_local_batch_sends_no_messages(self, dedicated_testbed):
        rt = dedicated_testbed
        stats = rt.transport.stats

        def app():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            m0 = stats.messages
            assert obj.minvoke("incr", [[5], [6]]).get_results() == [5, 11]
            assert stats.messages == m0
            reg.unregister()

        rt.run_app(app)

    def test_groups_by_destination(self, dedicated_testbed):
        """Six calls to objects on two nodes ship as exactly two
        INVOKE_BATCH messages, one per destination."""
        rt = dedicated_testbed
        stats = rt.transport.stats

        def app():
            reg = JSRegistration()
            load_classes(["johanna", "greta"])
            objs = [
                JSObj("Counter", "johanna"),
                JSObj("Counter", "johanna"),
                JSObj("Counter", "greta"),
            ]
            batches = stats.by_kind.get(M.INVOKE_BATCH, 0)
            mh = minvoke(
                [(o, "incr", [k]) for k, o in enumerate(objs, start=1)]
                + [(o, "get", None) for o in objs]
            )
            assert mh.get_results() == [1, 2, 3, 1, 2, 3]
            assert stats.by_kind.get(M.INVOKE_BATCH, 0) == batches + 2
            reg.unregister()

        rt.run_app(app, node="milena")

    def test_jsstatic_minvoke(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            load_classes(["johanna"])
            seg = JSStatic("Echo", "johanna")
            assert seg.minvoke(
                "echo", [["a"], ["b"]]
            ).get_results() == ["a", "b"]
            reg.unregister()

        dedicated_testbed.run_app(app)


class TestPartialFailure:
    def test_outcomes_keep_failures_in_place(self, dedicated_testbed):
        """One raising call must not fail its batch-mates: outcomes()
        returns the exception positionally, the rest resolve."""
        def app():
            reg = JSRegistration()
            load_classes(["rachel"])
            obj = JSObj("Counter", "rachel")
            mh = minvoke([
                (obj, "incr", [1]),
                (obj, "boom", None),
                (obj, "incr", [10]),
            ])
            outcomes = mh.outcomes()
            assert outcomes[0] == 1
            assert isinstance(outcomes[1], RemoteInvocationError)
            assert "intentional failure" in str(outcomes[1])
            assert isinstance(outcomes[1].cause, ValueError)
            assert outcomes[2] == 11
            # Indexed access mirrors outcomes().
            assert mh.get_result(2) == 11
            with pytest.raises(RemoteInvocationError):
                mh.get_result(1)
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_get_results_raises_on_any_failure(self, dedicated_testbed):
        def app():
            reg = JSRegistration()
            load_classes(["rachel"])
            obj = JSObj("Counter", "rachel")
            mh = obj.minvoke("boom", [None, None])
            with pytest.raises(RemoteInvocationError):
                mh.get_results()
            reg.unregister()

        dedicated_testbed.run_app(app)

    def test_local_batch_raises_raw_exception(self, dedicated_testbed):
        """Local dispatch has no wire to cross; the original exception
        surfaces unwrapped, matching scalar local sinvoke."""
        def app():
            reg = JSRegistration()
            obj = JSObj("Counter", "local")
            outcomes = minvoke([(obj, "boom", None)]).outcomes()
            assert isinstance(outcomes[0], ValueError)
            reg.unregister()

        dedicated_testbed.run_app(app)


class TestBatchRedirects:
    def test_moved_outcomes_resolve_per_call(self, dedicated_testbed):
        """A batch against a doubly-stale location cache gets per-call
        Moved outcomes; each call chases the redirect and resolves, and
        the consumer's cache ends up at the true location."""
        rt = dedicated_testbed
        captured = {}

        def producer():
            reg = JSRegistration()
            load_classes(["johanna", "greta", "ida"])
            obj = JSObj("Counter", "johanna")
            assert obj.sinvoke("incr", [5]) == 5
            captured["ref"] = obj.ref
            captured["reg"] = reg
            captured["obj"] = obj

        rt.run_app(producer)

        def consumer():
            reg = JSRegistration()
            stale = JSObj._from_ref(captured["ref"], reg.app)
            assert stale.sinvoke("get") == 5  # cache now points at johanna
            captured["obj"].migrate("greta")
            captured["obj"].migrate("ida")
            mh = stale.minvoke("incr", [[1], [1], [1]])
            assert mh.get_results() == [6, 7, 8]
            assert stale.get_node() == "ida"
            reg.unregister()

        rt.run_app(consumer, node="rachel")
        # No tidy-up unregister for the producer app (see
        # test_invoke_migrate_race.py): the kernel sweep reclaims it.

    def test_stale_and_fresh_mix_in_one_batch(self, dedicated_testbed):
        """One stale ref must not poison batch-mates headed to a live
        destination on the same node."""
        rt = dedicated_testbed
        captured = {}

        def producer():
            reg = JSRegistration()
            load_classes(["johanna", "greta"])
            moved = JSObj("Counter", "johanna")
            parked = JSObj("Counter", "johanna", args=[100])
            captured["moved_ref"] = moved.ref
            captured["parked_ref"] = parked.ref
            captured["reg"] = reg
            captured["moved"] = moved

        rt.run_app(producer)

        def consumer():
            reg = JSRegistration()
            stale = JSObj._from_ref(captured["moved_ref"], reg.app)
            live = JSObj._from_ref(captured["parked_ref"], reg.app)
            captured["moved"].migrate("greta")
            mh = minvoke([
                (stale, "incr", None),   # Moved -> redirect to greta
                (live, "incr", None),    # still on johanna
            ])
            assert mh.get_results() == [1, 101]
            reg.unregister()

        rt.run_app(consumer, node="rachel")
