"""The wire codec's byte, flop and copy arithmetic, pinned against a
frozen oracle.

``oracle_sizeof`` / ``oracle_flops_of`` / ``oracle_unwrap`` below are a
verbatim copy of what ``repro.util.serialization`` computed before the
transport serialised once per wire leg.  They are the reference that
``encode``, and the names kept over it, are compared against.  Bytes
drive simulated time, so the arithmetic may not drift: the oracle must
not be "fixed" to follow the module.
"""

import pickle

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.util import serialization as ser
from repro.util.serialization import Payload

SETTINGS = settings(
    deadline=None,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)

# ---------------------------------------------------------------------------
# the oracle (frozen)
# ---------------------------------------------------------------------------

ORACLE_ENVELOPE_BYTES = 256


def _oracle_dumps(value):
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def _oracle_contains_payload(value, depth=4):
    if isinstance(value, Payload):
        return True
    if depth > 0 and isinstance(value, (tuple, list)):
        return any(_oracle_contains_payload(item, depth - 1)
                   for item in value)
    return False


def _oracle_wire_size(value, depth=4):
    if isinstance(value, Payload):
        if value.nbytes is not None:
            return int(value.nbytes)
        return len(_oracle_dumps(value.data))
    if (
        depth > 0
        and isinstance(value, (tuple, list))
        and _oracle_contains_payload(value, depth)
    ):
        return sum(_oracle_wire_size(item, depth - 1) for item in value)
    return len(_oracle_dumps(value))


def oracle_sizeof(value):
    return _oracle_wire_size(value) + ORACLE_ENVELOPE_BYTES


def oracle_flops_of(value, depth=4):
    if isinstance(value, Payload):
        return float(value.flops)
    if depth > 0 and isinstance(value, (tuple, list)):
        return float(sum(oracle_flops_of(item, depth - 1) for item in value))
    return 0.0


def oracle_unwrap(value):
    if isinstance(value, Payload):
        return value.data
    if isinstance(value, tuple):
        return tuple(oracle_unwrap(item) for item in value)
    if isinstance(value, list):
        return [oracle_unwrap(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

leaves = st.one_of(
    st.integers(-2**40, 2**40),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.binary(max_size=48),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=3),
    )


plain_values = st.recursive(leaves, containers, max_leaves=12)


def payloads(data):
    return st.builds(
        Payload,
        data=data,
        nbytes=st.one_of(st.none(), st.integers(0, 10**7)),
        flops=st.sampled_from([0.0, 1.0, 2.5e6]),
        meta=st.dictionaries(st.text(max_size=3), st.integers(0, 9),
                             max_size=2),
    )


#: Payloads anywhere: at the root, beside plain siblings, inside dicts
#: (where neither size nor flops honour them) and inside other Payloads
mixed_values = st.recursive(
    st.one_of(leaves, payloads(plain_values)),
    lambda children: st.one_of(containers(children), payloads(children)),
    max_leaves=12,
)


@st.composite
def buried(draw, inner=mixed_values):
    """``inner`` under 0-6 layers of list/tuple: the arithmetic follows
    tuples and lists four levels down and no further."""
    value = draw(inner)
    for _ in range(draw(st.integers(0, 6))):
        siblings = draw(st.lists(leaves, max_size=2))
        layer = [value, *siblings]
        value = tuple(layer) if draw(st.booleans()) else layer
    return value


@st.composite
def repeated(draw):
    """The *same* object several times in one message: pickle's memo
    writes it once in a plain message, the per-leaf arithmetic beside a
    Payload counts it every time."""
    shared = draw(st.one_of(st.binary(min_size=20, max_size=200),
                            st.lists(st.integers(0, 255), min_size=3,
                                     max_size=30)))
    items = [shared] * draw(st.integers(2, 4))
    if draw(st.booleans()):
        items.append(draw(payloads(leaves)))
    return draw(st.sampled_from([list, tuple]))(items)


values = st.one_of(plain_values, mixed_values, buried(), repeated())


# ---------------------------------------------------------------------------
# properties of the module-level names (every consumer's contract)
# ---------------------------------------------------------------------------


class TestSeamsMatchOracle:
    @SETTINGS
    @given(value=values)
    def test_sizeof(self, value):
        assert ser.sizeof(value) == oracle_sizeof(value)

    @SETTINGS
    @given(value=values)
    def test_flops_of(self, value):
        assert ser.flops_of(value) == oracle_flops_of(value)

    @SETTINGS
    @given(value=values)
    def test_unwrap(self, value):
        assert ser.unwrap(value) == oracle_unwrap(value)

    @SETTINGS
    @given(value=values)
    def test_deep_copy_is_equal_and_detached(self, value):
        copy = ser.deep_copy_via_pickle(value)
        assert copy == value
        if isinstance(value, (list, dict)) and value:
            assert copy is not value

    def test_envelope_constant(self):
        assert ser.ENVELOPE_BYTES == ORACLE_ENVELOPE_BYTES


class TestCodec:
    """``encode``/``decode`` themselves: what the transport calls."""

    @SETTINGS
    @given(value=values)
    def test_wire_bytes_are_the_oracle_s(self, value):
        assert ser.encode(value).nbytes == oracle_sizeof(value)

    @SETTINGS
    @given(value=values)
    def test_decode_returns_an_equal_value(self, value):
        wire = ser.encode(value)
        assert ser.decode(wire) == value
        assert wire.blob == _oracle_dumps(value)

    @SETTINGS
    @given(value=values)
    def test_plain_wire_has_nothing_to_unwrap(self, value):
        """What lets a holder skip ``flops_of`` and ``unwrap``."""
        if not ser.encode(value).nominal:
            assert oracle_flops_of(value) == 0.0
            assert oracle_unwrap(value) == value

    @SETTINGS
    @given(value=mixed_values)
    def test_any_payload_anywhere_marks_the_wire(self, value):
        def holds_payload(v):
            if isinstance(v, Payload):
                return True
            if isinstance(v, dict):
                return any(holds_payload(x) for x in v.values())
            return (isinstance(v, (tuple, list))
                    and any(holds_payload(x) for x in v))

        if holds_payload(value):
            assert ser.encode(value).nominal

    def test_plain_argument_is_never_walked(self, monkeypatch):
        """The 64-KiB echo's argument: sized by the pickle pass alone,
        no Python-level call per element (or at all)."""
        walked = []
        walk = ser._wire_size

        def spy(value, *rest):
            walked.append(value)
            return walk(value, *rest)

        monkeypatch.setattr(ser, "_wire_size", spy)
        argument = ("obj-1", "echo", [[0.5] * 4096, b"x" * 65536])
        wire = ser.encode(argument)
        assert not wire.nominal
        assert wire.nbytes == len(wire.blob) + 256 == oracle_sizeof(argument)
        assert walked == []
        # ... and a Payload does take the structural arm
        ser.encode(("obj-1", "init", [Payload(nbytes=10)]))
        assert walked

    def test_flag_is_exact_and_per_encode(self):
        """The flag comes from the pickle pass: a string that merely
        spells the class is not one, and one encode's Payload does not
        leak into the next encode on the thread."""
        assert ser.encode([Payload(nbytes=1)]).nominal
        assert not ser.encode(["Payload", 1, 2.0]).nominal
        assert not ser.encode([1, 2, 3]).nominal

    def test_subclass_is_a_payload(self):
        value = [BigPayload(data="x", nbytes=10**6, flops=3.0), "sibling"]
        wire = ser.encode(value)
        assert wire.nominal
        assert wire.nbytes == oracle_sizeof(value)
        assert ser.decode(wire) == value

    def test_payload_pickles_as_a_plain_dataclass_would(self):
        """``Payload.__reduce_ex__`` only takes a note: the bytes (hence
        sizes, hence simulated time) are those of the default reduce."""
        payload = Payload(data=[1, 2], nbytes=7, flops=2.0, meta={"k": 1})
        assert payload.__reduce_ex__(5) == object.__reduce_ex__(payload, 5)


class BigPayload(Payload):
    """Module-level so that it pickles."""


class TestPinnedCases:
    """Hand-picked corners of the nominal arithmetic, as plain numbers."""

    def test_plain_value_is_pickle_length_plus_envelope(self):
        value = ("obj-1", "echo", [[1.0] * 64, b"x" * 1024])
        assert ser.sizeof(value) == len(_oracle_dumps(value)) + 256

    def test_nominal_payload_drives_size(self):
        call = ("obj-1", "multiply", [Payload(nbytes=4_000_000, flops=2e9)])
        assert ser.sizeof(call) == (
            len(_oracle_dumps("obj-1")) + len(_oracle_dumps("multiply"))
            + 4_000_000 + 256
        )
        assert ser.flops_of(call) == 2e9

    def test_payload_without_nbytes_is_its_data(self):
        assert ser.sizeof(Payload(data=b"abc")) == (
            len(_oracle_dumps(b"abc")) + 256
        )

    def test_payload_inside_dict_is_not_honoured(self):
        value = [{"m": Payload(nbytes=10**6, flops=5.0)}]
        assert ser.sizeof(value) == len(_oracle_dumps(value)) + 256
        assert ser.flops_of(value) == 0.0
        assert ser.unwrap(value) == value

    def test_payload_deeper_than_four_is_not_honoured(self):
        inner = Payload(data="x", nbytes=10**6, flops=7.0)
        at_four = [[[[inner]]]]
        at_five = [[[[[inner]]]]]
        assert ser.sizeof(at_four) == 10**6 + 256
        assert ser.flops_of(at_four) == 7.0
        assert ser.sizeof(at_five) == len(_oracle_dumps(at_five)) + 256
        assert ser.flops_of(at_five) == 0.0
        # unwrap has no depth limit
        assert ser.unwrap(at_five) == [[[[["x"]]]]]

    def test_memo_sharing_only_without_a_payload(self):
        blob = bytes(range(200))
        plain = [blob, blob]
        assert ser.sizeof(plain) - 256 < 2 * len(blob)
        beside_payload = [blob, blob, Payload(nbytes=1)]
        assert ser.sizeof(beside_payload) == (
            2 * len(_oracle_dumps(blob)) + 1 + 256
        )
