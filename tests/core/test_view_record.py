"""One spelling of a view's directory state.

``ViewRecord.to_record`` / ``from_record`` are what the ``register``
WAL record and a snapshot's ``views`` and ``quarantined`` entries are
made of, so every field must survive the trip through the durability
codec — and a snapshot the previous spelling wrote must still load.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.directory import QuarantinedView, ViewRecord
from repro.core.modes import Mode
from repro.core.versioning import VersionVector
from repro.net.binary_codec import decode_value, encode_value
from repro.testing import props_for

from tests.core.durable_rig import CELLS, DurableRig, unpack_fixture

LEGACY_SNAPSHOT = Path(__file__).parents[1] / "net" / "legacy_snapshot.json"

# Everything a record spells; ``lease_expires`` is run-time state that
# recovery renews, never logged.
RECORD_FIELDS = (
    "view_id", "address", "properties", "mode", "triggers", "seen",
    "last_state_seq", "last_served_seq", "synced", "active", "exclusive",
)
STASH_FIELDS = ("reason", "time", "op_context")

names = st.text(min_size=1, max_size=8)
counters = st.integers(0, 2**40)


@st.composite
def view_records(draw):
    rec = ViewRecord(
        draw(names), draw(names),
        props_for(draw(st.sets(st.sampled_from(CELLS), min_size=1))),
        draw(st.sampled_from(Mode)),
        draw(st.dictionaries(st.sampled_from(["pull", "push", "validity"]),
                             st.none() | st.text(max_size=12))),
    )
    rec.seen = VersionVector(draw(st.dictionaries(st.sampled_from(CELLS),
                                                  counters)))
    rec.last_state_seq = draw(counters)
    rec.last_served_seq = draw(st.integers(-1, 2**40))
    rec.synced, rec.active, rec.exclusive = draw(
        st.tuples(st.booleans(), st.booleans(), st.booleans())
    )
    return rec


quarantined_views = st.builds(
    QuarantinedView,
    view_records(),
    st.sampled_from(["round-timeout", "round-fault", "serve-fault",
                     "reclaim-timeout", "lease-expired"]),
    st.floats(0.0, 1e9),
    st.none() | st.fixed_dictionaries({
        "op_kind": st.sampled_from(["acquire", "pull", "init", "reclaim"]),
        "requested_by": st.none() | names,
    }),
)


def _fields(obj, names):
    return {name: getattr(obj, name) for name in names}


@given(view_records())
def test_every_view_record_field_survives_the_durability_codec(rec):
    back = ViewRecord.from_record(decode_value(encode_value(rec.to_record())))
    assert _fields(back, RECORD_FIELDS) == _fields(rec, RECORD_FIELDS)
    # A copy owns its mutable fields.
    copy = ViewRecord.from_record(rec.to_record())
    assert copy.seen is not rec.seen and copy.triggers is not rec.triggers


@settings(max_examples=25, deadline=None)
@given(quarantined_views)
def test_every_quarantined_view_field_survives_a_snapshot(q):
    with tempfile.TemporaryDirectory() as root:
        rig = DurableRig(root, name="q", fsync="off", snapshot_every=0)
        rig.dm.quarantined[q.view_id] = q
        rig.dm.durability.snapshot(rig.dm._durable_state())
        rig.crash_restart()
        back = rig.dm.quarantined[q.view_id]
        rig.close()
    assert _fields(back, RECORD_FIELDS + STASH_FIELDS) == _fields(
        q, RECORD_FIELDS + STASH_FIELDS
    )


def test_parent_snapshot_recovers_to_its_frozen_state(wal_root):
    """A snapshot whose quarantine entries spell six view fields of
    their own (round timeout and lease eviction), with no WAL record
    behind it: recovery decodes the snapshot and nothing else."""
    doc, _ = unpack_fixture(LEGACY_SNAPSHOT, wal_root)
    rig = DurableRig(wal_root, cells={}, lease_duration=200.0,
                     round_timeout=30.0, **doc["spec"])
    assert rig.dm.durability.recovered.records == []
    assert rig.state() == doc["expected"]
    assert rig.dm.quarantined["b"].op_context == {
        "op_kind": "acquire", "requested_by": "a",
    }
    rig.close()
