package obs

// PersistKind labels one persistence-plane counter (the redo log and its
// crash recovery, internal/persist). These are not Recorder cells: the log
// keeps its own atomic ledger (appends outrun any per-thread recorder and
// recovery happens before threads exist). The enum is the metric
// *vocabulary* — the stable names the rhserve.v1 dump and the /metrics text
// page key the log's counters on (docs/METRICS.md).
type PersistKind uint8

const (
	// PersistLogAppend: a commit's write set was appended to the redo log
	// (one per logged commit).
	PersistLogAppend PersistKind = iota
	// PersistLogRecord: one redo record was buffered (one per logged commit,
	// so it equals PersistLogAppend).
	PersistLogRecord
	// PersistFsyncGroup: a group-fsync pass flushed the log — every durable
	// ack waiting at that moment rode this one pass.
	PersistFsyncGroup
	// PersistFsync: the log file was fsynced (one per group pass, so it
	// equals PersistFsyncGroup).
	PersistFsync
	// PersistRecoveryReplayed: a committed sequence number was replayed at
	// boot-time recovery.
	PersistRecoveryReplayed
	// PersistRecoveryDropped: a parsed redo record was discarded at recovery
	// because its sequence lay beyond the last consistent cut.
	PersistRecoveryDropped
	// PersistTornTail: a log file's unparseable tail bytes (short write or
	// checksum mismatch) were detected and discarded at recovery.
	PersistTornTail

	// NumPersistKinds bounds the enum; every valid kind is < NumPersistKinds.
	NumPersistKinds
)

var persistKindNames = [NumPersistKinds]string{
	PersistLogAppend:        "log-append",
	PersistLogRecord:        "log-record",
	PersistFsyncGroup:       "fsync-group",
	PersistFsync:            "fsync",
	PersistRecoveryReplayed: "recovery-replayed",
	PersistRecoveryDropped:  "recovery-dropped",
	PersistTornTail:         "torn-tail",
}

// String returns the stable schema name of the kind (docs/METRICS.md
// documents the enum; downstream tooling keys on these strings).
func (k PersistKind) String() string {
	if k < NumPersistKinds {
		return persistKindNames[k]
	}
	return "invalid"
}

// PersistKindByName returns the PersistKind with the given schema name.
func PersistKindByName(name string) (PersistKind, bool) {
	for k, n := range persistKindNames {
		if n == name {
			return PersistKind(k), true
		}
	}
	return 0, false
}
