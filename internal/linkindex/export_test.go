package linkindex

import "io"

// ReadSnapshot is readSnapshot, for the external tests' in-memory round
// trips.
var ReadSnapshot = readSnapshot

// WriteSnapshot writes the snapshot SnapshotTo would write to w.
func (ix *ShardedIndex) WriteSnapshot(w io.Writer) error {
	return ix.buildSnapshot().encode(w)
}
