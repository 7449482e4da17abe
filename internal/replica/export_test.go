package replica

import (
	"os"
	"testing"

	"repro/internal/lockd"
)

// TestMain runs every test in the package, the chaos scenarios
// included, with a two-entry compaction chunk (a 16-entry cap), so that
// even short runs fold, cut and, once a peer falls past the cap,
// install snapshots — one mutation per piece, so that every install
// is assembled from several messages.
func TestMain(m *testing.M) {
	compactChunk, snapshotPiece = 2, 1
	os.Exit(m.Run())
}

// SnapshotInstalls counts the leader snapshots n has installed.
func (n *Node) SnapshotInstalls() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.installs
}

// SnapshotIndex is the index of the last entry n has compacted away.
func (n *Node) SnapshotIndex() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.snapIndex
}

// ReplicatedState is the state n would serve if promoted now.
func (n *Node) ReplicatedState() lockd.ReplState {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.liveShadowLocked().snapshot(0)
}
