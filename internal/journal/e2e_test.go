package journal_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/lockclient"
	"repro/internal/lockd"
)

// TestVerifyMergedClientServer runs a real lockd server and client, each
// journaling to its own directory, then merges the two journals offline
// and proves what the tentpole promises: both sides recorded the same
// grants, joined by shared trace ids, with fencing tokens strictly
// increasing and every grant paired with a release.
func TestVerifyMergedClientServer(t *testing.T) {
	serverDir, clientDir := t.TempDir(), t.TempDir()

	sj, err := journal.Open(journal.Config{Dir: serverDir, FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer sj.Close()
	cj, err := journal.Open(journal.Config{Dir: clientDir, FlushEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()

	srv, err := lockd.Serve("127.0.0.1:0", lockd.Config{Journal: sj})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := lockclient.Dial(srv.Addr(), lockclient.Options{
		Client: "e2e-client", Heartbeat: -1, Journal: cj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		h, err := cli.Acquire(ctx, "orders")
		if err != nil {
			t.Fatal(err)
		}
		if err := cli.Release(ctx, h); err != nil {
			t.Fatal(err)
		}
	}

	sj.Flush()
	cj.Flush()
	serverEntries, _, err := journal.ReadDir(serverDir)
	if err != nil {
		t.Fatal(err)
	}
	clientEntries, _, err := journal.ReadDir(clientDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(serverEntries) == 0 || len(clientEntries) == 0 {
		t.Fatalf("empty journals: server=%d client=%d", len(serverEntries), len(clientEntries))
	}

	procs := []journal.ProcEntries{
		{Proc: "server", Entries: serverEntries},
		{Proc: "client", Entries: clientEntries},
	}
	rep := journal.Verify(procs)
	if !rep.Ok() {
		t.Fatalf("merged verify violations: %v", rep.Violations)
	}
	// Every round shows up three times: the client's view, the server's
	// lockd-level grant, and the served native mutex's own sink.
	if rep.Grants != 3*rounds || rep.Releases != 3*rounds {
		t.Fatalf("grants=%d releases=%d, want %d each", rep.Grants, rep.Releases, 3*rounds)
	}
	// ...and each acquisition's trace id appears in both journals.
	if rep.SharedTraces != rounds {
		t.Fatalf("shared traces = %d, want %d", rep.SharedTraces, rounds)
	}
	if len(rep.OpenHolds) != 0 {
		t.Fatalf("open holds after clean shutdown: %v", rep.OpenHolds)
	}

	// The merged timeline replays into an empty wait-for graph at the
	// end — nothing held, nothing waiting.
	merged := journal.Merge(procs)
	snap := journal.GraphAt(merged, merged[len(merged)-1].AtNs)
	if len(snap.Holders) != 0 || len(snap.Waits) != 0 {
		t.Fatalf("graph at end not empty: %+v", snap)
	}

	// The native mutex under the served lock journaled too (the server
	// attaches a sink under "native/<name>").
	sawNative := false
	for _, e := range serverEntries {
		if e.LockName == "native/orders" && e.Origin == journal.OriginNative {
			sawNative = true
			break
		}
	}
	if !sawNative {
		t.Fatal("no native-origin records for native/orders in the server journal")
	}
}
