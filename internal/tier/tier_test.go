package tier

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ortoa/internal/crashfs"
	"ortoa/internal/kvstore"
)

// TestCloseWaitsForCheckpoint: Close, called while the store is
// checkpointing on its own, returns only once that checkpoint is done,
// and once it has returned nothing in the state directory changes
// however far the log grows — a crash drill's dead store cannot write
// into the directory its replacement is recovering.
func TestCloseWaitsForCheckpoint(t *testing.T) {
	fsys := crashfs.New(nil)
	gate, paused := make(chan struct{}), make(chan struct{}, 1)
	var mu sync.Mutex
	var closed bool
	var changed []string
	fsys.Observe(func(op, name string, n int) {
		if op == "write" && strings.Contains(name, "/snap-") {
			select {
			case paused <- struct{}{}:
			default:
			}
			<-gate
		}
		mu.Lock()
		if closed && op != "write" {
			changed = append(changed, op+" "+name)
		}
		mu.Unlock()
	})
	srv, err := NewServer(ServerConfig{ValueSize: 16, StateDir: "state",
		Durability: kvstore.WALOptions{Policy: kvstore.SyncGroupCommit, FS: fsys}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Store.DetachWAL()
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release() // runs before DetachWAL, which waits for the paused checkpoint

	put := func(mib int) { // journal mib MiB of 4 KiB records
		t.Helper()
		for i := 0; i < mib*256; i++ {
			if err := srv.Store.Put(fmt.Sprintf("k%d", i%64), make([]byte, 4096)); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(2) // past the checkpoint floor
	<-paused
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		t.Fatalf("Close returned (%v) while a checkpoint was writing its snapshot", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	gen := srv.Store.Generation()
	mu.Lock()
	closed = true
	mu.Unlock()
	put(8)
	mu.Lock()
	defer mu.Unlock()
	if len(changed) > 0 || srv.Store.Generation() != gen || gen == 0 {
		t.Errorf("after Close: generation %d → %d, directory changes %v", gen, srv.Store.Generation(), changed)
	}
}
