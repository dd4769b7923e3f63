package cache

// Write-behind: computed results and disk-hit recency touches reach the
// store from the cache's writer goroutine, after the caller's Do has
// returned. Close drains what is queued, a full queue blocks the
// enqueuing caller instead of dropping the write, and a write after
// Close runs on the caller's goroutine.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/store"
)

// TestWriteBehindCloseDrains: with every rename stalled, Do answers its
// misses while their entries are still queued; Close returns once all
// of them are on disk, and a fresh open of the directory serves them.
func TestWriteBehindCloseDrains(t *testing.T) {
	rules, err := fault.ParseRules("rename:every=1:delay@50ms")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, _, err := store.OpenFS(dir, 0, fault.NewInjector(fault.OS, rules...))
	if err != nil {
		t.Fatal(err)
	}
	c := newTier(t, 0, st, BreakerConfig{})
	const n = 8
	for i := 0; i < n; i++ {
		c.Do(tierKey(i), func() engine.Result { return tierResult(float64(i)) })
	}
	// The writer needs 50ms per entry; Do returning first is the point.
	if got := st.Len(); got == n {
		t.Fatalf("all %d entries were on disk when the last Do returned: Do waited for the writes", n)
	}
	c.Close()
	if got := st.Len(); got != n {
		t.Fatalf("after Close: %d entries on disk, want %d", got, n)
	}

	reopened, rep, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != n || rep.Corrupt != 0 || rep.TmpSwept != 0 {
		t.Fatalf("reopen scan: %+v, want %d clean entries", rep, n)
	}
	for i := 0; i < n; i++ {
		res, ok, err := reopened.Get(tierKey(i))
		if !ok || err != nil || res.Cost != float64(i) {
			t.Fatalf("entry %d after reopen: ok=%v err=%v cost=%v", i, ok, err, res.Cost)
		}
	}
}

// TestWriteBehindFullQueueBlocks: more misses than the queue holds,
// from several goroutines, while the writer is stalled on its first
// rename. The queue fills and its senders wait; no write is dropped, so
// after Close every entry is on disk and none failed.
func TestWriteBehindFullQueueBlocks(t *testing.T) {
	in := fault.NewInjector(fault.OS, fault.Rule{Op: fault.OpRename, Nth: 1, Delay: 100 * time.Millisecond})
	st, _, err := store.OpenFS(t.TempDir(), 0, in)
	if err != nil {
		t.Fatal(err)
	}
	const n, workers = writeBehindDepth + 64, 4
	c := newTier(t, n, st, BreakerConfig{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				c.Do(tierKey(i), func() engine.Result { return tierResult(float64(i)) })
			}
		}()
	}
	wg.Wait()
	c.Close()
	if got := st.Len(); got != n {
		t.Fatalf("after Close: %d entries on disk, want all %d", got, n)
	}
	if s := c.Stats(); s.DiskErrors != 0 || s.DiskSkipped != 0 {
		t.Fatalf("writes failed or were skipped: %+v", s)
	}
}

// TestWriteBehindCloseRace: Close lands while several goroutines are
// still computing misses. Writes queued before Close are drained, and
// the ones after it run synchronously, so every entry reaches the disk.
func TestWriteBehindCloseRace(t *testing.T) {
	st := openTier(t, t.TempDir())
	c := newTier(t, 0, st, BreakerConfig{})
	const n, workers = 64, 4
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := w; i < n; i += workers {
				c.Do(tierKey(i), func() engine.Result { return tierResult(float64(i)) })
			}
		}()
	}
	close(start)
	c.Close()
	wg.Wait()
	if got := st.Len(); got != n {
		t.Fatalf("%d entries on disk, want all %d", got, n)
	}
}

// TestWriteBehindTouch: a disk hit reads the entry without touching it;
// its recency refresh is queued to the writer, which has applied it
// once Close returns.
func TestWriteBehindTouch(t *testing.T) {
	dir := t.TempDir()
	seed := openTier(t, dir)
	if err := seed.Put(tierKey(0), tierResult(5)); err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(fault.OS)
	st, _, err := store.OpenFS(dir, 0, in)
	if err != nil {
		t.Fatal(err)
	}
	c := newTier(t, 0, st, BreakerConfig{})
	if _, hit := c.Do(tierKey(0), func() engine.Result { return tierResult(-1) }); !hit {
		t.Fatal("stored entry missed")
	}
	c.Close()
	if got := in.Count(fault.OpChtimes); got != 1 {
		t.Fatalf("chtimes after one disk hit = %d, want 1", got)
	}
}
