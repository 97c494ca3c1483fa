package tmtest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// BystanderRuns runs body on one P (GOMAXPROCS 1) beside a goroutine that
// counts its own runs and yields after each, and reports how many times that
// bystander ran while body did. body must not block, so every run it lets in
// came from a yield point inside it: 0 means body never yielded.
//
// The result is the smallest count over three runs of body. The OS can
// stall the P's thread long enough for the Go runtime to preempt body, which
// lets the bystander in once without a yield; a body that does yield lets it
// in on every run.
func BystanderRuns(body func()) int {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var runs atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			runs.Add(1)
			runtime.Gosched()
		}
	}()
	for runs.Load() == 0 {
		runtime.Gosched() // the bystander is running and queued behind body
	}
	least := -1
	for i := 0; i < 3; i++ {
		runtime.Gosched() // start body on a fresh time slice
		before := runs.Load()
		body()
		if n := int(runs.Load() - before); least < 0 || n < least {
			least = n
		}
	}
	stop.Store(true)
	wg.Wait()
	return least
}

// CheckClosePacing pins the pacing rule through sys's threads: a Run of 70
// loads lets a bystander in while a second thread is open, not once that
// thread's Close has run twice, and again once a fresh thread opens (a Close
// that is not idempotent leaves the live count one short, and that last Run
// reads 0). A hybrid whose Close keeps its hardware context keeps pacing
// after it and fails the middle step.
func CheckClosePacing(t *testing.T, sys tm.System) {
	t.Helper()
	m := sys.Memory()
	base := m.NewThreadCache().Alloc(16 * mem.LineWords)
	th := sys.NewThread()
	defer th.Close()
	loads := func() {
		if err := th.RunReadOnly(func(tx tm.Tx) error {
			for i := 0; i < 70; i++ {
				tx.Load(base + mem.Addr(i%16*mem.LineWords+i%3))
			}
			return nil
		}); err != nil {
			t.Error(err) // not Fatal: BystanderRuns must get to stop its goroutine
		}
	}
	peer := sys.NewThread()
	if n := BystanderRuns(loads); n < 1 {
		t.Fatalf("%s: with a live peer the bystander ran %d times, want >= 1", sys.Name(), n)
	}
	peer.Close()
	peer.Close()
	if n := BystanderRuns(loads); n != 0 {
		t.Fatalf("%s: after the peer's Close the bystander ran %d times, want 0", sys.Name(), n)
	}
	fresh := sys.NewThread()
	defer fresh.Close()
	if n := BystanderRuns(loads); n < 1 {
		t.Fatalf("%s: with a fresh peer the bystander ran %d times, want >= 1", sys.Name(), n)
	}
}
