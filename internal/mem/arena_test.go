//go:build linux && !race

package mem

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"
)

// statusKB reads one "Name: N kB" field of /proc/self/status.
func statusKB(t *testing.T, field string) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb
		}
	}
	t.Fatalf("no %s in /proc/self/status", field)
	return 0
}

const arenaTestWords = 64 << 20 / 8 // a 64 MB arena

// TestNewArenaTouchesNoPages: a new Memory's arena costs the pages stored
// to, not its size. The memories made and dropped first leave the heap with
// free 64 MB spans, which FreeOSMemory returns to the kernel; a heap arena
// reuses one and clears it in full before New returns, which faults in all
// its pages (+65 600 kB on linux/amd64).
func TestNewArenaTouchesNoPages(t *testing.T) {
	for i := 0; i < 3; i++ {
		m := New(arenaTestWords)
		m.StorePlain(Addr(arenaTestWords-1), 1)
	}
	debug.FreeOSMemory()
	before := statusKB(t, "VmRSS")
	m := New(arenaTestWords)
	grew := statusKB(t, "VmRSS") - before
	runtime.KeepAlive(m)
	t.Logf("a new %d MB memory grew VmRSS by %d kB", arenaTestWords*8>>20, grew)
	if grew >= 1024 {
		t.Fatalf("a new %d MB memory grew VmRSS by %d kB, want < 1024", arenaTestWords*8>>20, grew)
	}
}

// cycle is a persister that references its own Memory, so the Memory is a
// member of a cycle: a finalizer on it would never run.
type cycle struct{ m *Memory }

func (*cycle) Append(uint64, []WriteEntry) {}

// TestDroppedArenaIsUnmapped: the arenas of unreachable memories are
// unmapped at the next collection, cycles included. 200 memories of 64 MB
// hold 12.5 GB of address space and one touched page each.
func TestDroppedArenaIsUnmapped(t *testing.T) {
	const n = 200
	start := statusKB(t, "VmSize")
	ms := make([]*Memory, n)
	for i := range ms {
		m := New(arenaTestWords)
		if m.arena == nil {
			t.Fatal("the arena is not mapped")
		}
		m.SetPersister(&cycle{m})
		m.StorePlain(Addr(arenaTestWords/2), uint64(i))
		ms[i] = m
	}
	peak := statusKB(t, "VmSize")
	ms = nil
	runtime.GC()
	end := statusKB(t, "VmSize")
	for deadline := time.Now().Add(10 * time.Second); end-start >= 256<<10 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		end = statusKB(t, "VmSize")
	}
	t.Logf("VmSize %d -> %d -> %d MB", start>>10, peak>>10, end>>10)
	if peak-start < n*arenaTestWords*8>>10 {
		t.Fatalf("VmSize grew by %d MB while %d arenas of 64 MB were live", (peak-start)>>10, n)
	}
	if end-start >= 256<<10 {
		t.Fatalf("VmSize %d MB after the memories were dropped, %d MB above its start", end>>10, (end-start)>>10)
	}
}
