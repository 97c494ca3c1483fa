package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Spans are recorded by the benchmark around its calls into each layer,
// kept in memory, and written when the traced trial ends. End-to-end
// metrics never come from a traced trial.

type span struct {
	parent     int32 // index of the causing span, -1 for a root
	name       uint8
	start, end int64 // ns since the tracer's epoch
	op         int64 // spans of one operation share it
}

type tracer struct {
	epoch time.Time
	names []string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// nameID interns a span name; call it outside the measured loop.
func (t *tracer) nameID(name string) uint8 {
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	t.names = append(t.names, name)
	return uint8(len(t.names) - 1)
}

// open starts a span and returns its index; close ends it.
func (t *tracer) open(name uint8, parent int32, op int64) int32 {
	t.spans = append(t.spans, span{parent: parent, name: name, start: t.now(), op: op})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32) { t.spans[id].end = t.now() }

// selfNS sums, over every span called name, its duration minus what its
// children cover.
func (t *tracer) selfNS(name string) (self, total int64) {
	id := t.nameID(name)
	kids := map[int32][]interval{}
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].name == id {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	for i, s := range t.spans {
		if s.name == id {
			self += selfTime(interval{s.start, s.end}, kids[int32(i)])
			total += s.end - s.start
		}
	}
	return self, total
}

func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans\":[", workload)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n{\"id\":%d,\"parent\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"op\":%d}",
			i, s.parent, t.names[s.name], s.start, s.end, s.op)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
