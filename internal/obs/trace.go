package obs

// Trace is the JSON form of one benchmark point's drained event rings:
// what `rhbench -trace` writes and `rhtrace` replays. One Trace per
// (workload, algorithm, thread-count) point; one ThreadRing per worker.
type Trace struct {
	// Workload/Algo/Threads identify the benchmark point.
	Workload string `json:"workload"`
	Algo     string `json:"algo"`
	Threads  int    `json:"threads"`
	// Rings holds each worker thread's drained ring.
	Rings []ThreadRing `json:"rings"`
}

// ThreadRing is one thread's drained event ring.
type ThreadRing struct {
	// Thread is the worker index within the point.
	Thread int `json:"thread"`
	// Dropped is how many events the fixed-size ring overwrote; the
	// Events below are the *last* RingSize events of the run.
	Dropped uint64 `json:"dropped"`
	// Events are the held events, oldest first.
	Events []EventJSON `json:"events"`
}

// EventJSON is the schema form of one ring event.
type EventJSON struct {
	// T is the logical timestamp: the mem commit ticket at recording time.
	T uint64 `json:"t"`
	// Kind is begin | abort | fallback | commit.
	Kind string `json:"kind"`
	// Cause is the abort taxonomy label (abort events only).
	Cause string `json:"cause,omitempty"`
	// Path is fast | slow | serial (commit events only).
	Path string `json:"path,omitempty"`
	// Retry is the 1-based attempt ordinal (abort events only).
	Retry uint16 `json:"retry,omitempty"`
}

// DrainRing renders one thread's ring for a Trace. A nil or ring-less
// recorder yields an empty ring entry.
func (r *Recorder) DrainRing(thread int) ThreadRing {
	tr := ThreadRing{Thread: thread, Events: []EventJSON{}}
	ring := r.Ring()
	if ring == nil {
		return tr
	}
	tr.Dropped = ring.Dropped()
	for _, e := range ring.Events() {
		ej := EventJSON{T: e.T, Kind: e.Kind.String(), Retry: e.Retry}
		if e.Cause != CauseNone {
			ej.Cause = e.Cause.String()
		}
		if e.Path != PathNone {
			ej.Path = e.Path.String()
		}
		tr.Events = append(tr.Events, ej)
	}
	return tr
}
