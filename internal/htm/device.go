package htm

import (
	"sync/atomic"

	"rhnorec/internal/mem"
)

// counter is an atomic counter padded out to its own 64-byte cache line, so
// that the per-device statistics below do not false-share: every
// transaction bumps starts and one of commits/aborts, and with unpadded
// adjacent words those RMWs ping the same line between every hardware
// thread on the machine.
type counter struct {
	atomic.Uint64
	_ [56]byte
}

// Device is one simulated processor's transactional-memory facility. All
// hardware transactions over the same mem.Memory must share one Device so
// that capacity scaling and statistics are coherent.
type Device struct {
	m   *mem.Memory
	cfg Config

	// activeThreads is the number of simulated hardware threads currently
	// running; above cfg.Cores, HyperThreading halves capacity.
	activeThreads atomic.Int64

	// live counts the hardware contexts NewTxn handed out and Close has not
	// yet released. A yield point paces only while it is above one: with
	// no live peer there is nothing to interleave with.
	live atomic.Int64

	// seedCounter hands out distinct RNG seeds to transactions.
	seedCounter atomic.Uint64

	// hook, when non-nil, observes every transactional operation (see Hook).
	hook Hook

	_       [48]byte // keep starts off the line holding the fields above
	starts  counter
	commits counter
	aborts  [Spurious + 1]counter
}

// NewDevice creates a transactional device over m. Zero fields of cfg take
// their defaults.
func NewDevice(m *mem.Memory, cfg Config) *Device {
	return &Device{m: m, cfg: cfg.withDefaults()}
}

// Memory returns the memory this device speculates over.
func (d *Device) Memory() *mem.Memory { return d.m }

// Config returns the effective device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetActiveThreads tells the device how many simulated hardware threads are
// running; the benchmark harness calls this before each run. When the count
// exceeds the core count, per-transaction capacities halve.
func (d *Device) SetActiveThreads(n int) { d.activeThreads.Store(int64(n)) }

// ActiveThreads reports the current simulated thread count.
func (d *Device) ActiveThreads() int { return int(d.activeThreads.Load()) }

// hyperThreaded reports whether capacity halving is in effect.
func (d *Device) hyperThreaded() bool {
	return int(d.activeThreads.Load()) > d.cfg.Cores
}

// effectiveCaps returns the current read and write line capacities.
func (d *Device) effectiveCaps() (readCap, writeCap int) {
	readCap, writeCap = d.cfg.ReadCapacityLines, d.cfg.WriteCapacityLines
	if d.hyperThreaded() {
		readCap /= 2
		writeCap /= 2
	}
	return readCap, writeCap
}

// DeviceStats is a snapshot of device-wide counters.
type DeviceStats struct {
	Starts         uint64
	Commits        uint64
	ConflictAborts uint64
	CapacityAborts uint64
	ExplicitAborts uint64
	SpuriousAborts uint64
}

// Stats returns a snapshot of the device-wide counters.
func (d *Device) Stats() DeviceStats {
	return DeviceStats{
		Starts:         d.starts.Load(),
		Commits:        d.commits.Load(),
		ConflictAborts: d.aborts[Conflict].Load(),
		CapacityAborts: d.aborts[Capacity].Load(),
		ExplicitAborts: d.aborts[Explicit].Load(),
		SpuriousAborts: d.aborts[Spurious].Load(),
	}
}

// NewTxn creates a reusable hardware-transaction context bound to this
// device. A Txn belongs to one thread; each simulated hardware thread
// creates its own, and it counts as live until its Close. The
// per-transaction RNG seed comes from Config.SeedFn when set; the default
// arrival-order counter depends on goroutine scheduling, which is exactly
// what deterministic-replay harnesses cannot tolerate.
func (d *Device) NewTxn() *Txn {
	seed := d.seedCounter.Add(1)
	if fn := d.cfg.SeedFn; fn != nil {
		seed = fn()
	}
	stripes := d.m.StripeCount()
	d.live.Add(1)
	return &Txn{
		d:        d,
		marks:    newMarkSet(stripes),
		owned:    newStripeBits(stripes),
		rngState: seed*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D,
		yieldIn:  yieldPeriod,
	}
}
