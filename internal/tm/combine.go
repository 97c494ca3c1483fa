package tm

import (
	"runtime"

	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
)

// This file is the driver-independent half of flat-combining group commit
// (RetryPolicy.Combine): the enqueue-and-wait loop of a committer that
// joins a lock holder's window, and the plain in-place drain of a holder
// that publishes its group under the clock lock. The write sets on both
// sides are the threads' write logs; what stays with a driver is when its
// reads are still valid at a locked clock and what it read.

// CombineSigBits is the bloom width of the combining ring's read/write
// signatures: fixed at the maximum so group-admission false positives stay
// rare.
const CombineSigBits = mem.MaxSigBits

// OfferGroup offers the attempt's buffered stores (Log.Buffered), validated
// at the even clock value base, to the holder that has the clock word locked
// at base|1, and waits for the verdict. readSig covers everything the
// attempt read. It returns true when the holder's group committed the
// writes; false when the entry could not be placed or was retracted because
// the window closed first (the caller re-examines the clock). A
// claimed-but-rejected entry restarts the attempt.
func (b *ThreadBase) OfferGroup(r *mem.CombineRing, clock mem.Addr, base uint64, readSig *mem.Signature) bool {
	var writeSig mem.Signature
	b.Log.AddSignature(&writeSig, CombineSigBits)
	slot := r.Enqueue(base, b.Log.Buffered(), readSig, &writeSig)
	if slot < 0 {
		runtime.Gosched()
		return false
	}
	for {
		switch r.Poll(slot) {
		case mem.CombineDone:
			r.Release(slot)
			b.St.CombinedCommits++
			b.RecordCombine(obs.FilterCombinedCommit)
			return true
		case mem.CombineRejected:
			r.Release(slot)
			b.St.CombineRejects++
			b.RecordCombine(obs.FilterCombineReject)
			Restart()
		}
		// The clock load both paces the wait (it is a yield point under the
		// deterministic explorer, letting the holder run) and detects a
		// holder that finished without claiming us.
		if b.M.LoadPlain(clock) != base|1 {
			if r.TryCancel(slot) {
				return false
			}
			// A holder claimed the entry between the clock moving and the
			// cancel: its verdict is imminent — keep polling.
		}
		runtime.Gosched()
	}
}

// DrainGroup publishes, in place, every queued commit compatible with the
// holder's window: the group signature starts as the holder's own write
// footprint, and every admitted entry must be read-disjoint from it (see
// mem.CombineRing.Drain for the serial-order argument). The caller holds
// the clock locked at base|1, so the published writes are invisible until
// it releases the clock — software readers value-validate only at even
// clocks. The group goes through the holder's write log, so the holder's
// Seal covers it. Claimed slots accumulate in *mask; the caller resolves
// them done once the clock is released, or rejected if the publish never
// became visible.
func (b *ThreadBase) DrainGroup(r *mem.CombineRing, base uint64, mask *uint32) {
	// Linger one scheduler beat so contending committers can reach their
	// commit, observe the locked clock, and enqueue — the combining batch
	// exists only if the holder gives it a moment to form.
	runtime.Gosched()
	var group mem.Signature
	b.Log.AddSignature(&group, CombineSigBits)
	*mask = 0
	if r.Drain(base, &group, 1<<30, mask, b.Log.Publish) > 0 {
		b.St.CombineDrains++
		b.RecordCombine(obs.FilterCombineDrain)
	}
}
