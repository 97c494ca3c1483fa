package rhtl2

import (
	"testing"

	"rhnorec/internal/htm"
	"rhnorec/internal/mem"
	"rhnorec/internal/obs"
	"rhnorec/internal/tm"
)

// TestExplicitAbortCauses forces each of RH-TL2's four explicit aborts on
// one thread by planting the protocol word it trips on, and asserts the
// abort lands in its own cell of the obs taxonomy (the payloads are the
// canonical htm.Arg* codes, so htm.(*Abort).Cause classifies them).
func TestExplicitAbortCauses(t *testing.T) {
	const retries = 3
	cases := []struct {
		name string
		// plant arms the abort before the transaction runs; inTxn arms it
		// from inside the first execution of the callback.
		plant  func(s *System, a mem.Addr)
		inTxn  func(s *System, a mem.Addr)
		policy tm.RetryPolicy
		want   obs.Cause
		count  uint64
	}{
		{
			name:   "htm lock held at fast begin",
			plant:  func(s *System, _ mem.Addr) { s.Memory().StorePlain(s.gHTMLock, 1) },
			policy: tm.RetryPolicy{MaxHTMRetries: retries},
			want:   obs.CauseHTMLockTaken, count: retries,
		},
		{
			name:   "serial lock held at fast commit",
			plant:  func(s *System, _ mem.Addr) { s.Memory().StorePlain(s.serialLock, 1) },
			policy: tm.RetryPolicy{MaxHTMRetries: retries},
			want:   obs.CauseSerialTaken, count: retries,
		},
		{
			name:   "write stripe locked at fast commit",
			plant:  func(s *System, a mem.Addr) { s.Memory().StorePlain(s.stripeOf(a), 99<<1|1) },
			policy: tm.RetryPolicy{MaxHTMRetries: retries},
			want:   obs.CauseStripeConflict, count: retries,
		},
		{
			name: "read stripe newer than rv at the slow path's hardware commit",
			inTxn: func(s *System, a mem.Addr) {
				// What a concurrent writer commit to a's stripe leaves behind.
				wv := s.Memory().LoadPlain(s.gv) + 2
				s.Memory().StorePlain(s.stripeOf(a), wv)
				s.Memory().StorePlain(s.gv, wv)
			},
			policy: tm.RetryPolicy{DisableFast: true},
			want:   obs.CauseStripeConflict, count: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := mem.New(1 << 16)
			dev := htm.NewDevice(m, htm.Config{})
			dev.SetActiveThreads(1)
			s := New(m, dev, tc.policy)
			th := s.NewThread()
			defer th.Close()
			var a, b mem.Addr
			if err := th.Run(func(tx tm.Tx) error {
				a, b = tx.Alloc(mem.LineWords), tx.Alloc(mem.LineWords)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder(obs.Config{})
			th.Stats().Obs = rec
			if tc.plant != nil {
				tc.plant(s, b)
			}
			calls := 0
			if err := th.Run(func(tx tm.Tx) error {
				calls++
				_ = tx.Load(a)
				if calls == 1 && tc.inTxn != nil {
					tc.inTxn(s, a)
				}
				tx.Store(b, 7)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if got := rec.AbortCount(tc.want); got != tc.count {
				t.Errorf("%v aborts = %d, want %d", tc.want, got, tc.count)
			}
			for c := obs.Cause(1); c < obs.NumCauses; c++ {
				if c != tc.want && c != obs.CauseSTMValidation && rec.AbortCount(c) != 0 {
					t.Errorf("stray %v aborts: %d", c, rec.AbortCount(c))
				}
			}
			if got := th.Stats().HTMExplicitAborts; got != tc.count {
				t.Errorf("HTMExplicitAborts = %d, want %d", got, tc.count)
			}
			if got := m.LoadPlain(b); got != 7 {
				t.Errorf("committed value = %d, want 7", got)
			}
		})
	}
}
