package core

import (
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// PrefixBudget is the reads budget th's next prefix will attempt.
func PrefixBudget(th tm.Thread) int { return th.(*thread).expectedLen }

// SetPrefixBudget sets the reads budget th's next prefix will attempt, as if
// the adaptation had left it there.
func SetPrefixBudget(th tm.Thread, n int) { th.(*thread).expectedLen = n }

// ClockAddr is the address of s's global clock word.
func ClockAddr(s *System) mem.Addr { return s.g.Clock }
