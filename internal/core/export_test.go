package core

import (
	"rhnorec/internal/mem"
	"rhnorec/internal/tm"
)

// PrefixBudget is the reads budget th's next prefix will attempt.
func PrefixBudget(th tm.Thread) int { return th.(*thread).expectedLen }

// ClockAddr is the address of s's global clock word.
func ClockAddr(s *System) mem.Addr { return s.g.Clock }
