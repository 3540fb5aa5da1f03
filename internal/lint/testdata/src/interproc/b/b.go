// Package b is the caller side of the interprocedural golden tests: each
// case below is only decidable with package a's summaries in hand.
package b

import (
	"sync"

	a "lab/internal/telemetry"
)

var mu sync.Mutex

// ForwardOrder holds A and calls into package a, which acquires B: with
// a.InverseOrder this closes a cross-package lock-order cycle.
func ForwardOrder() {
	a.MuA.Lock()
	a.LockB() // want "lock-order cycle"
	a.MuA.Unlock()
}

// LockedRecv calls a blocking helper from another package under a lock.
func LockedRecv(ch chan int) int {
	mu.Lock()
	defer mu.Unlock()
	return a.Recv(ch) // want "a blocking operation under the lock"
}

// StartDrain spawns a goroutine whose join evidence (Queue.Close) lives
// entirely in package a: no finding.
func StartDrain(q *a.Queue) {
	go q.Drain()
}
