//go:build !unix

package scanjournal

import "sync"

// Non-unix fallback: a process-local mutex per lock path. This excludes
// goroutines within one process (the in-process worker simulation and
// its tests) but NOT separate processes —
// multi-process exclusivity on non-unix platforms is out of scope for
// this reproduction; the unix build uses a real kernel flock.
var (
	lockTableMu sync.Mutex
	lockTable   = map[string]*sync.Mutex{}
)

// Lock takes the process-local lock for path and returns the unlock
// function.
func Lock(path string) (func(), error) {
	lockTableMu.Lock()
	mu, ok := lockTable[path]
	if !ok {
		mu = &sync.Mutex{}
		lockTable[path] = mu
	}
	lockTableMu.Unlock()
	mu.Lock()
	return mu.Unlock, nil
}
