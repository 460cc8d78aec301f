//go:build unix

package scanjournal

import (
	"os"
	"syscall"
)

// Lock takes an exclusive advisory flock on path, creating it if
// needed, and returns the unlock function. It serializes shardcoord's
// lease transactions on coord.lock: the lock must exclude any
// concurrent process (or in-process goroutine simulating one) from
// reading or rewriting the guarded file mid-update. flock is the
// crash-safe primitive for that: the kernel drops the lock the instant
// the holder dies (kill -9 included), so a crashed worker can never
// wedge the fleet, and each call opens its own file description, so two
// goroutines exclude each other exactly like two processes do.
func Lock(path string) (func(), error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		// Closing the descriptor releases the flock; the explicit unlock
		// just makes the intent visible.
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}
