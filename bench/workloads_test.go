package main

import (
	"testing"
	"time"
)

// Two clients share one feed; each stop rule must hand out exactly its
// requests, whichever client takes them.
func TestClosedLoopStopRules(t *testing.T) {
	items := make([]item, 5)
	do := func(_ item, l *clientLog) { l.done(time.Now(), false) }
	cases := []struct {
		rule  stopRule
		limit time.Duration
		want  int
	}{
		{onePass, 0, len(items)},
		// Past its time, a wholeRounds run still completes minRounds
		// rounds and stops at a round boundary.
		{wholeRounds, 0, minRounds * len(items)},
		{untilDeadline, 0, 0},
	}
	for _, c := range cases {
		l := closedLoop(2, feed(items, c.rule, c.limit, do))
		if l.attempted != c.want || len(l.latMs) != c.want {
			t.Errorf("rule %d: %d requests (%d latencies), want %d", c.rule, l.attempted, len(l.latMs), c.want)
		}
	}
	// A time-limited cycle keeps handing out requests until its limit.
	l := closedLoop(2, feed(items, untilDeadline, 20*time.Millisecond, func(_ item, l *clientLog) {
		time.Sleep(time.Millisecond)
		l.done(time.Now(), false)
	}))
	if l.attempted <= len(items) {
		t.Errorf("untilDeadline made %d requests in 20ms, want more than one pass of %d", l.attempted, len(items))
	}
}
