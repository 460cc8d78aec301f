package scand

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTokenBucket(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := newTokenBucket(TenantPolicy{RatePerSec: 2, Burst: 3}, t0)
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(t0); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, wait := b.take(t0)
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("wait = %v, want 500ms (1 token at 2/s)", wait)
	}
	// Refill: 1s later two tokens are back.
	t1 := t0.Add(time.Second)
	if ok, _ := b.take(t1); !ok {
		t.Fatal("refilled token refused")
	}
	if ok, _ := b.take(t1); !ok {
		t.Fatal("second refilled token refused")
	}
	if ok, _ := b.take(t1); ok {
		t.Fatal("third take admitted with only 2 tokens refilled")
	}
	// A clock that goes backwards must not mint tokens.
	bb := newTokenBucket(TenantPolicy{RatePerSec: 1, Burst: 1}, t0)
	bb.take(t0)
	if ok, _ := bb.take(t0.Add(-time.Hour)); ok {
		t.Fatal("backwards clock minted a token")
	}
	// Rate 0 = unlimited.
	ub := newTokenBucket(TenantPolicy{}, t0)
	for i := 0; i < 100; i++ {
		if ok, _ := ub.take(t0); !ok {
			t.Fatal("unlimited bucket refused")
		}
	}
}

func TestFairQueueStrideOrder(t *testing.T) {
	q := newFairQueue()
	for i := 1; i <= 3; i++ {
		q.push("alpha", 1, fmt.Sprintf("a%d", i))
	}
	for i := 1; i <= 6; i++ {
		q.push("beta", 2, fmt.Sprintf("b%d", i))
	}
	// Stride scheduling with weights 1:2, ties broken lexicographically:
	// the dispatch order is a pure function of queue state.
	want := []string{"a1", "b1", "b2", "a2", "b3", "b4", "a3", "b5", "b6"}
	var got []string
	for {
		_, id, ok := q.pop()
		if !ok {
			break
		}
		got = append(got, id)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("pop order = %v, want %v", got, want)
	}
}

func TestFairQueueNoBankedCredit(t *testing.T) {
	q := newFairQueue()
	// alpha is served many times, advancing virtual time.
	for i := 0; i < 8; i++ {
		q.push("alpha", 1, fmt.Sprintf("a%d", i))
	}
	for i := 0; i < 4; i++ {
		q.pop()
	}
	// beta arrives late: it joins at the CURRENT virtual time, so it
	// alternates with alpha instead of draining its backlog first.
	q.push("beta", 1, "b0")
	q.push("beta", 1, "b1")
	var got []string
	for i := 0; i < 4; i++ {
		_, id, _ := q.pop()
		got = append(got, id)
	}
	joined := strings.Join(got, ",")
	if joined != "a4,b0,a5,b1" && joined != "b0,a4,b1,a5" {
		t.Fatalf("late tenant order = %v (banked credit?)", got)
	}
}

func TestFairQueueRemoveAndDepths(t *testing.T) {
	q := newFairQueue()
	q.push("alpha", 1, "a1")
	q.push("alpha", 1, "a2")
	q.push("beta", 1, "b1")
	if !q.remove("alpha", "a1") {
		t.Fatal("remove a1 failed")
	}
	if q.remove("alpha", "a1") {
		t.Fatal("double remove succeeded")
	}
	if q.remove("gamma", "x") {
		t.Fatal("remove from unknown tenant succeeded")
	}
	if q.depth("alpha") != 1 || q.depth("beta") != 1 || q.depth("gamma") != 0 {
		t.Fatalf("depths: alpha=%d beta=%d gamma=%d", q.depth("alpha"), q.depth("beta"), q.depth("gamma"))
	}
	d := q.depths()
	if len(d) != 2 || d["alpha"] != 1 || d["beta"] != 1 {
		t.Fatalf("depths() = %v", d)
	}
}

// TestRetryBackoffDeterministic: the jitter is a pure function of
// (key, streak) — identical across runs, different across keys, so
// clients shed together desynchronize reproducibly.
func TestRetryBackoffDeterministic(t *testing.T) {
	a := retryBackoff("worker-0", 0)
	if b := retryBackoff("worker-0", 0); a != b {
		t.Errorf("same key+attempt gave %v then %v", a, b)
	}
	if a < time.Millisecond || a >= 3*time.Millisecond {
		t.Errorf("attempt-0 backoff %v outside [Base/2, 3*Base/2)", a)
	}
	// Exponential growth: attempt 1's window is [Base, 3*Base).
	if c := retryBackoff("worker-0", 1); c < 2*time.Millisecond || c >= 6*time.Millisecond {
		t.Errorf("attempt-1 backoff %v outside [Base, 3*Base)", c)
	}
	if retryBackoff("worker-0", 0) == retryBackoff("worker-1", 0) &&
		retryBackoff("worker-0", 1) == retryBackoff("worker-1", 1) {
		t.Error("distinct keys produced identical jitter on both attempts")
	}
	// The hints the shed tests see, as computed before the schedule
	// moved into this package: moving it changed no value.
	for _, tc := range []struct {
		key    string
		streak int
		want   time.Duration
	}{
		{"queue:greedy", 0, 1496093},
		{"queue:greedy", 1, 4691406},
		{"rate:rho", 0, 2308593},
		{"rate:rho", 1, 2316406},
	} {
		if got := retryBackoff(tc.key, tc.streak); got != tc.want {
			t.Errorf("retryBackoff(%q, %d) = %d ns, want %d", tc.key, tc.streak, got, tc.want)
		}
	}
}
