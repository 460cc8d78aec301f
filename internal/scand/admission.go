// Admission control and multi-tenant fairness.
//
// Two independent mechanisms guard the daemon against overload:
//
//   - A per-tenant token bucket rejects submit bursts beyond the
//     tenant's sustained rate before any work is spent on them. A shed
//     submit carries a Retry-After hint computed from the bucket's
//     actual refill time plus retryBackoff's deterministic jitter, so
//     obedient clients shed together come back at different times and
//     shed tests stay reproducible.
//
//   - A bounded per-tenant FIFO behind stride-based weighted-fair
//     scheduling bounds memory and keeps one Cimy-scale tenant from
//     starving the rest: each pop charges the dequeuing tenant
//     stride/weight virtual time and the scheduler always serves the
//     tenant with the least virtual time, ties broken lexicographically
//     so dispatch order is deterministic.
package scand

import (
	"hash/fnv"
	"sort"
	"strconv"
	"time"
)

// TenantPolicy is one tenant's admission-control envelope. The zero
// value means: no rate limit, DefaultMaxQueue queued jobs, weight 1.
type TenantPolicy struct {
	// RatePerSec is the sustained submit rate; 0 disables rate limiting.
	RatePerSec float64
	// Burst is the bucket depth (instantaneous burst allowance). Values
	// below 1 behave as 1 when rate limiting is on.
	Burst int
	// MaxQueue bounds the tenant's queued (submitted, not yet running)
	// jobs; 0 selects DefaultMaxQueue. A full queue sheds with 429.
	MaxQueue int
	// Weight is the tenant's fair-share weight; 0 behaves as 1. A
	// weight-2 tenant is served twice as often as a weight-1 tenant
	// under contention.
	Weight int
}

// retryBase is the unit of retryBackoff's schedule.
const retryBase = 2 * time.Millisecond

// retryBackoff is the jitter a shed submit's Retry-After hint carries
// after streak consecutive sheds of the same tenant: retryBase<<streak
// scaled by a factor in [0.5, 1.5) drawn from an FNV hash of key and
// streak — never from wall clocks or math/rand, so the hint is a pure
// function of (key, streak) and clients shed together desynchronize
// identically on every run.
func retryBackoff(key string, streak int) time.Duration {
	step := retryBase << uint(streak)
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(strconv.Itoa(streak)))
	// Map the hash onto [0.5, 1.5) in 1/1024 steps.
	frac := h.Sum64() % 1024
	return step/2 + step*time.Duration(frac)/1024
}

// DefaultMaxQueue bounds a tenant's queue when its policy does not.
const DefaultMaxQueue = 256

func (p TenantPolicy) maxQueue() int {
	if p.MaxQueue > 0 {
		return p.MaxQueue
	}
	return DefaultMaxQueue
}

func (p TenantPolicy) weight() float64 {
	if p.Weight > 0 {
		return float64(p.Weight)
	}
	return 1
}

// tokenBucket is a standard refill-on-demand token bucket driven by an
// injected clock (tests pin it for determinism).
type tokenBucket struct {
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(p TenantPolicy, now time.Time) *tokenBucket {
	burst := float64(p.Burst)
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: p.RatePerSec, burst: burst, tokens: burst, last: now}
}

// take consumes one token. When the bucket is empty it reports the time
// until the next token refills — the raw material of the Retry-After
// hint.
func (b *tokenBucket) take(now time.Time) (ok bool, wait time.Duration) {
	if b.rate <= 0 {
		return true, 0
	}
	if now.After(b.last) {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}

// strideUnit is the stride numerator: pass += strideUnit/weight per pop.
const strideUnit = 1 << 16

// fairQueue is a stride scheduler over per-tenant FIFOs. Not safe for
// concurrent use — the Daemon serializes access under its mutex.
type fairQueue struct {
	tenants map[string]*tenantQueue
	// global is the scheduler's virtual time: the pass of the most
	// recently served tenant. A tenant whose queue drained and refilled
	// rejoins at max(own pass, global), so an idle tenant cannot bank
	// service credit and then monopolize the scheduler.
	global float64
}

type tenantQueue struct {
	jobs   []string
	weight float64
	pass   float64
}

func newFairQueue() *fairQueue {
	return &fairQueue{tenants: map[string]*tenantQueue{}}
}

// depth reports a tenant's queued-job count.
func (q *fairQueue) depth(tenant string) int {
	if tq, ok := q.tenants[tenant]; ok {
		return len(tq.jobs)
	}
	return 0
}

// push enqueues a job for a tenant.
func (q *fairQueue) push(tenant string, weight float64, jobID string) {
	tq, ok := q.tenants[tenant]
	if !ok {
		tq = &tenantQueue{weight: weight}
		q.tenants[tenant] = tq
	}
	tq.weight = weight
	if len(tq.jobs) == 0 && tq.pass < q.global {
		tq.pass = q.global
	}
	tq.jobs = append(tq.jobs, jobID)
}

// pop dequeues the next job under weighted fairness: the non-empty
// tenant with the minimum pass is served, ties broken by tenant name so
// dispatch order is a pure function of queue state.
func (q *fairQueue) pop() (tenant, jobID string, ok bool) {
	var names []string
	for name, tq := range q.tenants {
		if len(tq.jobs) > 0 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return "", "", false
	}
	sort.Strings(names)
	best := names[0]
	for _, name := range names[1:] {
		if q.tenants[name].pass < q.tenants[best].pass {
			best = name
		}
	}
	tq := q.tenants[best]
	jobID = tq.jobs[0]
	tq.jobs = tq.jobs[1:]
	q.global = tq.pass
	tq.pass += strideUnit / tq.weight
	return best, jobID, true
}

// remove deletes a specific queued job (cancellation before dispatch).
func (q *fairQueue) remove(tenant, jobID string) bool {
	tq, ok := q.tenants[tenant]
	if !ok {
		return false
	}
	for i, id := range tq.jobs {
		if id == jobID {
			tq.jobs = append(tq.jobs[:i], tq.jobs[i+1:]...)
			return true
		}
	}
	return false
}

// depths snapshots every tenant's queue depth (the queue_depth_now
// gauge source).
func (q *fairQueue) depths() map[string]int {
	out := make(map[string]int, len(q.tenants))
	for name, tq := range q.tenants {
		if len(tq.jobs) > 0 {
			out[name] = len(tq.jobs)
		}
	}
	return out
}
