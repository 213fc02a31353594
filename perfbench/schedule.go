package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// poissonDues returns the due offsets of Poisson arrivals at rate per
// second in [from, from+span): exponential gaps drawn from rng, so the same
// seed always gives the same schedule.
func poissonDues(rng *rand.Rand, rate float64, from, span time.Duration) []time.Duration {
	var out []time.Duration
	t := float64(from)
	end := float64(from + span)
	for {
		t += rng.ExpFloat64() / rate * float64(time.Second)
		if t >= end {
			return out
		}
		out = append(out, time.Duration(t))
	}
}

// openLoop is the outcome of driving one schedule.
type openLoop struct {
	// late holds, per sent request, how long after it was due the
	// generator sent it while it had nothing else to do: timer and
	// scheduling slack on the generator's side, not server backlog.
	late Samples
	// unsent counts requests abandoned because the backlog exceeded the
	// limit; the server, not the generator, fell behind.
	unsent int
	// backlogged reports that unsent > 0.
	backlogged bool
}

// runOpenLoop sends every scheduled request at its due time (offsets from
// start) from workers goroutines, whatever the replies take. A worker
// that is still busy when a request falls due sends it as soon as it is
// free, so its latency, timed from due, includes the wait. Once a request
// is more than maxBacklog overdue when picked up, the rest of the
// schedule is abandoned and counted as unsent.
func runOpenLoop(start time.Time, dues []time.Duration, workers int, maxBacklog time.Duration, send func(worker, i int, due time.Time)) *openLoop {
	var (
		next    atomic.Int64
		abandon atomic.Bool
		mu      sync.Mutex
		res     = &openLoop{}
		wg      sync.WaitGroup
	)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var late Samples
			for !abandon.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					break
				}
				due := start.Add(dues[i])
				free := time.Now()
				if wait := due.Sub(free); wait > 0 {
					waitUntil(due)
				} else if -wait > maxBacklog {
					abandon.Store(true)
					break
				}
				sent := time.Now()
				late.Add(float64(sent.Sub(laterOf(due, free))))
				send(w, i, due)
			}
			mu.Lock()
			res.late.Merge(&late)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if abandon.Load() {
		res.backlogged = true
		res.unsent = len(dues) - res.late.Len()
	}
	return res
}

// fineWindow is how long before a due time a waiting worker switches
// from the runtime's timers, which can wake a sleeper up to about a
// millisecond late, to a nanosleep system call, which wakes within tens
// of microseconds. The difference would otherwise be charged to the
// request as latency.
const fineWindow = time.Millisecond

// waitUntil returns shortly after t, never before it, without spinning.
func waitUntil(t time.Time) {
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > fineWindow:
			time.Sleep(d - fineWindow)
		default:
			// A signal can cut the sleep short; the loop sleeps again.
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil)
		}
	}
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
