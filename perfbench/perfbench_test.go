package main

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"
)

func TestQuantileIsNearestRank(t *testing.T) {
	var s Samples
	for _, x := range []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} {
		s.Add(x)
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if n, sum := s.TrimmedSum(0.9); n != 9 || sum != 45 {
		t.Errorf("TrimmedSum(0.9) = %d, %v; want 9, 45", n, sum)
	}
	s.Add(0) // adding after a sort re-sorts
	if got := s.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) after Add(0) = %v, want 0", got)
	}
	if got := (&Samples{}).Median(); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
}

func TestTailLevelKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0}, {19, 0}, {20, 0.5}, {100, 0.9}, {999, 0.95}, {1000, 0.99}, {10_000, 0.999}, {100_000, 0.9999}} {
		if got := TailLevel(c.n); got != c.want {
			t.Errorf("TailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPoissonScheduleIsSeeded(t *testing.T) {
	span := 10 * time.Second
	a := poissonDues(rand.New(rand.NewSource(7)), 500, time.Second, span)
	b := poissonDues(rand.New(rand.NewSource(7)), 500, time.Second, span)
	c := poissonDues(rand.New(rand.NewSource(8)), 500, time.Second, span)
	if len(a) != len(b) {
		t.Fatalf("same seed gave %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	if len(a) == len(c) && a[0] == c[0] {
		t.Fatalf("different seeds gave the same schedule")
	}
	// 5000 expected arrivals: the count is within 5 standard deviations.
	if n := float64(len(a)); math.Abs(n-5000) > 5*math.Sqrt(5000) {
		t.Errorf("%v arrivals in 10 s at 500/s", n)
	}
	for i, d := range a {
		if d < time.Second || d >= time.Second+span || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside [1s, 11s)", i, d)
		}
	}
}

func TestSelfTimeSubtractsCoveredAndReplayed(t *testing.T) {
	parent := Span{ID: 1, Start: 0, End: 100}
	children := []Span{
		{Parent: 1, Start: 10, End: 30},
		{Parent: 1, Start: 20, End: 40},  // overlaps the first: 10..40 counts once
		{Parent: 1, Start: 90, End: 120}, // clipped to 90..100
		{Parent: 1, Start: 500, End: 505, Replay: true},
	}
	if got, want := SelfTime(parent, children), time.Duration(100-30-10-5); got != want {
		t.Errorf("SelfTime = %v, want %v", got, want)
	}
	if got := SelfTime(parent, nil); got != 100 {
		t.Errorf("SelfTime without children = %v, want 100", got)
	}
	if got := SelfTime(parent, []Span{{Start: 0, End: 80, Replay: true}, {Start: 50, End: 100}}); got != 0 {
		t.Errorf("SelfTime of a fully covered span = %v, want 0", got)
	}
}

func TestTracerGroupsSpansByParent(t *testing.T) {
	tr := NewTracer()
	t0 := time.Now()
	trace := tr.NewTrace()
	root := tr.Record("root", trace, 0, t0, t0.Add(100*time.Microsecond), false)
	tr.Record("child", trace, root, t0.Add(10*time.Microsecond), t0.Add(30*time.Microsecond), false)
	tr.Record("child", trace, root, t0.Add(200*time.Microsecond), t0.Add(250*time.Microsecond), true)
	ix := indexSpans(tr.Spans())
	if got := ix.selfTimes("root", 1).Median(); got != float64(30*time.Microsecond) {
		t.Errorf("root self time = %v ns, want 30us", got)
	}
	if got := ix.durations("child", 1).Len(); got != 2 {
		t.Errorf("%d child spans, want 2", got)
	}
	var nilTracer *Tracer
	if id := nilTracer.Record("x", nilTracer.NewTrace(), 0, t0, t0, false); id != 0 || nilTracer.Spans() != nil {
		t.Errorf("a nil tracer recorded a span")
	}
}

func TestOpenLoopSendsOnScheduleAndCountsBacklog(t *testing.T) {
	dues := make([]time.Duration, 20)
	for i := range dues {
		dues[i] = time.Duration(i) * time.Millisecond
	}
	start := time.Now()
	var mu sync.Mutex
	sent := map[int]time.Time{}
	loop := runOpenLoop(start, dues, 2, time.Second, func(_, i int, due time.Time) {
		mu.Lock()
		sent[i] = time.Now()
		mu.Unlock()
	})
	if loop.backlogged || len(sent) != len(dues) || loop.late.Len() != len(dues) {
		t.Fatalf("sent %d of %d (backlogged %v)", len(sent), len(dues), loop.backlogged)
	}
	for i, at := range sent {
		if at.Before(start.Add(dues[i])) {
			t.Errorf("request %d sent %v before it was due", i, start.Add(dues[i]).Sub(at))
		}
	}

	// A server that takes 20 ms per request falls behind a 1 ms schedule;
	// once a request is 10 ms overdue the rest is abandoned as unsent.
	loop = runOpenLoop(time.Now(), dues, 1, 10*time.Millisecond, func(int, int, time.Time) {
		time.Sleep(20 * time.Millisecond)
	})
	if !loop.backlogged || loop.unsent == 0 || loop.unsent+loop.late.Len() != len(dues) {
		t.Errorf("backlogged %v, %d unsent, %d sent of %d", loop.backlogged, loop.unsent, loop.late.Len(), len(dues))
	}
}

func TestBenchmarkJSONMatchesDescribe(t *testing.T) {
	want, err := describeJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: go run ./perfbench --describe > BENCHMARK.json")
	}
}
