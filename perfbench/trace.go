package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer. Spans of one
// request share Trace; Parent is the span whose work caused this one (0 for
// a root). A Replay span re-executes, outside its parent's interval, work
// the parent did internally through a public call (for example the FFT
// inside Extractor.ExtractWindows), so that the parent's self time can
// exclude it.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// SelfTime is the span's duration minus the part its children cover: the
// union of the ordinary children's intervals, clipped to the span's own
// interval, plus the full duration of every replay child. It never goes
// below zero.
func SelfTime(s Span, children []Span) time.Duration {
	var replayed int64
	ivs := make([][2]int64, 0, len(children))
	for _, c := range children {
		if c.Replay {
			replayed += c.End - c.Start
			continue
		}
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		if iv[0] > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = iv[0], iv[1]
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return time.Duration(max(0, s.End-s.Start-covered-replayed))
}

// Tracer keeps spans in memory for the length of a run. A nil *Tracer is
// valid and records nothing, which is how untraced runs call it.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewTrace returns a fresh request identifier (0 on a nil tracer).
func (t *Tracer) NewTrace() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Record stores a finished span and returns its ID (0 on a nil tracer).
func (t *Tracer) Record(name string, trace, parent uint64, start, end time.Time, replay bool) uint64 {
	if t == nil {
		return 0
	}
	id := t.ids.Add(1)
	s := Span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Replay: replay,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes every span, one JSON object a line, to path.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// spanIndex groups a trace's spans by name and by parent.
type spanIndex struct {
	byName   map[string][]Span
	byParent map[uint64][]Span
}

func indexSpans(spans []Span) spanIndex {
	ix := spanIndex{byName: map[string][]Span{}, byParent: map[uint64][]Span{}}
	for _, s := range spans {
		ix.byName[s.Name] = append(ix.byName[s.Name], s)
		if s.Parent != 0 {
			ix.byParent[s.Parent] = append(ix.byParent[s.Parent], s)
		}
	}
	return ix
}

// durations returns the durations of every span with the name, each
// divided by per (per-window figures for batch and stream spans).
func (ix spanIndex) durations(name string, per float64) *Samples {
	out := &Samples{}
	for _, s := range ix.byName[name] {
		out.Add(float64(s.Dur()) / per)
	}
	return out
}

// selfTimes returns SelfTime of every span with the name, each divided
// by per.
func (ix spanIndex) selfTimes(name string, per float64) *Samples {
	out := &Samples{}
	for _, s := range ix.byName[name] {
		out.Add(float64(SelfTime(s, ix.byParent[s.ID])) / per)
	}
	return out
}
