package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// Auth-serve sizing. The cohort is small enough that every model stays
// cached and large enough that the accept rates average over many users.
// Windows are split evenly over the three request shapes.
const (
	servePeople     = 256
	serveEnrollSecs = 24
	servePoolSecs   = 12
	serveMimicShare = 1.0 / 3
	serveBatch      = 16
	serveStream     = 32
	// serveRefRate is the fixed offered load, in windows per second, at
	// which op_p50_ms and op_tail_ms are measured.
	serveRefRate = 12000
	// The capacity ladder: serveRungs fixed offered rates, from
	// serveLadderFrom times the reference rate up by serveRungStep each,
	// share the rest of the run. A rung passes when its p99 request
	// latency meets serveLimit with no growing backlog.
	serveLimit      = 50 * time.Millisecond
	serveRungs      = 16
	serveLadderFrom = 2
	serveRungStep   = 1.1
	// serveTail is the gated tail of single-window requests.
	serveTail = 0.9
)

type shape int

const (
	shapeSingle shape = iota
	shapeBatch
	shapeStream
)

func (s shape) String() string { return [...]string{"single", "batch", "stream"}[s] }

func (s shape) windows() int { return [...]int{1, serveBatch, serveStream}[s] }

// serveReq is one scheduled request: a user and the windows it carries,
// as indices into that user's window table.
type serveReq struct {
	shape shape
	user  int
	wins  []int
}

type serveState struct {
	pop      *population
	ids      []identity
	table    [][]features.WindowSample // per user: genuine windows, then mimic
	dir      string
	store    *store.Store
	srv      *transport.Server
	client   *transport.Client
	sessions []*transport.Session
}

func (st *serveState) isMimic(user, k int) bool { return k >= len(st.pop.people[user].genuine) }

func setupServe(cfg config) (*serveState, error) {
	pop, err := synthesize(cfg.seed, synthOptions{people: servePeople, enrollSeconds: serveEnrollSecs, poolSeconds: servePoolSecs})
	if err != nil {
		return nil, err
	}
	st := &serveState{pop: pop, ids: cohortIdentities("serve", servePeople)}
	for i, id := range st.ids {
		p := pop.people[i]
		st.table = append(st.table, id.present(append(append([]features.WindowSample(nil), p.genuine...), p.mimic...)))
	}
	if st.dir, err = roundDir(cfg, "serve"); err != nil {
		return nil, err
	}
	fail := func(err error) (*serveState, error) {
		st.close()
		return nil, err
	}
	if st.store, err = store.Open(st.dir, store.Options{}); err != nil {
		return fail(err)
	}
	st.srv, err = transport.NewServer(transport.ServerConfig{Key: benchKey, Detector: pop.detector, Store: st.store})
	if err != nil {
		return fail(err)
	}
	addr, err := st.srv.Start("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	if st.client, st.sessions, err = newSessions(addr.String(), 2); err != nil {
		return fail(err)
	}
	err = stage(st.sessions, st.ids,
		func(id identity) []features.WindowSample { return id.present(pop.people[id.base].enroll) },
		func(id identity) transport.TrainParams {
			return transport.TrainParams{Mode: trainMode, MaxPerClass: trainPerClass, Seed: cfg.seed + int64(id.base)}
		})
	if err != nil {
		return fail(err)
	}
	// Let the compaction the staging writes set off finish now, not
	// inside the measured phase.
	if err := st.store.Snapshot(); err != nil {
		return fail(err)
	}
	return st, nil
}

func (st *serveState) close() {
	closeSessions(st.client, st.sessions)
	if st.srv != nil {
		_ = st.srv.Close() // teardown of a finished round
	}
	if st.store != nil {
		_ = st.store.Close()
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
}

// schedule draws Poisson requests offering rate windows per second over
// [from, from+span). Shapes are drawn so each carries a third of the
// windows; every window is mimicry with probability serveMimicShare.
func (st *serveState) schedule(rng *rand.Rand, rate float64, from, span time.Duration) ([]time.Duration, []serveReq) {
	weights := [3]float64{1, 1.0 / serveBatch, 1.0 / serveStream}
	total := weights[0] + weights[1] + weights[2]
	perReq := 3 / total // mean windows per request
	dues := poissonDues(rng, rate/perReq, from, span)
	reqs := make([]serveReq, len(dues))
	for i := range reqs {
		x := rng.Float64() * total
		sh := shapeSingle
		if x >= weights[0] {
			sh = shapeBatch
			if x >= weights[0]+weights[1] {
				sh = shapeStream
			}
		}
		u := rng.Intn(len(st.ids))
		p := st.pop.people[u]
		wins := make([]int, sh.windows())
		for k := range wins {
			if rng.Float64() < serveMimicShare {
				wins[k] = len(p.genuine) + rng.Intn(len(p.mimic))
			} else {
				wins[k] = rng.Intn(len(p.genuine))
			}
		}
		reqs[i] = serveReq{shape: sh, user: u, wins: wins}
	}
	return dues, reqs
}

// servePhase is one open-loop phase's outcome.
type servePhase struct {
	lat      Samples // per request, ns from its due time to its last decision
	single   Samples // lat of the single-window requests
	shapeLat [3]Samples
	accept   acceptTally
	loop     *openLoop
	decided  int64
	elapsed  time.Duration
	reqSpan  []uint64
	reqTrace []uint64
	tailLat  Samples // requests of the last quarter of the schedule
}

// runPhase drives one schedule over the two sessions; whichever session
// is free takes the next due request, whatever its shape.
func (st *serveState) runPhase(dues []time.Duration, reqs []serveReq, tr *Tracer, res *result) *servePhase {
	ph := &servePhase{reqSpan: make([]uint64, len(reqs)), reqTrace: make([]uint64, len(reqs))}
	var mu sync.Mutex
	tailFrom := len(reqs) * 3 / 4
	send := func(s *transport.Session, i int, due time.Time) {
		req := reqs[i]
		id := st.ids[req.user].id
		wins := make([]features.WindowSample, len(req.wins))
		for k, idx := range req.wins {
			wins[k] = st.table[req.user][idx]
		}
		sent := time.Now()
		decs, err := sendShape(s, req.shape, id, wins)
		end := time.Now()
		res.count(err)
		if err != nil {
			return
		}
		res.gate(len(decs) == len(wins), "%s request: %d decisions for %d windows", req.shape, len(decs), len(wins))
		var acc acceptTally
		for k, d := range decs {
			res.gate(finite(d.Score) && knownContext(d.Context), "%s decision: score %v, context %q", req.shape, d.Score, d.Context)
			acc.add(st.isMimic(req.user, req.wins[k]), d.Accepted)
		}
		if tr != nil {
			ph.reqTrace[i] = tr.NewTrace()
			ph.reqSpan[i] = tr.Record("transport."+req.shape.String(), ph.reqTrace[i], 0, sent, end, false)
		}
		lat := float64(end.Sub(due))
		mu.Lock()
		ph.lat.Add(lat)
		ph.shapeLat[req.shape].Add(lat)
		if req.shape == shapeSingle {
			ph.single.Add(lat)
		}
		if i >= tailFrom {
			ph.tailLat.Add(lat)
		}
		ph.accept.merge(acc)
		ph.decided += int64(len(decs))
		mu.Unlock()
	}
	start := time.Now()
	ph.loop = runOpenLoop(start, dues, len(st.sessions), time.Second, func(w, i int, due time.Time) {
		send(st.sessions[w], i, due)
	})
	ph.elapsed = time.Since(start)
	for range ph.loop.unsent {
		res.count(fmt.Errorf("not sent: backlog over the limit"))
	}
	return ph
}

// sendShape sends one request of the shape and returns its decisions.
func sendShape(s *transport.Session, sh shape, id string, wins []features.WindowSample) ([]transport.AuthDecision, error) {
	switch sh {
	case shapeSingle:
		d, err := s.Authenticate(id, wins[0])
		if err != nil {
			return nil, err
		}
		return []transport.AuthDecision{d}, nil
	case shapeBatch:
		return s.AuthenticateBatch(id, wins)
	default:
		stream, err := s.StartStream(id)
		if err != nil {
			return nil, err
		}
		for _, w := range wins {
			if err = stream.Push(w); err != nil {
				break
			}
		}
		var decs []transport.AuthDecision
		for range wins {
			if err != nil {
				break
			}
			var d transport.AuthDecision
			if d, err = stream.Recv(); err == nil {
				decs = append(decs, d)
			}
		}
		if cerr := stream.Close(); err == nil {
			err = cerr
		}
		return decs, err
	}
}

// replayScores re-runs, outside the traced requests, the scoring the
// server did for each: Authenticator.Authenticate over the bundle
// FetchModel returns, and the Detector.Detect inside it.
func (st *serveState) replayScores(tr *Tracer, ph *servePhase, reqs []serveReq) error {
	auths := map[int]*core.Authenticator{}
	for i, sid := range ph.reqSpan {
		if sid == 0 {
			continue
		}
		req := reqs[i]
		auth := auths[req.user]
		if auth == nil {
			bundle, _, err := st.client.FetchModel(st.ids[req.user].id, 0)
			if err != nil {
				return fmt.Errorf("fetch model: %w", err)
			}
			if auth, err = core.NewAuthenticator(st.pop.detector, bundle); err != nil {
				return err
			}
			auths[req.user] = auth
		}
		for _, idx := range req.wins {
			w := st.table[req.user][idx]
			t0 := time.Now()
			if _, err := auth.Authenticate(w); err != nil {
				return err
			}
			t1 := time.Now()
			cid := tr.Record("core.authenticate", ph.reqTrace[i], sid, t0, t1, true)
			t2 := time.Now()
			if _, err := st.pop.detector.Detect(w.Phone); err != nil {
				return err
			}
			tr.Record("ctxdetect.detect", ph.reqTrace[i], cid, t2, time.Now(), true)
		}
	}
	return nil
}

func runServe(cfg config) (*result, error) {
	res := newResult()
	var st *serveState
	setupS, err := repeatSetup(setupRounds, func() (func(), error) {
		var err error
		st, err = setupServe(cfg)
		if err != nil {
			return nil, err
		}
		return st.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer st.close()
	res.setCommon(setupS, heapMiB())
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5e7e))

	if !cfg.trace {
		refSpan := cfg.measured() * 2 / 5
		dues, reqs := st.schedule(rng, serveRefRate, 0, refSpan)
		ref := st.runPhase(dues, reqs, nil, res)
		res.setLatency(fmt.Sprintf("auth_p50_ms/auth_p95_ms/auth_p99_ms of single-window requests at %d windows/s", serveRefRate), &ref.single, serveTail)
		for _, sh := range []shape{shapeBatch, shapeStream} {
			res.line("%s request latency: %s", sh, ref.shapeLat[sh].Describe(1e-6, "ms"))
		}
		accept := ref.accept
		loops := []*openLoop{ref.loop}

		// The capacity ladder climbs fixed rates until two rungs in a row
		// fail; the capacity is the decision throughput of the highest
		// rung that passed.
		rung := (cfg.measured() - refSpan) / serveRungs
		capacity, failures := 0.0, 0
		rate := float64(serveRefRate * serveLadderFrom)
		for k := 0; k < serveRungs && failures < 2; k++ {
			dues, reqs := st.schedule(rng, rate, 0, rung)
			ph := st.runPhase(dues, reqs, nil, res)
			accept.merge(ph.accept)
			ok := !ph.loop.backlogged && ph.lat.Len() > 0 &&
				ph.lat.Quantile(0.99) <= float64(serveLimit) && ph.tailLat.Median() <= float64(serveLimit)
			res.line("capacity rung %.0f windows/s: %s, pass=%v", rate, ph.lat.Describe(1e-6, "ms"), ok)
			if ok {
				failures = 0
				capacity = float64(ph.decided) / ph.elapsed.Seconds()
				loops = append(loops, ph.loop)
			} else {
				failures++
			}
			rate *= serveRungStep
		}
		if capacity == 0 {
			capacity = float64(ref.decided) / ref.elapsed.Seconds()
		}
		res.e2e["throughput_per_s"] = capacity
		res.line("auth_capacity_wps = %.1f windows/s (p99 limit %v)", capacity, serveLimit)
		accept.report(res)
		res.setLateness(loops...)
		return res, nil
	}

	half := cfg.measured()
	dues, reqs := st.schedule(rng, serveRefRate, 0, half)
	base := st.runPhase(dues, reqs, nil, res)
	before, err := st.client.FullStats()
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	pauses := gcPauses()
	dues, reqs = st.schedule(rng, serveRefRate, 0, half)
	traced := st.runPhase(dues, reqs, tr, res)
	res.tracedRuntime(pauses)
	after, err := st.client.FullStats()
	if err != nil {
		return nil, err
	}
	res.setOverhead(base.single.Median(), traced.single.Median())
	res.setLateness(traced.loop)
	if err := st.replayScores(tr, traced, reqs); err != nil {
		return nil, err
	}
	ix := indexSpans(tr.Spans())
	for _, sh := range []shape{shapeSingle, shapeBatch, shapeStream} {
		n := float64(sh.windows())
		res.setSpanLayer("transport."+sh.String()+"_us", ix.durations("transport."+sh.String(), n), 1e-3, "us")
		res.setSpanLayer("transport."+sh.String()+"_self_us", ix.selfTimes("transport."+sh.String(), n), 1e-3, "us")
	}
	res.setSpanLayer("core.authenticate_us", ix.durations("core.authenticate", 1), 1e-3, "us")
	res.setSpanLayer("core.authenticate_self_us", ix.selfTimes("core.authenticate", 1), 1e-3, "us")
	res.setSpanLayer("ctxdetect.detect_us", ix.durations("ctxdetect.detect", 1), 1e-3, "us")
	wire := func(s transport.ServerStats) transport.WireStats {
		if s.Wire == nil {
			return transport.WireStats{}
		}
		return *s.Wire
	}
	b, a := wire(before), wire(after)
	res.setCount("transport.v2_requests", a.V2Requests-b.V2Requests)
	res.setCount("transport.batch_windows", a.BatchWindows-b.BatchWindows)
	res.setCount("transport.stream_windows", a.StreamWindows-b.StreamWindows)
	res.setCount("transport.stream_sessions", a.StreamSessions-b.StreamSessions)
	return res, writeSpans(tr, cfg, "auth-serve")
}
