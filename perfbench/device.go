package main

import (
	"fmt"
	"math/rand"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/dsp"
	"smarteryou/internal/features"
	"smarteryou/internal/sensing"
)

// Device-window sizing: a cohort large enough that the accept rates do not
// hinge on a few easy or hard users, windows in sessions of four so the
// response module sees streaks, half of the sessions mimicry.
const (
	devicePeople       = 256
	deviceEnrollSecs   = 24
	deviceSessionWins  = 4
	deviceWindowSecond = 6
)

// phone is one cohort member's on-device state.
type phone struct {
	auth *core.Authenticator
	resp *core.ResponseModule
}

type deviceState struct {
	pop    *population
	phones []phone
}

func setupDevice(seed int64) (*deviceState, error) {
	pop, err := synthesize(seed, synthOptions{people: devicePeople, enrollSeconds: deviceEnrollSecs})
	if err != nil {
		return nil, err
	}
	st := &deviceState{pop: pop, phones: make([]phone, devicePeople)}
	for i := range pop.people {
		bundle, err := pop.trainLocal(i, seed)
		if err != nil {
			return nil, fmt.Errorf("device-window: train %d: %w", i, err)
		}
		auth, err := core.NewAuthenticator(pop.detector, bundle)
		if err != nil {
			return nil, fmt.Errorf("device-window: authenticator %d: %w", i, err)
		}
		st.phones[i] = phone{auth: auth, resp: core.NewResponseModule(core.ResponsePolicy{})}
	}
	return st, nil
}

// deviceRun is one measured phase's tallies.
type deviceRun struct {
	lat    Samples // per-window pipeline time, ns
	accept acceptTally
}

// deviceWindow is op k of a phase: whose phone, and who holds it.
type deviceWindow struct {
	owner    int
	attacker int
	mimic    bool
	session  sensing.Session
}

// nextWindow derives op k's window from the seed alone.
func (st *deviceState) nextWindow(rng *rand.Rand, k int, seed int64, cur *deviceWindow) {
	if k%deviceSessionWins == 0 {
		cur.owner = rng.Intn(len(st.phones))
		cur.mimic = rng.Intn(2) == 1
	}
	owner := st.pop.people[cur.owner].user
	ctx := sensing.ContextStationaryUse
	if rng.Intn(2) == 1 {
		ctx = sensing.ContextMovingUse
	}
	cur.session = sensing.Session{User: owner, Context: ctx, Seconds: deviceWindowSecond, Seed: seed*7_919 + int64(k)}
	if cur.mimic {
		// Each mimicry session has its own attacker, so the rate averages
		// over attackers as well as victims.
		if k%deviceSessionWins == 0 {
			cur.attacker = (cur.owner + 1 + rng.Intn(len(st.phones)-1)) % len(st.phones)
		}
		attacker := st.pop.people[cur.attacker].user
		cur.session.User = attacker
		cur.session.MimicOf = &owner.Params
		cur.session.MimicFidelity = mimicFidelity
	}
}

// deviceBatch is how many windows are synthesized ahead of the timed
// pipeline: large enough that the pipeline runs back to back, small
// enough that the batch's streams stay a few MiB.
const deviceBatch = 64

// pending is one synthesized window awaiting the pipeline.
type pending struct {
	win          deviceWindow
	phone, watch *sensing.Stream
	trace        uint64
}

// measureDevice runs the on-device pipeline for d: windows are
// synthesized a batch at a time, untimed, then pass through the pipeline
// back to back.
func (st *deviceState) measureDevice(seed int64, d time.Duration, tr *Tracer, res *result) (*deviceRun, error) {
	run := &deviceRun{}
	rng := rand.New(rand.NewSource(seed ^ 0xdef1ce))
	ext := features.NewExtractor()
	replay := &dspReplay{}
	var cur deviceWindow
	batch := make([]pending, deviceBatch)
	deadline := time.Now().Add(d)
	for k := 0; time.Now().Before(deadline); {
		for b := range batch {
			st.nextWindow(rng, k+b, seed, &cur)
			genStart := time.Now()
			phone, err := cur.session.Generate(sensing.DevicePhone)
			if err != nil {
				return nil, err
			}
			watch, err := cur.session.Generate(sensing.DeviceWatch)
			if err != nil {
				return nil, err
			}
			traceID := tr.NewTrace()
			tr.Record("sensing.generate", traceID, 0, genStart, time.Now(), false)
			batch[b] = pending{win: cur, phone: phone, watch: watch, trace: traceID}
		}
		for _, p := range batch {
			if err := st.pipeline(k, p, ext, replay, tr, run, res); err != nil {
				return nil, err
			}
			k++
		}
	}
	return run, nil
}

// pipeline times one window through the on-device pipeline and checks its
// decision; with a tracer it records the layer spans and their replays.
func (st *deviceState) pipeline(k int, p pending, ext *features.Extractor, replay *dspReplay, tr *Tracer, run *deviceRun, res *result) error {
	ph := st.phones[p.win.owner]
	start := time.Now()
	phoneF, err := ext.ExtractWindows(p.phone, deviceWindowSecond)
	t1 := time.Now()
	var watchF []features.DeviceFeatures
	if err == nil {
		watchF, err = ext.ExtractWindows(p.watch, deviceWindowSecond)
	}
	t2 := time.Now()
	var dec core.Decision
	if err == nil {
		if len(phoneF) != 1 || len(watchF) != 1 {
			err = fmt.Errorf("a 6 s window gave %d phone and %d watch feature windows", len(phoneF), len(watchF))
		} else {
			dec, err = ph.auth.Authenticate(features.WindowSample{Phone: phoneF[0], Watch: watchF[0]})
		}
	}
	t3 := time.Now()
	if err == nil {
		ph.resp.Observe(dec)
	}
	end := time.Now()
	res.count(err)
	if err != nil {
		return nil
	}
	run.lat.Add(float64(end.Sub(start)))
	res.gate(finite(dec.Score) && knownContext(dec.Context.String()), "window %d: score %v, context %v", k, dec.Score, dec.Context)
	run.accept.add(p.win.mimic, dec.Accepted)
	if ph.resp.Locked() {
		ph.resp.Unlock() // the owner re-authenticates explicitly
	}
	if tr == nil {
		return nil
	}
	root := tr.Record("device.window", p.trace, 0, start, end, false)
	phoneSpan := tr.Record("features.extract", p.trace, root, start, t1, false)
	watchSpan := tr.Record("features.extract", p.trace, root, t1, t2, false)
	authSpan := tr.Record("core.authenticate", p.trace, root, t2, t3, false)
	tr.Record("core.response", p.trace, root, t3, end, false)
	// Replays, outside the timed window: the dsp calls each ExtractWindows
	// made, and the detection inside Authenticate.
	if err := replay.device(tr, p.trace, phoneSpan, p.phone); err != nil {
		return err
	}
	if err := replay.device(tr, p.trace, watchSpan, p.watch); err != nil {
		return err
	}
	detStart := time.Now()
	if _, err := st.pop.detector.Detect(phoneF[0]); err != nil {
		return err
	}
	tr.Record("ctxdetect.detect", p.trace, authSpan, detStart, time.Now(), true)
	return nil
}

// dspReplay re-runs, call by call, the dsp work Extractor.ExtractWindows
// does for one 6 s device window: per sensor, time-domain stats, the
// amplitude spectrum of the detrended window, and its peaks.
type dspReplay struct {
	spec     dsp.Spectrum
	detrend  []float64
	acc, gyr []float64
}

func (r *dspReplay) device(tr *Tracer, traceID, parent uint64, s *sensing.Stream) error {
	n := len(s.Samples)
	r.acc, r.gyr = r.acc[:0], r.gyr[:0]
	for i := range s.Samples {
		smp := &s.Samples[i]
		r.acc = append(r.acc, dsp.Magnitude(smp.Acc.X, smp.Acc.Y, smp.Acc.Z))
		r.gyr = append(r.gyr, dsp.Magnitude(smp.Gyr.X, smp.Gyr.Y, smp.Gyr.Z))
	}
	plan, err := dsp.PlanFor(n)
	if err != nil {
		return err
	}
	for _, w := range [][]float64{r.acc, r.gyr} {
		t0 := time.Now()
		ts, err := dsp.Stats(w)
		t1 := time.Now()
		if err != nil {
			return err
		}
		r.detrend = r.detrend[:0]
		for _, v := range w {
			r.detrend = append(r.detrend, v-ts.Mean)
		}
		t2 := time.Now()
		if err := plan.AmplitudeSpectrumInto(&r.spec, r.detrend, s.Rate); err != nil {
			return err
		}
		t3 := time.Now()
		r.spec.Peaks()
		t4 := time.Now()
		tr.Record("dsp.stats", traceID, parent, t0, t1, true)
		tr.Record("dsp.spectrum", traceID, parent, t2, t3, true)
		tr.Record("dsp.peaks", traceID, parent, t3, t4, true)
	}
	return nil
}

func runDevice(cfg config) (*result, error) {
	res := newResult()
	var st *deviceState
	setupS, err := repeatSetup(setupRounds, func() (func(), error) {
		var err error
		st, err = setupDevice(cfg.seed)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	res.setCommon(setupS, heapMiB())

	measure := func(tr *Tracer) (*deviceRun, error) { return st.measureDevice(cfg.seed, cfg.measured(), tr, res) }
	if !cfg.trace {
		run, err := measure(nil)
		if err != nil {
			return nil, err
		}
		res.setLatency("device window pipeline time", &run.lat, 0.95)
		// Windows per second of pipeline time, leaving out the slowest 1%,
		// where a preemption of the benchmark's own thread, not the
		// pipeline, sets the time.
		n, busy := run.lat.TrimmedSum(0.99)
		perSec := float64(n) / (busy / 1e9)
		res.e2e["throughput_per_s"] = perSec
		res.line("device_windows_per_s = %.1f windows/s (%d of %d windows, pipeline time only)", perSec, n, run.lat.Len())
		res.line("device_window_p99_us = %.2f us", run.lat.Quantile(0.99)/1e3)
		run.accept.report(res)
		return res, nil
	}

	base, err := measure(nil)
	if err != nil {
		return nil, err
	}
	tr := NewTracer()
	pauses := gcPauses()
	traced, err := measure(tr)
	if err != nil {
		return nil, err
	}
	res.tracedRuntime(pauses)
	res.setOverhead(base.lat.Median(), traced.lat.Median())
	ix := indexSpans(tr.Spans())
	res.setSpanLayer("sensing.generate_us", ix.durations("sensing.generate", 1), 1e-3, "us")
	res.setSpanLayer("dsp.stats_us", ix.durations("dsp.stats", 1), 1e-3, "us")
	res.setSpanLayer("dsp.spectrum_us", ix.durations("dsp.spectrum", 1), 1e-3, "us")
	res.setSpanLayer("dsp.peaks_us", ix.durations("dsp.peaks", 1), 1e-3, "us")
	res.setSpanLayer("features.extract_us", ix.durations("features.extract", 1), 1e-3, "us")
	res.setSpanLayer("features.extract_self_us", ix.selfTimes("features.extract", 1), 1e-3, "us")
	res.setSpanLayer("ctxdetect.detect_us", ix.durations("ctxdetect.detect", 1), 1e-3, "us")
	res.setSpanLayer("core.authenticate_us", ix.durations("core.authenticate", 1), 1e-3, "us")
	res.setSpanLayer("core.authenticate_self_us", ix.selfTimes("core.authenticate", 1), 1e-3, "us")
	res.setSpanLayer("core.response_us", ix.durations("core.response", 1), 1e-3, "us")
	return res, writeSpans(tr, cfg, "device-window")
}
