package main

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/features"
	"smarteryou/internal/retrain"
	"smarteryou/internal/store"
	"smarteryou/internal/transport"
)

// Population-churn sizing: 10 000 stored users of 16 windows each (the
// fleet's enrollment upload), cloned by persona from a synthesized cohort.
// The cohort and a tail of clones have models in the registry; the tail
// outnumbers auth-serve's cohort, so after the restart many first touches
// resolve from the store.
const (
	churnPeople     = 128
	churnUsers      = 10_000
	churnEnrollSecs = 48
	churnPoolSecs   = 12
	churnModelTail  = 512
	churnMimicShare = 1.0 / 3
	// churnAuthRate is the authenticate rate on the first connection;
	// churnWriteRate the enroll and re-enroll rate on the second, which
	// also asks for a cold train every churnTrainEvery. Trains come at a
	// fixed cadence so that every run puts the same pressure on the
	// server's lock.
	churnAuthRate   = 400
	churnWriteRate  = 3
	churnTrainEvery = 2 * time.Second
	// churnTail is the gated tail: the share of authenticates that wait
	// on a cold train's lock is a few percent, so p99 lands inside it.
	churnTail = 0.99
)

// churnRetrain is authserver's -retrain configuration at its flag
// defaults.
var churnRetrain = retrain.Config{Threshold: 0.2, Budget: 2, Cooldown: 30 * time.Minute, RecentWindows: 400}

type writeKind int

const (
	writeEnroll writeKind = iota
	writeReenroll
	writeTrain
)

type churnState struct {
	pop      *population
	ids      []identity // every stored identity; the first churnPeople+churnModelTail have models
	dir      string
	store    *store.Store
	srv      *transport.Server
	client   *transport.Client
	sessions []*transport.Session
	// windows holds the window count each user's last acknowledged write
	// left in the store; unsure marks users whose write failed.
	windows map[string]int
	unsure  map[string]bool
	nextNew int
}

func anon(id string) string { return transport.AnonymizeUser(id) }

// stored returns the windows identity id enrolls, labelled as the
// server stores them.
func stored(id identity, in []features.WindowSample) []features.WindowSample {
	out := id.present(in)
	a := anon(id.id)
	for k := range out {
		out[k].UserID = a
	}
	return out
}

func setupChurn(cfg config) (*churnState, error) {
	pop, err := synthesize(cfg.seed, synthOptions{people: churnPeople, enrollSeconds: churnEnrollSecs, poolSeconds: churnPoolSecs})
	if err != nil {
		return nil, err
	}
	st := &churnState{pop: pop, ids: cohortIdentities("churn", churnPeople), windows: map[string]int{}, unsure: map[string]bool{}}
	for k := churnPeople; k < churnUsers; k++ {
		st.ids = append(st.ids, cloneIdentity("churn", k, churnPeople))
	}
	st.nextNew = churnUsers
	if st.dir, err = roundDir(cfg, "churn"); err != nil {
		return nil, err
	}
	fail := func(err error) (*churnState, error) {
		st.close()
		return nil, err
	}
	// Seeding is a bulk load without per-record fsync or compaction, so
	// the server recovers the population by replaying the log.
	bulk, err := store.Open(st.dir, store.Options{NoSync: true, SnapshotEvery: -1})
	if err != nil {
		return fail(err)
	}
	err = st.seed(bulk, cfg.seed)
	if cerr := bulk.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(fmt.Errorf("population-churn: seed store: %w", err))
	}
	if err := st.start(); err != nil {
		return fail(err)
	}
	return st, nil
}

// seed enrolls every identity and publishes the detector and the models
// of the cohort and the tail.
func (st *churnState) seed(bulk *store.Store, seed int64) error {
	if err := bulk.PublishDetector(st.pop.detector); err != nil {
		return err
	}
	for _, id := range st.ids {
		ws := stored(id, st.pop.people[id.base].enroll)
		if err := bulk.Enroll(anon(id.id), ws, false); err != nil {
			return err
		}
		st.windows[anon(id.id)] = len(ws)
	}
	// Every cohort person's enrollment, twice over, so the windows of
	// everyone but person b form one contiguous slice.
	var ring []features.WindowSample
	var at []int
	for range 2 {
		for _, p := range st.pop.people {
			at = append(at, len(ring))
			ring = append(ring, p.enroll...)
		}
	}
	for k, id := range st.ids[:scored] {
		impostor := ring[at[id.base+1]:at[id.base+churnPeople]]
		bundle, err := core.Train(stored(id, st.pop.people[id.base].enroll), impostor, core.TrainConfig{
			Mode: trainMode, MaxPerClass: trainPerClass, Seed: seed + int64(k),
		})
		if err != nil {
			return err
		}
		if _, err := bulk.PublishModel(anon(id.id), bundle); err != nil {
			return err
		}
	}
	return nil
}

// openServer opens the durable store at dir and starts a server on it the
// way authserver does after a restart: detector from the registry, drift
// retraining at its flag defaults.
func openServer(dir string) (*store.Store, *transport.Server, string, time.Duration, error) {
	t0 := time.Now()
	s, err := store.Open(dir, store.Options{})
	openTime := time.Since(t0)
	if err != nil {
		return nil, nil, "", 0, err
	}
	det, err := s.LatestDetector()
	if err != nil {
		s.Close()
		return nil, nil, "", 0, err
	}
	cfg := churnRetrain
	srv, err := transport.NewServer(transport.ServerConfig{Key: benchKey, Detector: det, Store: s, Retrain: &cfg})
	if err != nil {
		s.Close()
		return nil, nil, "", 0, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		srv.Close()
		s.Close()
		return nil, nil, "", 0, err
	}
	return s, srv, addr.String(), openTime, nil
}

func (st *churnState) start() error {
	var addr string
	var err error
	if st.store, st.srv, addr, _, err = openServer(st.dir); err != nil {
		return err
	}
	st.client, st.sessions, err = newSessions(addr, 2)
	return err
}

func (st *churnState) stop() {
	closeSessions(st.client, st.sessions)
	st.client, st.sessions = nil, nil
	if st.srv != nil {
		_ = st.srv.Close() // a finished run; errors carry no information
		st.srv = nil
	}
	if st.store != nil {
		_ = st.store.Close()
		st.store = nil
	}
}

func (st *churnState) close() {
	st.stop()
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
}

// scored is how many identities have models.
const scored = churnPeople + churnModelTail

type churnAuth struct {
	user  int
	win   features.WindowSample
	mimic bool
}

type churnWrite struct {
	kind writeKind
	id   identity
	wins []features.WindowSample
}

func (st *churnState) authSchedule(rng *rand.Rand, span time.Duration) ([]time.Duration, []churnAuth) {
	dues := poissonDues(rng, churnAuthRate, 0, span)
	reqs := make([]churnAuth, len(dues))
	for i := range reqs {
		u := rng.Intn(scored)
		w, mimic := st.pop.windowPick(rng, st.ids[u].base, churnMimicShare)
		reqs[i] = churnAuth{user: u, win: st.ids[u].presentOne(w), mimic: mimic}
	}
	return dues, reqs
}

func (st *churnState) writeSchedule(rng *rand.Rand, span time.Duration) ([]time.Duration, []churnWrite) {
	dues := poissonDues(rng, churnWriteRate, 0, span)
	reqs := make([]churnWrite, len(dues))
	for i := range reqs {
		if rng.Intn(2) == 0 {
			id := cloneIdentity("churn", st.nextNew, churnPeople)
			st.nextNew++
			reqs[i] = churnWrite{kind: writeEnroll, id: id, wins: id.present(st.pop.people[id.base].enroll)}
			continue
		}
		id := st.ids[rng.Intn(scored)]
		p := st.pop.people[id.base]
		fresh := append(append([]features.WindowSample(nil), p.genuine...), p.enroll[:12]...)
		reqs[i] = churnWrite{kind: writeReenroll, id: id, wins: id.present(fresh)}
	}
	// Merge in the cold trains, in due order.
	for at := time.Duration(rng.Int63n(int64(churnTrainEvery))); at < span; at += churnTrainEvery {
		k := sort.Search(len(dues), func(i int) bool { return dues[i] > at })
		dues = slices.Insert(dues, k, at)
		reqs = slices.Insert(reqs, k, churnWrite{kind: writeTrain, id: st.ids[rng.Intn(scored)]})
	}
	return dues, reqs
}

// churnPhase is one measured phase's outcome.
type churnPhase struct {
	auth, write         *openLoop
	authLat             Samples
	enrollLat, trainLat Samples
	accept              acceptTally
	elapsed             time.Duration
	trained             []identity
}

func (st *churnState) runPhase(cfg config, rng *rand.Rand, span time.Duration, tr *Tracer, res *result) *churnPhase {
	ph := &churnPhase{}
	authDues, auths := st.authSchedule(rng, span)
	writeDues, writes := st.writeSchedule(rng, span)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ph.auth = runOpenLoop(start, authDues, 1, 5*time.Second, func(_, i int, due time.Time) {
			req := auths[i]
			sent := time.Now()
			d, err := st.sessions[0].Authenticate(st.ids[req.user].id, req.win)
			end := time.Now()
			res.count(err)
			if err != nil {
				return
			}
			res.gate(finite(d.Score) && knownContext(d.Context), "decision: score %v, context %q", d.Score, d.Context)
			ph.authLat.Add(float64(end.Sub(due)))
			ph.accept.add(req.mimic, d.Accepted)
			tr.Record("transport.auth", tr.NewTrace(), 0, sent, end, false)
		})
	}()
	ph.write = runOpenLoop(start, writeDues, 1, 5*time.Second, func(_, i int, due time.Time) {
		req := writes[i]
		s := st.sessions[1]
		sent := time.Now()
		var err error
		switch req.kind {
		case writeEnroll:
			_, err = s.Enroll(req.id.id, req.wins)
		case writeReenroll:
			_, err = s.ReplaceEnrollment(req.id.id, req.wins)
		case writeTrain:
			_, err = s.Train(req.id.id, transport.TrainParams{Mode: trainMode, MaxPerClass: trainPerClass, Seed: cfg.seed + int64(i)})
		}
		end := time.Now()
		res.count(err)
		a := anon(req.id.id)
		if err != nil {
			if req.kind != writeTrain {
				st.unsure[a] = true
			}
			return
		}
		if req.kind == writeTrain {
			ph.trainLat.Add(float64(end.Sub(due)))
			ph.trained = append(ph.trained, req.id)
			tr.Record("transport.train", tr.NewTrace(), 0, sent, end, false)
			return
		}
		st.windows[a] = len(req.wins)
		ph.enrollLat.Add(float64(end.Sub(due)))
		tr.Record("transport.enroll", tr.NewTrace(), 0, sent, end, false)
	})
	wg.Wait()
	ph.elapsed = time.Since(start)
	for range ph.auth.unsent + ph.write.unsent {
		res.count(fmt.Errorf("not sent: backlog over the limit"))
	}
	return ph
}

// restart closes the server and store and times what a restart costs:
// store.Open, transport.NewServer and the first answered authenticate.
func (st *churnState) restart() (total, open time.Duration, err error) {
	st.stop()
	t0 := time.Now()
	var addr string
	st.store, st.srv, addr, open, err = openServer(st.dir)
	if err != nil {
		return 0, 0, err
	}
	if st.client, st.sessions, err = newSessions(addr, 2); err != nil {
		return 0, 0, err
	}
	w := st.ids[0].presentOne(st.pop.people[0].genuine[0])
	if _, err := st.sessions[0].Authenticate(st.ids[0].id, w); err != nil {
		return 0, 0, fmt.Errorf("first authenticate after restart: %w", err)
	}
	return time.Since(t0), open, nil
}

// checkDurable gates on the reopened store holding every acknowledged
// enroll and re-enroll.
func (st *churnState) checkDurable(res *result) {
	pop := st.store.Population()
	missing := 0
	for a, n := range st.windows {
		if st.unsure[a] {
			continue
		}
		if len(pop[a]) != n {
			missing++
		}
	}
	res.gate(missing == 0, "reopened store: %d of %d users lack their acknowledged windows", missing, len(st.windows))
	res.line("durability: %d users checked after restart, %d mismatched", len(st.windows)-len(st.unsure), missing)
}

func runChurn(cfg config) (*result, error) {
	res := newResult()
	var st *churnState
	setupS, err := repeatSetup(setupRounds, func() (func(), error) {
		var err error
		st, err = setupChurn(cfg)
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
	rng := rand.New(rand.NewSource(cfg.seed ^ 0xc4a2))

	if !cfg.trace {
		ph := st.runPhase(cfg, rng, cfg.measured(), nil, res)
		res.setLatency(fmt.Sprintf("auth_p50_ms/auth_p95_ms/auth_p99_ms at %d/s", churnAuthRate), &ph.authLat, churnTail)
		res.e2e["throughput_per_s"] = float64(ph.authLat.Len()) / ph.elapsed.Seconds()
		res.line("authenticate goodput = %.1f decisions/s", res.e2e["throughput_per_s"])
		res.line("enroll_p50_ms/enroll_p99_ms: %s", ph.enrollLat.Describe(1e-6, "ms"))
		res.line("train_p50_ms: %s", ph.trainLat.Describe(1e-6, "ms"))
		ph.accept.report(res)
		res.setLateness(ph.auth, ph.write)
		total, _, err := st.restart()
		if err != nil {
			return nil, err
		}
		res.line("restart_s = %.4f s", total.Seconds())
		st.checkDurable(res)
		return res, nil
	}

	base := st.runPhase(cfg, rng, cfg.measured(), nil, res)
	before, err := st.client.FullStats()
	if err != nil {
		return nil, err
	}
	storeBefore := st.store.Stats()
	tr := NewTracer()
	pauses := gcPauses()
	traced := st.runPhase(cfg, rng, cfg.measured(), tr, res)
	res.tracedRuntime(pauses)
	after, err := st.client.FullStats()
	if err != nil {
		return nil, err
	}
	storeAfter := st.store.Stats()
	res.setOverhead(base.authLat.Median(), traced.authLat.Median())
	res.setLateness(traced.auth, traced.write)
	ix := indexSpans(tr.Spans())
	res.setSpanLayer("transport.auth_us", ix.durations("transport.auth", 1), 1e-3, "us")
	res.setSpanLayer("transport.enroll_ms", ix.durations("transport.enroll", 1), 1e-6, "ms")
	res.setSpanLayer("transport.train_ms", ix.durations("transport.train", 1), 1e-6, "ms")
	res.setCount("transport.train_completed", after.Train.Completed-before.Train.Completed)
	res.setCount("transport.train_rejected", after.Train.Rejected-before.Train.Rejected)
	if before.Retrain != nil && after.Retrain != nil {
		b, a := before.Retrain, after.Retrain
		res.setCount("retrain.scheduled", (a.Completed+a.Failures)-(b.Completed+b.Failures))
		res.setCount("retrain.incremental", a.Incremental-b.Incremental)
		res.setCount("retrain.cold", a.Cold-b.Cold)
	}
	setStoreLayers(res, storeBefore, storeAfter)

	// Replays after the phase: core.Train on each trained user's stored
	// windows against the stored population, so transport.train_ms minus
	// core.train_ms is the time spent queueing and gathering under the
	// server's lock.
	popNow := st.store.Population()
	var everyone []features.WindowSample
	for _, ws := range popNow {
		everyone = append(everyone, ws...)
	}
	var trainT Samples
	for k, id := range traced.trained {
		t0 := time.Now()
		if _, err := core.Train(popNow[anon(id.id)], everyone, core.TrainConfig{Mode: trainMode, MaxPerClass: trainPerClass, Seed: cfg.seed + int64(k)}); err != nil {
			return nil, fmt.Errorf("replay train: %w", err)
		}
		trainT.Add(float64(time.Since(t0)))
	}
	res.setSpanLayer("core.train_ms", &trainT, 1e-6, "ms")

	_, open, err := st.restart()
	if err != nil {
		return nil, err
	}
	res.layers["store.open_ms"] = float64(open) / 1e6
	res.line("store.open_ms = %.2f ms", res.layers["store.open_ms"])
	var latest Samples
	for _, id := range st.ids[churnPeople:scored] {
		t0 := time.Now()
		if _, _, err := st.store.LatestModel(anon(id.id)); err != nil {
			return nil, fmt.Errorf("latest model: %w", err)
		}
		latest.Add(float64(time.Since(t0)))
	}
	res.setSpanLayer("store.latest_model_us", &latest, 1e-3, "us")
	st.checkDurable(res)
	return res, writeSpans(tr, cfg, "population-churn")
}

// setStoreLayers records the store's record delta over a phase and its
// log and chunk-store sizes at the end of it.
func setStoreLayers(res *result, before, after store.Stats) {
	res.setCount("store.records", after.LastSeq-before.LastSeq)
	res.setCount("store.wal_bytes", uint64(after.WALBytes))
	res.setCount("cas.chunks", uint64(after.CAS.MemChunks+after.CAS.DiskChunks))
	res.setCount("cas.stored_bytes", uint64(after.CAS.MemBytes+after.CAS.DiskBytes))
}
